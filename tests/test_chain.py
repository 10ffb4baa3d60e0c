from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paritydie import (
    DieConfig,
    MutationRule,
    absorption,
    build_chain,
    chain_report,
    classify,
    is_ergodic,
)
from paritydie.chain import _eliminate

from oracles import mutual_reachability_classes, transitive_closure

COPY = MutationRule.PARITY_COPY
INCREMENT = MutationRule.INCREMENT
NONE = MutationRule.NO_MUTATION

FROZEN = {(3, 0, 0), (2, 0, 1), (1, 0, 2), (0, 0, 3)}


def test_standard_die_chain_is_trivial():
    chain = build_chain(NONE)
    assert chain.states == ((0, 3, 0),)
    assert chain.matrix == ((Fraction(1),),)


def test_copy_chain_reaches_all_ten_states():
    chain = build_chain(COPY)
    assert len(chain.states) == 10
    assert set(map(tuple, chain.states)) >= FROZEN
    assert {(0, 3, 0), (1, 2, 0), (0, 2, 1), (2, 1, 0), (1, 1, 1), (0, 1, 2)} <= set(
        map(tuple, chain.states)
    )


def test_copy_chain_row_after_two_evens():
    chain = build_chain(COPY)
    i = chain.index(DieConfig(2, 1, 0))
    row = {
        tuple(chain.states[j]): p for j, p in enumerate(chain.matrix[i]) if p > 0
    }
    assert row == {
        (2, 1, 0): Fraction(2, 3),
        (2, 0, 1): Fraction(1, 6),
        (3, 0, 0): Fraction(1, 6),
    }


@pytest.mark.parametrize("rule", list(MutationRule))
def test_rows_are_stochastic(rule):
    chain = build_chain(rule)
    for row in chain.matrix:
        assert sum(row, Fraction(0)) == 1


@pytest.mark.parametrize("rule", list(MutationRule))
def test_classification_matches_reachability_oracle(rule):
    chain = build_chain(rule)
    classification = classify(chain)
    assert mutual_reachability_classes(chain.matrix) == {
        frozenset(members) for members in classification.classes
    }
    reach = transitive_closure(chain.matrix)
    n = len(chain.states)
    for i in range(n):
        # recurrent exactly when every reachable state can come back
        expected = all(not reach[i][j] or reach[j][i] for j in range(n))
        assert classification.recurrent[i] == expected


def test_copy_absorbing_states():
    chain = build_chain(COPY)
    classification = classify(chain)
    absorbing = {tuple(chain.states[i]) for i in classification.absorbing}
    assert absorbing == FROZEN
    transient = {
        tuple(chain.states[i])
        for i in range(len(chain.states))
        if not classification.recurrent[i]
    }
    assert transient == {(0, 3, 0), (1, 2, 0), (0, 2, 1), (2, 1, 0), (1, 1, 1), (0, 1, 2)}


def test_partition_covers_each_state_once():
    for rule in MutationRule:
        chain = build_chain(rule)
        classification = classify(chain)
        seen = [i for members in classification.classes for i in members]
        assert sorted(seen) == list(range(len(chain.states)))
        for i in classification.absorbing:
            assert chain.matrix[i][i] == 1


def test_ergodicity_verdicts():
    assert is_ergodic(build_chain(NONE)).ergodic
    assert is_ergodic(build_chain(INCREMENT)).ergodic

    verdict = is_ergodic(build_chain(COPY))
    assert not verdict.ergodic
    assert verdict.witness is not None
    u, v = verdict.witness
    assert tuple(u) == (3, 0, 0) and tuple(v) == (0, 0, 3)
    assert "cannot reach" in verdict.explanation


def test_witness_is_mutually_unreachable():
    chain = build_chain(COPY)
    verdict = is_ergodic(chain)
    reach = transitive_closure(chain.matrix)
    u, v = (chain.index(state) for state in verdict.witness)
    assert not reach[u][v] and not reach[v][u]


def test_periodicity():
    assert is_ergodic(build_chain(NONE)).aperiodic
    assert is_ergodic(build_chain(COPY)).aperiodic
    # every increment transition toggles the mixed-pair count, so cycles are even
    assert not is_ergodic(build_chain(INCREMENT)).aperiodic


def test_copy_absorption_probabilities():
    report = absorption(build_chain(COPY))
    assert report.initial == (0, 3, 0)
    probabilities = {
        tuple(entry.states[0]): entry.probability for entry in report.entries
    }
    assert probabilities == {
        (3, 0, 0): Fraction(1, 8),
        (2, 0, 1): Fraction(3, 8),
        (1, 0, 2): Fraction(3, 8),
        (0, 0, 3): Fraction(1, 8),
    }
    assert sum(probabilities.values()) == 1
    assert report.expected_steps == Fraction(11, 2)
    for entry in report.entries:
        assert entry.expected_steps == Fraction(11, 2)


def test_copy_absorption_is_flip_symmetric():
    report = absorption(build_chain(COPY))
    for entry in report.entries:
        mirror = entry.states[0].flipped()
        assert entry.probability == report.probability_of(mirror)


def test_copy_long_run_shares():
    shares = {entry.states: entry.even_share for entry in absorption(build_chain(COPY)).entries}
    assert shares == {
        (DieConfig(3, 0, 0),): Fraction(1),
        (DieConfig(2, 0, 1),): Fraction(2, 3),
        (DieConfig(1, 0, 2),): Fraction(1, 3),
        (DieConfig(0, 0, 3),): Fraction(0),
    }


def test_long_run_share_of_irreducible_chains():
    for rule in (NONE, INCREMENT):
        chain = build_chain(rule)
        (entry,) = absorption(chain).entries
        assert set(entry.states) == set(chain.states)
        assert entry.even_share == Fraction(1, 2)


def test_long_run_share_rejects_open_classes():
    # only closed classes carry a long-run share; the open start class has none
    report = absorption(build_chain(COPY))
    assert all(DieConfig(0, 3, 0) not in entry.states for entry in report.entries)
    with pytest.raises(KeyError):
        report.probability_of(DieConfig(0, 3, 0))


def test_absorption_of_irreducible_chain():
    report = absorption(build_chain(INCREMENT))
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.probability == 1
    assert entry.expected_steps == 0
    assert entry.even_share == Fraction(1, 2)
    assert report.expected_steps == 0


def test_chain_report_payload():
    report = chain_report(COPY)
    assert report["rule"] == "copy"
    assert len(report["states"]) == 10
    assert report["verdict"]["ergodic"] is False
    assert report["verdict"]["witness"] == [[3, 0, 0], [0, 0, 3]]
    total = Fraction(0)
    for entry in report["absorption"]["entries"]:
        total += Fraction(
            entry["probability"]["numerator"], entry["probability"]["denominator"]
        )
    assert total == 1
    row_sums = [
        sum(Fraction(n, d) for n, d in row) for row in report["matrix"]
    ]
    assert all(s == 1 for s in row_sums)


def _determinant(matrix) -> int:
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2), min_size=n, max_size=n),
        )
    )
)
def test_integer_elimination_solves_exactly(system):
    matrix, rhs = system
    try:
        solution, det = _eliminate(matrix, rhs)
    except ArithmeticError:
        assert _determinant(matrix) == 0
        return
    assert abs(det) == abs(_determinant(matrix)) != 0
    product = [[sum(a * solution[k][j] for k, a in enumerate(row)) for j in range(2)] for row in matrix]
    assert product == [[det * b for b in row] for row in rhs]
