from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paritydie import (
    DepthRangeError,
    MutationRule,
    config_distribution,
    imbalance_distribution,
    next_even_probability,
    path_distribution,
)

from oracles import (
    brute_force_path_distribution,
    labelled_path_distribution,
    labelled_step_distributions,
)

COPY = MutationRule.PARITY_COPY
INCREMENT = MutationRule.INCREMENT
NONE = MutationRule.NO_MUTATION


def test_standard_die_is_uniform():
    dist = path_distribution(NONE, 3)
    assert all(p == Fraction(1, 8) for p in dist.entries.values())
    assert len(dist.entries) == 8
    deep = path_distribution(NONE, 7)
    assert all(p == Fraction(1, 128) for p in deep.entries.values())


def test_copy_three_rolls():
    dist = path_distribution(COPY, 3).entries
    for sequence in ("EOE", "EOO", "OEE", "OEO"):
        assert dist[sequence] == Fraction(1, 12)
    # from the position-level brute-force oracle, not the published 7/27 and 2/27
    assert dist["EEE"] == Fraction(1, 4)
    assert dist["EEO"] == Fraction(1, 12)
    assert dist["OOO"] == Fraction(1, 4)
    assert dist["OOE"] == Fraction(1, 12)


def test_increment_three_rolls():
    dist = path_distribution(INCREMENT, 3).entries
    assert dist["EEE"] == Fraction(2, 9)
    assert dist["EEO"] == Fraction(1, 9)
    assert dist["EOE"] == Fraction(1, 12)
    assert dist["EOO"] == Fraction(1, 12)


def test_single_roll_is_symmetric():
    dist = path_distribution(COPY, 1).entries
    assert dist == {"E": Fraction(1, 2), "O": Fraction(1, 2)}


@pytest.mark.parametrize("rule", list(MutationRule))
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_matches_brute_force_oracle(rule, depth):
    assert path_distribution(rule, depth).entries == brute_force_path_distribution(
        rule, depth
    )


@pytest.mark.parametrize("rule", list(MutationRule))
@pytest.mark.parametrize("depth", [1, 3, 6])
def test_path_probabilities_sum_to_one(rule, depth):
    assert path_distribution(rule, depth).total() == 1


@given(st.sampled_from(list(MutationRule)), st.integers(min_value=1, max_value=5))
def test_parity_flip_symmetry(rule, depth):
    entries = path_distribution(rule, depth).entries
    swap = str.maketrans("EO", "OE")
    for sequence, probability in entries.items():
        assert probability == entries[sequence.translate(swap)]


@pytest.mark.parametrize("rule", list(MutationRule))
def test_marginal_consistency(rule):
    fine = path_distribution(rule, 4).entries
    coarse = path_distribution(rule, 3).entries
    for prefix, probability in coarse.items():
        assert probability == fine[prefix + "E"] + fine[prefix + "O"]


def test_depth_guard():
    with pytest.raises(DepthRangeError):
        path_distribution(COPY, 0)
    with pytest.raises(DepthRangeError):
        path_distribution(COPY, 21)
    with pytest.raises(DepthRangeError):
        path_distribution(COPY, -3)
    # the guard is a cost guard, not a precision limit
    assert config_distribution(COPY, 25, max_depth=30).total() == 1
    with pytest.raises(DepthRangeError):
        path_distribution(COPY, 5, max_depth=4)


def test_config_distribution_start_and_one_step():
    assert config_distribution(COPY, 0).entries == {(0, 3, 0): Fraction(1)}
    assert config_distribution(COPY, 1).entries == {
        (1, 2, 0): Fraction(1, 2),
        (0, 2, 1): Fraction(1, 2),
    }
    assert config_distribution(NONE, 5).entries == {(0, 3, 0): Fraction(1)}


@pytest.mark.parametrize("rule", list(MutationRule))
@pytest.mark.parametrize("steps", [0, 1, 4, 9])
def test_config_distribution_sums_to_one(rule, steps):
    assert config_distribution(rule, steps).total() == 1


def test_imbalance_standard_die():
    dist = imbalance_distribution(NONE, 3)
    assert dist[3] == Fraction(1, 8)
    assert sum(dist.values()) == 1
    assert imbalance_distribution(NONE, 10)[10] == Fraction(1, 1024)


def test_imbalance_copy_is_symmetric():
    dist = imbalance_distribution(COPY, 3)
    assert all(dist[k] == dist[3 - k] for k in dist)


@pytest.mark.parametrize("rule", list(MutationRule))
def test_imbalance_is_marginal_of_paths(rule):
    paths = path_distribution(rule, 4).entries
    expected: dict[int, Fraction] = {}
    for sequence, probability in paths.items():
        k = sequence.count("E")
        expected[k] = expected.get(k, Fraction(0)) + probability
    assert imbalance_distribution(rule, 4) == expected


@pytest.mark.parametrize("steps", range(7))
def test_ensemble_even_probability_stays_half(steps):
    assert next_even_probability(config_distribution(COPY, steps)) == Fraction(1, 2)


def test_jsonable_path_distribution():
    payload = path_distribution(COPY, 2).to_jsonable()
    assert payload["rule"] == "copy"
    assert payload["depth"] == 2
    sequences = [entry["sequence"] for entry in payload["entries"]]
    assert sequences == sorted(sequences)
    entry = next(e for e in payload["entries"] if e["sequence"] == "EE")
    assert entry == {"sequence": "EE", "numerator": 1, "denominator": 3, "decimal": 1 / 3}


@pytest.mark.parametrize("rule", list(MutationRule))
def test_path_entries_come_in_lexicographic_order(rule):
    # to_jsonable and the enumerate CSV write the entries as they come
    for depth in range(1, 13):
        sequences = list(path_distribution(rule, depth).entries)
        assert sequences == sorted(sequences)


@pytest.mark.parametrize("rule", list(MutationRule))
def test_path_distribution_matches_labelled_die_oracle(rule):
    assert path_distribution(rule, 8).entries == labelled_path_distribution(rule, 8)


@pytest.mark.parametrize("rule", list(MutationRule))
def test_step_distributions_match_labelled_die_oracle(rule):
    configs, counts = labelled_step_distributions(rule, 30)
    assert config_distribution(rule, 30, max_depth=30).entries == configs
    assert imbalance_distribution(rule, 30, max_depth=30) == counts
