"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criteria 4 and 8 are statistical at fixed seeds (3-standard-error and
4-standard-deviation bounds), so they are deterministic here; re-seeding
carries a false-failure chance of order 1e-3.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from math import sqrt

from paritydie import (
    DieConfig,
    MutationRule,
    Parity,
    absorption,
    absorption_frequencies,
    batch,
    binomial_moments,
    build_chain,
    classify,
    config_distribution,
    is_ergodic,
    is_frozen,
    max_multinomial_deviation,
    next_even_probability,
    normal_cdf,
    parity_probability,
    path_distribution,
    run_probability,
    scenario,
    sequential_report,
    fairness_report,
    transitions,
    z_score,
)
from paritydie.cli import run

from oracles import brute_force_path_distribution, transitive_closure

COPY = MutationRule.PARITY_COPY
INCREMENT = MutationRule.INCREMENT
NONE = MutationRule.NO_MUTATION


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name}")


def test_criterion_1_table_reproduction(capsys):
    start = time.perf_counter()
    code = run(["enumerate", "--rule", "copy", "--depth", "3"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)

    run(["table", "--rule", "copy"])
    table = json.loads(capsys.readouterr().out)

    with criterion("criterion 1: three-roll table reproduction and audit"):
        assert code == 0
        entries = {
            e["sequence"]: Fraction(e["numerator"], e["denominator"])
            for e in payload["entries"]
        }
        for sequence in ("EOE", "EOO", "OEE", "OEO"):
            assert entries[sequence] == Fraction(1, 12)
        standard = path_distribution(NONE, 3).entries
        assert all(p == Fraction(1, 8) for p in standard.values())
        oracle = brute_force_path_distribution(COPY, 3)
        assert entries["EEE"] == oracle["EEE"]
        assert entries["EEO"] == oracle["EEO"]
        # the audit flags the rows whose published values differ
        assert "EEE" in table["mismatches"] and "EEO" in table["mismatches"]
        rows = {r["sequence"]: r for r in table["rows"]}
        assert rows["EEE"]["published"] == {
            "numerator": 7,
            "denominator": 27,
            "decimal": 7 / 27,
        }
        assert rows["EEO"]["published"]["numerator"] == 2
        assert elapsed < 1.0


def test_criterion_2_three_outcome_state_analysis():
    with criterion("criterion 2: three-outcome analysis of the (2,1,0) state"):
        results = {
            (r.outcome, tuple(r.state)): r.probability
            for r in transitions(DieConfig(2, 1, 0), COPY)
        }
        assert results == {
            (Parity.EVEN, (2, 1, 0)): Fraction(2, 3),
            (Parity.ODD, (2, 0, 1)): Fraction(1, 6),
            (Parity.EVEN, (3, 0, 0)): Fraction(1, 6),
        }
        assert parity_probability(DieConfig(2, 0, 1), Parity.EVEN) == Fraction(2, 3)
        for state in ((3, 0, 0), (2, 0, 1), (1, 0, 2), (0, 0, 3)):
            assert is_frozen(DieConfig(*state), COPY)


def test_criterion_3_ergodicity_verdicts():
    start = time.perf_counter()
    with criterion("criterion 3: ergodicity verdicts with reachability check"):
        assert is_ergodic(build_chain(NONE)).ergodic
        assert is_ergodic(build_chain(INCREMENT)).ergodic
        verdict = is_ergodic(build_chain(COPY))
        assert not verdict.ergodic

        chain = build_chain(COPY)
        reach = transitive_closure(chain.matrix)
        u, v = (chain.index(state) for state in verdict.witness)
        assert not reach[u][v] and not reach[v][u]

        for rule in (NONE, INCREMENT):
            matrix = build_chain(rule).matrix
            closure = transitive_closure(matrix)
            assert all(all(row) for row in closure)
        assert not all(all(row) for row in reach)
        assert time.perf_counter() - start < 1.0


def test_criterion_4_absorption_exact_vs_monte_carlo():
    start = time.perf_counter()
    with criterion("criterion 4: absorption probabilities, exact vs Monte Carlo"):
        report = absorption(build_chain(COPY))
        total = sum((e.probability for e in report.entries), Fraction(0))
        assert total == 1
        assert report.probability_of(DieConfig(3, 0, 0)) == report.probability_of(
            DieConfig(0, 0, 3)
        )
        assert report.probability_of(DieConfig(2, 0, 1)) == report.probability_of(
            DieConfig(1, 0, 2)
        )

        runs = 1_000_000
        sample = absorption_frequencies(COPY, runs, master_seed=20260810)
        assert sample.unabsorbed == 0
        for entry in report.entries:
            exact = float(entry.probability)
            standard_error = sqrt(exact * (1 - exact) / runs)
            observed = sample.frequency_of(entry.states[0])
            assert abs(observed - exact) <= 3 * standard_error
        assert time.perf_counter() - start < 30.0


def test_criterion_5_statistics_constants():
    with criterion("criterion 5: headline statistics constants"):
        assert binomial_moments(100, Fraction(1, 2)) == (50.0, 5.0)
        assert z_score(58, 100, Fraction(1, 2)) == 1.6
        assert abs(normal_cdf(1.6) - 0.9452) < 5e-5
        assert run_probability(10, Fraction(1, 2)) == Fraction(1, 1024)
        assert run_probability(10, Fraction(1, 2)) < Fraction(1, 1000)
        assert run_probability(7, Fraction(1, 2)) == Fraction(1, 128)


def test_criterion_6_scenario_divergence():
    start = time.perf_counter()
    with criterion("criterion 6: same totals, diverging sequential verdicts"):
        finals = [fairness_report(scenario(i)) for i in (1, 2, 3)]
        assert len({(r.n, r.even_count, r.z) for r in finals}) == 1

        sequentials = [sequential_report(scenario(i)) for i in (1, 2, 3)]
        firsts = [s.first_rejection for s in sequentials]
        assert len(set(firsts)) > 1

        third = sequentials[2]
        assert third.first_rejection == 94
        record = next(r for r in third.records if r.t == 94)
        assert record.run_flag and not record.z_flag
        assert all(not r.flagged for r in third.records if r.t < 94)
        event = third.run_events[0]
        assert (event.start, event.parity) == (85, Parity.EVEN)
        assert event.start + third.run_threshold - 1 == 94
        assert time.perf_counter() - start < 1.0


def test_criterion_7_ensemble_vs_path_dichotomy():
    with criterion("criterion 7: ensemble average 1/2, path shares locked"):
        for steps in range(1, 7):
            distribution = config_distribution(COPY, steps)
            assert next_even_probability(distribution) == Fraction(1, 2)
        chain = build_chain(COPY)
        classification = classify(chain)
        shares = {
            parity_probability(chain.states[i], Parity.EVEN)
            for i in classification.absorbing
        }
        assert shares == {Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)}
        assert all(share != Fraction(1, 2) for share in shares)


def test_criterion_8_monte_carlo_consistency():
    start = time.perf_counter()
    with criterion("criterion 8: Monte Carlo matches exact enumeration"):
        runs = 100_000
        summary = batch(COPY, 3, runs, master_seed=1729)
        exact = path_distribution(COPY, 3)
        assert max_multinomial_deviation(summary, exact) <= 4
        again = batch(COPY, 3, runs, master_seed=1729)
        assert again == summary
        assert time.perf_counter() - start < 10.0
