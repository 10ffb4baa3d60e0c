"""Monte Carlo behaviour: determinism, seed mixing, and statistical agreement.

Statistical assertions use 4-standard-deviation (or 99.99% quantile) bounds,
so each carries a false-failure chance of order 1e-4 under the fixed seeds
baked in here; the seeds make the suite deterministic in practice.
"""

import tracemalloc
from fractions import Fraction
from math import sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritydie import (
    MutationRule,
    absorption_frequencies,
    all_configs,
    batch,
    derive_seed,
    is_frozen,
    max_multinomial_deviation,
    path_distribution,
    roll_events,
    simulate_path,
    transitions,
)
from paritydie.montecarlo import SEQUENCE_TRACKING_CAP, _sampler_tables

from oracles import (
    path_chi_square, per_toss_absorption, per_toss_batch, per_toss_simulate_path, per_toss_walk,
)

COPY = MutationRule.PARITY_COPY
NONE = MutationRule.NO_MUTATION

# chi-square 99.99% quantiles by degrees of freedom
CHI2_9999 = {3: 21.107513466160444, 7: 29.87750390922517, 15: 44.26322494417528}


def test_derive_seed_is_stable_and_scattered():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    seeds = {derive_seed(m, i) for m in (0, 1, 2**64 - 1) for i in range(100)}
    assert len(seeds) == 300
    assert all(0 <= s < 2**64 for s in seeds)
    with pytest.raises(ValueError):
        derive_seed(0, -1)


def test_empty_simulation():
    run = simulate_path(NONE, 0, 1234)
    assert run.tosses == ()
    assert run.trajectory == ((0, 3, 0),)
    with pytest.raises(ValueError):
        simulate_path(NONE, -1, 0)


def test_simulation_is_deterministic():
    a = simulate_path(COPY, 50, 99)
    b = simulate_path(COPY, 50, 99)
    assert a == b
    assert simulate_path(COPY, 50, 100) != a


@pytest.mark.parametrize("rule", list(MutationRule))
def test_trajectory_follows_transition_relation(rule):
    run = simulate_path(rule, 40, 7)
    assert run.trajectory[0] == (0, 3, 0)
    for toss, before, after in zip(run.tosses, run.trajectory, run.trajectory[1:]):
        legal = {
            (r.outcome, r.state): r.probability for r in transitions(before, rule)
        }
        assert legal.get((toss, after), 0) > 0


def test_monopoly_locks_the_sequence():
    # find a path that freezes at the all-even monopoly, then check it stays even
    for seed in range(200):
        run = simulate_path(COPY, 60, seed)
        if (3, 0, 0) in run.trajectory:
            hit = run.trajectory.index((3, 0, 0))
            assert all(t.char == "E" for t in run.tosses[hit:])
            break
    else:
        pytest.fail("no run reached the all-even monopoly in 200 seeds")


def test_batch_matches_individual_runs():
    summary = batch(COPY, 5, 40, master_seed=11)
    sequences = [simulate_path(COPY, 5, derive_seed(11, i)).sequence() for i in range(40)]
    for sequence in set(sequences):
        assert summary.sequences[sequence] == sequences.count(sequence)
    assert summary.runs == 40
    assert sum(summary.even_counts.values()) == 40
    assert sum(summary.final_configs.values()) == 40


def test_batch_argument_validation():
    with pytest.raises(ValueError):
        batch(COPY, 3, 0, 0)
    with pytest.raises(ValueError):
        batch(COPY, -1, 10, 0)


def test_sequence_tracking_cap():
    assert batch(COPY, 3, 10, 0).sequences is not None
    assert sum(batch(COPY, SEQUENCE_TRACKING_CAP, 10, 0).sequences.values()) == 10
    assert batch(COPY, SEQUENCE_TRACKING_CAP + 1, 10, 0).sequences is None


def test_single_toss_frequency_is_balanced():
    runs = 20_000
    summary = batch(COPY, 1, runs, master_seed=3)
    frequency = summary.sequences.get("E", 0) / runs
    assert abs(frequency - 0.5) <= 4 * sqrt(0.25 / runs)


def test_standard_die_moments():
    runs = 4000
    summary = batch(NONE, 100, runs, master_seed=17)
    assert abs(summary.even_count_mean() - 50) <= 4 * 5 / sqrt(runs)
    assert abs(summary.even_count_sd() - 5) <= 0.5


def test_long_copy_runs_end_frozen():
    summary = batch(COPY, 60, 500, master_seed=23)
    assert summary.frozen_runs == 500
    assert set(map(tuple, summary.final_configs)) <= {
        (3, 0, 0),
        (2, 0, 1),
        (1, 0, 2),
        (0, 0, 3),
    }


@pytest.mark.parametrize("rule", list(MutationRule))
def test_depth_three_chi_square(rule):
    summary = batch(rule, 3, 100_000, master_seed=41)
    statistic, dof = path_chi_square(summary, path_distribution(rule, 3))
    assert statistic < CHI2_9999[dof]


def test_depth_four_deviations():
    summary = batch(COPY, 4, 100_000, master_seed=43)
    exact = path_distribution(COPY, 4)
    assert max_multinomial_deviation(summary, exact) <= 4
    statistic, dof = path_chi_square(summary, exact)
    assert statistic < CHI2_9999[dof]


def test_chi_square_input_validation():
    summary = batch(COPY, 3, 100, master_seed=1)
    with pytest.raises(ValueError):
        max_multinomial_deviation(summary, path_distribution(COPY, 4))
    with pytest.raises(ValueError):
        max_multinomial_deviation(summary, path_distribution(NONE, 3))
    untracked = batch(COPY, 13, 10, master_seed=1)
    with pytest.raises(ValueError):
        max_multinomial_deviation(untracked, path_distribution(COPY, 3))


def test_absorption_frequencies_small():
    sample = absorption_frequencies(COPY, 20_000, master_seed=29)
    assert sample.unabsorbed == 0
    assert sum(sample.counts.values()) == 20_000
    for state, exact in {
        (3, 0, 0): 0.125,
        (2, 0, 1): 0.375,
        (1, 0, 2): 0.375,
        (0, 0, 3): 0.125,
    }.items():
        se = sqrt(exact * (1 - exact) / 20_000)
        assert abs(sample.frequency_of(state) - exact) <= 4 * se
    assert abs(sample.mean_steps() - 5.5) < 0.2
    again = absorption_frequencies(COPY, 20_000, master_seed=29)
    assert again == sample


def test_absorption_frequencies_without_frozen_states():
    sample = absorption_frequencies(MutationRule.INCREMENT, 5, 0, max_steps=50)
    assert sample.unabsorbed == 5
    assert sample.counts == {}


@pytest.mark.parametrize("rule", list(MutationRule))
def test_absorption_frequencies_rejects_a_negative_step_limit(rule):
    with pytest.raises(ValueError, match="step limit"):
        absorption_frequencies(rule, 10, 0, max_steps=-3)
    assert absorption_frequencies(rule, 10, 0, max_steps=0).runs == 10


def test_no_mutation_absorbs_immediately():
    sample = absorption_frequencies(NONE, 10, 0)
    assert sample.counts == {(0, 3, 0): 10}
    assert sample.mean_steps() == 0


def test_absorption_seeds_no_generator_when_nothing_is_drawn(monkeypatch):
    def refuse(seed):
        raise AssertionError("a frozen start needs no draws")

    expected = per_toss_absorption(NONE, 10, 0, 10_000)
    monkeypatch.setattr("paritydie.montecarlo.random.Random", refuse)
    assert absorption_frequencies(NONE, 10, 0) == expected


def test_batch_summary_jsonable():
    payload = batch(COPY, 2, 50, master_seed=9).to_jsonable()
    assert payload["rule"] == "copy"
    assert sum(payload["even_counts"].values()) == 50
    assert sum(payload["sequences"].values()) == 50
    assert sum(payload["final_configs"].values()) == 50


@pytest.mark.parametrize("rule", list(MutationRule))
def test_sampler_thresholds_are_floats_of_exact_partial_sums(rule):
    tables = _sampler_tables(rule)
    for config in all_configs():
        ee, eo, oo = config
        running, expected = Fraction(0), []
        for probability in (Fraction(2 * ee, 6), Fraction(eo, 6), Fraction(eo, 6), Fraction(2 * oo, 6)):
            if probability:
                running += probability
                expected.append(float(running))
        thresholds, results, frozen = tables[config]
        assert thresholds == tuple(expected)
        assert results == tuple((r.outcome, r.state) for r in roll_events(config, rule))
        assert frozen == is_frozen(config, rule)


@pytest.mark.parametrize("rule", list(MutationRule))
def test_absorption_matches_first_frozen_step_of_simulated_paths(rule):
    # max_steps = 4 leaves some copy runs unabsorbed and freezes others on
    # exactly the last allowed draw, which counts as absorbed
    max_steps, seed, runs = 4, 7, 200
    counts: dict = {}
    unabsorbed = total_steps = last_draw = 0
    for i in range(runs):
        trajectory = simulate_path(rule, max_steps, derive_seed(seed, i)).trajectory
        frozen_at = [step for step, config in enumerate(trajectory) if is_frozen(config, rule)]
        if not frozen_at:
            unabsorbed += 1
            continue
        step = frozen_at[0]
        counts[trajectory[step]] = counts.get(trajectory[step], 0) + 1
        total_steps += step
        last_draw += step == max_steps
    sample = absorption_frequencies(rule, runs, seed, max_steps=max_steps)
    assert (sample.counts, sample.unabsorbed, sample.total_steps) == (counts, unabsorbed, total_steps)
    if rule is COPY:
        assert last_draw > 0 and unabsorbed > 0


# A frozen die's tosses are classified in C against one cut; the per-toss
# reference walk scans every toss's thresholds, so the two must agree exactly.


@pytest.mark.parametrize("rule", list(MutationRule))
@pytest.mark.parametrize("tosses", [0, 1, SEQUENCE_TRACKING_CAP, SEQUENCE_TRACKING_CAP + 1, 200])
def test_tally_walk_matches_the_per_toss_walk(rule, tosses):
    assert batch(rule, tosses, 30, 5) == per_toss_batch(rule, tosses, 30, 5)
    for seed in range(10):
        assert simulate_path(rule, tosses, seed) == per_toss_simulate_path(rule, tosses, seed)


@pytest.mark.parametrize("rule", list(MutationRule))
@pytest.mark.parametrize("max_steps", [0, 1, 5])
def test_absorption_matches_the_per_toss_walk(rule, max_steps):
    sample = absorption_frequencies(rule, 100, 3, max_steps)
    assert sample == per_toss_absorption(rule, 100, 3, max_steps)


def test_absorption_of_a_run_frozen_on_its_last_allowed_toss():
    tables = _sampler_tables(COPY)
    path, config = per_toss_walk(tables, derive_seed(0, 0), 100, True)
    steps = len(path)  # a copy die needs at least three tosses to freeze
    assert tables[config][2] and steps >= 3
    sample = absorption_frequencies(COPY, 1, 0, max_steps=steps)
    assert (sample.counts, sample.unabsorbed, sample.total_steps) == ({config: 1}, 0, steps)
    assert sample == per_toss_absorption(COPY, 1, 0, steps)
    short = absorption_frequencies(COPY, 1, 0, max_steps=steps - 1)
    assert (short.counts, short.unabsorbed) == ({}, 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(MutationRule)), st.integers(0, 2**64 - 1), st.integers(0, 300))
def test_tally_walk_sweep(rule, seed, tosses):
    assert simulate_path(rule, tosses, seed) == per_toss_simulate_path(rule, tosses, seed)
    assert batch(rule, tosses, 3, seed) == per_toss_batch(rule, tosses, 3, seed)


def test_batch_memory_is_bounded_once_frozen():
    batch(COPY, 1, 1, 0)  # fill the sampler tables first
    tracemalloc.start()
    try:
        summary = batch(COPY, 10**6, 1, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.frozen_runs == 1
    assert peak < 2**20
