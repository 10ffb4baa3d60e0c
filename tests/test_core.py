from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import paritydie
from paritydie import (
    DieConfig,
    MutationRule,
    Parity,
    all_configs,
    flip_parities,
    initial_config,
    is_frozen,
    parity_probability,
    roll_events,
    transitions,
)

COPY = MutationRule.PARITY_COPY
INCREMENT = MutationRule.INCREMENT
NONE = MutationRule.NO_MUTATION

configs = st.sampled_from(all_configs())
rules = st.sampled_from(list(MutationRule))


def as_set(results):
    return {(r.outcome, tuple(r.state), r.probability) for r in results}


def test_initial_config():
    assert initial_config() == (0, 3, 0)
    assert initial_config().even_faces == 3
    assert parity_probability(initial_config(), Parity.EVEN) == Fraction(1, 2)


def test_parity_flip_involution():
    assert flip_parities(DieConfig(2, 0, 1)) == (1, 0, 2)
    assert flip_parities(DieConfig(0, 3, 0)) == (0, 3, 0)
    assert flip_parities(flip_parities(DieConfig(2, 1, 0))) == (2, 1, 0)


@pytest.mark.parametrize(
    "config,parity,expected",
    [
        ((2, 0, 1), Parity.EVEN, Fraction(2, 3)),
        ((0, 3, 0), Parity.EVEN, Fraction(1, 2)),
        ((2, 1, 0), Parity.EVEN, Fraction(5, 6)),
        ((2, 1, 0), Parity.ODD, Fraction(1, 6)),
    ],
)
def test_parity_probability(config, parity, expected):
    assert parity_probability(DieConfig(*config), parity) == expected


def test_transitions_after_two_even_tosses():
    results = transitions(DieConfig(2, 1, 0), COPY)
    assert as_set(results) == {
        (Parity.EVEN, (2, 1, 0), Fraction(2, 3)),
        (Parity.ODD, (2, 0, 1), Fraction(1, 6)),
        (Parity.EVEN, (3, 0, 0), Fraction(1, 6)),
    }


def test_transitions_standard_die():
    results = transitions(initial_config(), NONE)
    assert as_set(results) == {
        (Parity.EVEN, (0, 3, 0), Fraction(1, 2)),
        (Parity.ODD, (0, 3, 0), Fraction(1, 2)),
    }


def test_transitions_increment_from_monopoly():
    results = transitions(DieConfig(3, 0, 0), INCREMENT)
    assert as_set(results) == {(Parity.EVEN, (2, 1, 0), Fraction(1))}


def test_frozen_examples():
    assert is_frozen(DieConfig(2, 0, 1), COPY)
    assert is_frozen(DieConfig(0, 3, 0), NONE)
    assert not is_frozen(DieConfig(2, 1, 0), INCREMENT)


def test_frozen_set_under_copy():
    frozen = {tuple(c) for c in all_configs() if is_frozen(c, COPY)}
    assert frozen == {(3, 0, 0), (2, 0, 1), (1, 0, 2), (0, 0, 3)}


def test_increment_never_freezes():
    assert not any(is_frozen(c, INCREMENT) for c in all_configs())


def test_all_configs():
    assert len(all_configs()) == 10
    assert all(sum(c) == 3 for c in all_configs())
    assert len(set(all_configs())) == 10


def test_validate_rejects_bad_triples():
    with pytest.raises(ValueError):
        DieConfig(1, 1, 0).validate()
    with pytest.raises(ValueError):
        DieConfig(-1, 3, 1).validate()
    with pytest.raises(ValueError):
        parity_probability(DieConfig(4, 0, 0), Parity.EVEN)


@given(configs, rules)
def test_transition_probabilities_sum_to_one(config, rule):
    results = transitions(config, rule)
    assert sum((r.probability for r in results), Fraction(0)) == 1
    assert all(r.probability > 0 for r in results)
    assert all(sum(r.state) == 3 and min(r.state) >= 0 for r in results)


@given(configs)
def test_parity_probabilities_sum_to_one(config):
    even = parity_probability(config, Parity.EVEN)
    odd = parity_probability(config, Parity.ODD)
    assert even + odd == 1


@given(configs, rules)
def test_parity_flip_equivariance(config, rule):
    flipped = {
        (r.outcome.flip(), tuple(r.state.flipped()), r.probability)
        for r in transitions(config, rule)
    }
    assert flipped == as_set(transitions(config.flipped(), rule))


@given(configs, rules)
def test_even_face_count_changes(config, rule):
    for outcome, state, _ in roll_events(config, rule):
        delta = state.even_faces - config.even_faces
        if rule is NONE:
            assert delta == 0
        elif rule is COPY:
            assert delta in ((0, 1) if outcome is Parity.EVEN else (0, -1))
        else:
            assert delta in ((-1, 1) if outcome is Parity.EVEN else (1, -1))


@given(configs, rules)
def test_merging_preserves_event_mass(config, rule):
    merged = transitions(config, rule)
    raw = roll_events(config, rule)
    assert sum((r.probability for r in merged), Fraction(0)) == sum(
        (r.probability for r in raw), Fraction(0)
    )
    assert len(merged) <= len(raw)


def test_parity_helpers():
    assert Parity.EVEN.flip() is Parity.ODD
    assert Parity.ODD.flip() is Parity.EVEN
    assert Parity.from_char("e") is Parity.EVEN
    with pytest.raises(ValueError):
        Parity.from_char("x")
    assert MutationRule.from_name("COPY") is COPY
    with pytest.raises(ValueError):
        MutationRule.from_name("bogus")


# The package's public names before each module listed its own.
PACKAGE_NAMES = {
    "AbsorptionEntry", "AbsorptionReport", "AbsorptionSample", "BatchSummary",
    "ChainClassification", "ChainModel", "ConfigDistribution", "DepthRangeError", "DieConfig",
    "ErgodicityVerdict", "MAX_DEPTH", "MutationRule", "Parity", "PathDistribution",
    "PrefixRecord", "RollResult", "RunEvent", "RunThresholdError", "SequentialReport",
    "SimulationRun", "TestReport", "TossSequence", "absorption", "absorption_frequencies",
    "all_configs", "batch", "binomial_moments", "build_chain", "chain_report", "classify",
    "config_distribution", "default_run_threshold", "derive_seed", "exact_binomial_tail",
    "fairness_report", "flip_parities", "imbalance_distribution", "initial_config",
    "is_ergodic", "is_frozen", "long_run_share", "max_multinomial_deviation",
    "next_even_probability", "normal_cdf", "normal_quantile", "parity_probability",
    "path_chi_square", "path_distribution", "proportion_after", "roll_events",
    "run_probability", "scenario", "sequential_report", "simulate_path", "transitions",
    "z_score",
}


def test_package_reexports_each_module_name_once():
    assert len(paritydie.__all__) == len(PACKAGE_NAMES)
    assert set(paritydie.__all__) == PACKAGE_NAMES
    modules = [
        paritydie.chain, paritydie.core, paritydie.enumeration, paritydie.montecarlo, paritydie.stats
    ]
    for module in modules:
        for name in module.__all__:
            assert getattr(paritydie, name) is getattr(module, name)
