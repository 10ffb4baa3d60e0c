"""Exact analysis and seeded simulation of a self-reinforcing parity die.

A standard six-sided die keeps an odd and an even face on each of its three
axes.  If every roll rewrites the hidden face opposite the rolled one, the
die's parity make-up becomes a Markov chain with absorbing states, and the
long-run behaviour of a single history parts ways with the across-histories
average.  This package enumerates that process exactly, classifies its
chain, simulates it reproducibly, and carries the fairness-testing
arithmetic (binomial moments, z-scores, run probabilities, sequential
testing) used to reason about observed toss streams.
"""

from .chain import (
    AbsorptionEntry,
    AbsorptionReport,
    ChainClassification,
    ChainModel,
    ErgodicityVerdict,
    absorption,
    build_chain,
    chain_report,
    classify,
    is_ergodic,
    long_run_share,
)
from .core import (
    DieConfig,
    MutationRule,
    Parity,
    RollResult,
    all_configs,
    flip_parities,
    initial_config,
    is_frozen,
    parity_probability,
    roll_events,
    transitions,
)
from .enumeration import (
    MAX_DEPTH,
    ConfigDistribution,
    DepthRangeError,
    PathDistribution,
    config_distribution,
    imbalance_distribution,
    next_even_probability,
    path_distribution,
)
from .montecarlo import (
    AbsorptionSample,
    BatchSummary,
    SimulationRun,
    absorption_frequencies,
    batch,
    derive_seed,
    max_multinomial_deviation,
    path_chi_square,
    simulate_path,
)
from .stats import (
    PrefixRecord,
    RunEvent,
    RunThresholdError,
    SequentialReport,
    TestReport,
    TossSequence,
    binomial_moments,
    default_run_threshold,
    exact_binomial_tail,
    normal_cdf,
    normal_quantile,
    proportion_after,
    run_probability,
    scenario,
    sequential_report,
    fairness_report,
    z_score,
)

__version__ = "0.1.0"

__all__ = [
    "AbsorptionEntry",
    "AbsorptionReport",
    "AbsorptionSample",
    "BatchSummary",
    "ChainClassification",
    "ChainModel",
    "ConfigDistribution",
    "DepthRangeError",
    "DieConfig",
    "ErgodicityVerdict",
    "MAX_DEPTH",
    "MutationRule",
    "Parity",
    "PathDistribution",
    "PrefixRecord",
    "RollResult",
    "RunEvent",
    "RunThresholdError",
    "SequentialReport",
    "SimulationRun",
    "TestReport",
    "TossSequence",
    "absorption",
    "absorption_frequencies",
    "all_configs",
    "batch",
    "binomial_moments",
    "build_chain",
    "chain_report",
    "classify",
    "config_distribution",
    "default_run_threshold",
    "derive_seed",
    "exact_binomial_tail",
    "flip_parities",
    "imbalance_distribution",
    "initial_config",
    "is_ergodic",
    "is_frozen",
    "long_run_share",
    "max_multinomial_deviation",
    "next_even_probability",
    "normal_cdf",
    "normal_quantile",
    "parity_probability",
    "path_chi_square",
    "path_distribution",
    "proportion_after",
    "roll_events",
    "run_probability",
    "scenario",
    "sequential_report",
    "simulate_path",
    "fairness_report",
    "transitions",
    "z_score",
]
