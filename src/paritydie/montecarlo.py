"""Seeded Monte Carlo simulation of toss paths and empirical-vs-exact checks.

Determinism contract: run ``i`` of a batch draws its tosses from a fresh
Mersenne Twister generator seeded with ``derive_seed(master_seed, i)``, so
aggregate results depend only on (rule, tosses, runs, master_seed).

Sampling converts the face counts of ``core.event_table`` to cumulative
double thresholds in the fixed event order (EE roll, EO even face, EO odd face,
OO roll); one uniform draw per toss picks the first bracket containing it.
One stepping function, ``_walk``, does this for ``simulate_path``, ``batch``
and ``absorption_frequencies``, serially; once the configuration is frozen,
it classifies the rest of a run's draws in C against one cut.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat, starmap
from math import sqrt
from operator import ge, itemgetter

from .core import (
    FACE_COUNT,
    DieConfig,
    MutationRule,
    Parity,
    event_table,
    initial_config,
    is_frozen,
)
from .enumeration import PathDistribution

__all__ = [
    "AbsorptionSample", "BatchSummary", "SimulationRun", "absorption_frequencies",
    "batch", "derive_seed", "max_multinomial_deviation", "simulate_path",
]

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15

SEQUENCE_TRACKING_CAP = 12
_START = initial_config()
_OUTCOMES = (Parity.EVEN, Parity.ODD)  # indexed by a frozen tail's odd flag


def derive_seed(master_seed: int, index: int) -> int:
    """Per-run seed: SplitMix64 output function on the index-th stream state.

    Distinct (master_seed, index) pairs map to well-scattered 64-bit values;
    this mixing is part of the public batch contract.
    """
    if index < 0:
        raise ValueError(f"run index must be nonnegative, got {index}")
    z = (master_seed + (index + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@lru_cache(maxsize=None)
def _sampler_tables(
    rule: MutationRule,
) -> dict[DieConfig, tuple[tuple[float, ...], tuple[tuple[Parity, DieConfig], ...], bool]]:
    """Per-configuration cumulative thresholds, results and frozen flags.

    Thresholds are the correctly rounded floats of the exact partial sums
    (face counts over six), so the final threshold is exactly 1.0 and every
    uniform draw in [0, 1) lands in some bracket.
    """
    tables = {}
    for config, events in event_table(rule).items():
        tables[config] = (
            tuple(faces / FACE_COUNT for faces in accumulate(event.faces for event in events)),
            tuple((event.outcome, event.state) for event in events),
            is_frozen(config, rule),
        )
    return tables


@dataclass(frozen=True)
class SimulationRun:
    rule: MutationRule
    seed: int
    tosses: tuple[Parity, ...]
    trajectory: tuple[DieConfig, ...]

    def sequence(self) -> str:
        return "".join([parity.char for parity in self.tosses])


@dataclass(frozen=True)
class BatchSummary:
    """Order-insensitive tallies over independent simulation runs.

    ``sequences`` counts each toss string when ``tosses`` is at most
    ``SEQUENCE_TRACKING_CAP`` and is None above it; a string's frequency is
    ``sequences[s] / runs``.
    """

    rule: MutationRule
    tosses: int
    runs: int
    master_seed: int
    even_counts: dict[int, int]
    final_configs: dict[DieConfig, int]
    frozen_runs: int
    sequences: dict[str, int] | None

    def even_count_mean(self) -> float:
        return sum(k * c for k, c in self.even_counts.items()) / self.runs

    def even_count_sd(self) -> float:
        """Sample standard deviation (n - 1 denominator) of the even count."""
        mean = self.even_count_mean()
        total = sum(c * (k - mean) ** 2 for k, c in self.even_counts.items())
        return sqrt(total / (self.runs - 1)) if self.runs > 1 else 0.0

    def to_jsonable(self) -> dict:
        return {
            "rule": self.rule.value,
            "tosses": self.tosses,
            "runs": self.runs,
            "master_seed": self.master_seed,
            "even_counts": {str(k): c for k, c in sorted(self.even_counts.items())},
            "final_configs": {
                "".join(map(str, config)): count
                for config, count in sorted(self.final_configs.items())
            },
            "frozen_runs": self.frozen_runs,
            "sequences": (
                dict(sorted(self.sequences.items()))
                if self.sequences is not None
                else None
            ),
        }


def _walk(tables, seed, limit, until_frozen=False):
    """Step one run of up to ``limit`` tosses from a generator seeded with ``seed``.

    Until the configuration freezes, each toss takes one uniform draw and scans
    the current thresholds for its bracket.  Returns the (outcome, next config)
    pair of each such toss, the final configuration, and the frozen tail: one
    lazy bool per toss left, True when odd, or ``()``.  Even events come first,
    so a frozen draw is even exactly when it lies below the last even threshold,
    the cut.  ``until_frozen`` stops at the freeze instead, before drawing.
    """
    uniform = random.Random(seed).random
    config = _START
    path = []
    step = path.append
    for t in range(limit):
        thresholds, results, frozen = tables[config]
        if frozen:
            if until_frozen:
                break
            cut = config.even_faces / FACE_COUNT
            return path, config, map(ge, starmap(uniform, repeat((), limit - t)), repeat(cut))
        draw = uniform()
        k = 0
        while draw >= thresholds[k]:
            k += 1
        result = results[k]
        step(result)
        config = result[1]
    return path, config, ()


def simulate_path(rule: MutationRule, tosses: int, seed: int) -> SimulationRun:
    """Sample a toss path; deterministic given (rule, tosses, seed)."""
    if tosses < 0:
        raise ValueError(f"toss count must be nonnegative, got {tosses}")
    path, config, tail = _walk(_sampler_tables(rule), seed, tosses)
    return SimulationRun(
        rule=rule,
        seed=seed,
        tosses=(*map(itemgetter(0), path), *map(_OUTCOMES.__getitem__, tail)),
        trajectory=(_START, *map(itemgetter(1), path), *repeat(config, tosses - len(path))),
    )


def batch(
    rule: MutationRule,
    tosses: int,
    runs: int,
    master_seed: int,
) -> BatchSummary:
    """Aggregate ``runs`` independent simulation runs, one after another.

    Whole toss strings are counted if and only if ``tosses`` is at most
    ``SEQUENCE_TRACKING_CAP``; above it a frozen tail is summed, not kept.
    The summary depends only on (rule, tosses, runs, master_seed).
    """
    if runs < 1:
        raise ValueError(f"run count must be at least 1, got {runs}")
    if tosses < 0:
        raise ValueError(f"toss count must be nonnegative, got {tosses}")
    track_sequences = tosses <= SEQUENCE_TRACKING_CAP
    tables = _sampler_tables(rule)
    even_counts: Counter = Counter()
    final_configs: Counter = Counter()
    sequences: Counter = Counter()
    frozen_runs = 0
    for i in range(runs):
        path, config, tail = _walk(tables, derive_seed(master_seed, i), tosses)
        outcomes = [outcome for outcome, _ in path]
        if track_sequences:
            outcomes += map(_OUTCOMES.__getitem__, tail)
            sequences["".join([outcome.char for outcome in outcomes])] += 1
        # the tosses not in outcomes are the tail's; a consumed tail sums to 0
        even_counts[outcomes.count(Parity.EVEN) + tosses - len(outcomes) - sum(tail)] += 1
        final_configs[config] += 1
        frozen_runs += tables[config][2]
    return BatchSummary(
        rule, tosses, runs, master_seed, dict(even_counts), dict(final_configs), frozen_runs,
        dict(sequences) if track_sequences else None,
    )


@dataclass(frozen=True)
class AbsorptionSample:
    """Monte Carlo tallies of which frozen configuration each run reached."""

    rule: MutationRule
    runs: int
    master_seed: int
    counts: dict[DieConfig, int]
    unabsorbed: int
    total_steps: int

    def frequency_of(self, state: DieConfig) -> float:
        return self.counts.get(DieConfig(*state), 0) / self.runs

    def mean_steps(self) -> float:
        absorbed = self.runs - self.unabsorbed
        return self.total_steps / absorbed if absorbed else float("nan")


def absorption_frequencies(
    rule: MutationRule, runs: int, master_seed: int, max_steps: int = 10_000
) -> AbsorptionSample:
    """Simulate each run until the configuration freezes, tallying endpoints.

    A run that freezes within ``max_steps`` tosses, on the last one included,
    counts as absorbed; runs still unfrozen after them count as unabsorbed
    (always the case for rules with no frozen configuration).
    """
    if runs < 1:
        raise ValueError(f"run count must be at least 1, got {runs}")
    if max_steps < 0:
        raise ValueError(f"step limit must be nonnegative, got {max_steps}")
    tables = _sampler_tables(rule)
    if tables[_START][2]:  # every run is absorbed at step 0 and draws nothing
        return AbsorptionSample(rule, runs, master_seed, {_START: runs}, 0, 0)
    counts: Counter = Counter()
    unabsorbed = 0
    total_steps = 0
    for i in range(runs):
        path, config, _ = _walk(tables, derive_seed(master_seed, i), max_steps, True)
        if tables[config][2]:
            counts[config] += 1
            total_steps += len(path)
        else:
            unabsorbed += 1
    return AbsorptionSample(rule, runs, master_seed, dict(counts), unabsorbed, total_steps)


def max_multinomial_deviation(summary: BatchSummary, exact: PathDistribution) -> float:
    """Largest per-sequence |observed - expected| in binomial standard deviations."""
    observed = _observed_sequences(summary, exact)
    worst = 0.0
    for sequence, probability in exact.entries.items():
        p = float(probability)
        spread = sqrt(summary.runs * p * (1 - p))
        deviation = abs(observed.get(sequence, 0) - summary.runs * p) / spread
        worst = max(worst, deviation)
    return worst


def _observed_sequences(summary: BatchSummary, exact: PathDistribution) -> dict[str, int]:
    if summary.sequences is None:
        raise ValueError("summary did not track sequences")
    if summary.tosses != exact.depth:
        raise ValueError(
            f"summary tracks {summary.tosses} tosses but the distribution depth is {exact.depth}"
        )
    if summary.rule is not exact.rule:
        raise ValueError("summary and distribution use different rules")
    return summary.sequences
