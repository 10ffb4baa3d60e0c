"""Exact enumeration of toss-path and configuration distributions.

Everything here expands the per-rule event table of ``core`` from the
initial configuration.  Weights inside the loops are integer face-sequence
counts out of ``6**rolls``; results are exact ``Fraction``s built from those
counts on the way out.  Path enumeration is exponential in depth (every
parity sequence is a key), so it is guarded by ``max_depth``; the
configuration and even-count queries merge states per step and stay
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, mul

from .core import (
    FACE_COUNT,
    DieConfig,
    MutationRule,
    Parity,
    event_table,
    initial_config,
    parity_probability,
)
from .serialize import fraction_fields

MAX_DEPTH = 20


class DepthRangeError(ValueError):
    """Requested depth falls outside the supported range."""


def _check_depth(depth: int, max_depth: int, minimum: int) -> None:
    if not minimum <= depth <= max_depth:
        raise DepthRangeError(
            f"depth must be between {minimum} and {max_depth}, got {depth}"
        )


@dataclass(frozen=True)
class PathDistribution:
    """Exact probability of every parity sequence of a fixed length.

    Keys are strings over 'E'/'O' of length ``depth``; values are positive
    rationals summing exactly to 1.
    """

    rule: MutationRule
    depth: int
    entries: dict[str, Fraction]

    def total(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def to_jsonable(self) -> dict:
        return {
            "rule": self.rule.value,
            "depth": self.depth,
            "entries": [
                {"sequence": sequence, **fraction_fields(probability)}
                for sequence, probability in sorted(self.entries.items())
            ],
        }


@dataclass(frozen=True)
class ConfigDistribution:
    """Exact distribution over canonical configurations after ``step`` rolls."""

    rule: MutationRule
    step: int
    entries: dict[DieConfig, Fraction]

    def total(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))


def path_distribution(
    rule: MutationRule, depth: int, max_depth: int = MAX_DEPTH
) -> PathDistribution:
    """Exact distribution over parity sequences of length ``depth``.

    Expands the prefixes level by level from the initial configuration,
    merging identical die states under each prefix; weights are face-sequence
    counts out of ``6**depth``.  The last level is summed straight into the
    result.  Cost and result size grow as 2**depth, hence the ``max_depth``
    guard; pass a larger ``max_depth`` explicitly to go deeper.
    """
    _check_depth(depth, max_depth, minimum=1)
    table = event_table(rule)
    frontier: list[tuple[str, dict[DieConfig, int]]] = [("", {initial_config(): 1})]
    for _ in range(depth - 1):
        grown = []
        for prefix, weights in frontier:
            even: dict[DieConfig, int] = {}
            odd: dict[DieConfig, int] = {}
            for config, weight in weights.items():
                for outcome, state, faces in table[config]:
                    branch = even if outcome is Parity.EVEN else odd
                    branch[state] = branch.get(state, 0) + weight * faces
            if even:
                grown.append((prefix + "E", even))
            if odd:
                grown.append((prefix + "O", odd))
        frontier = grown
    total = FACE_COUNT**depth
    entries: dict[str, Fraction] = {}
    for prefix, weights in frontier:
        even = sum(weight * config.even_faces for config, weight in weights.items())
        odd = sum(weight * config.odd_faces for config, weight in weights.items())
        for char, count in (("E", even), ("O", odd)):
            if count:
                entries[prefix + char] = Fraction(count, total)
    return PathDistribution(rule=rule, depth=depth, entries=entries)


def config_distribution(
    rule: MutationRule, steps: int, max_depth: int = MAX_DEPTH
) -> ConfigDistribution:
    """Exact distribution over configurations after ``steps`` rolls."""
    _check_depth(steps, max_depth, minimum=0)
    table = event_table(rule)
    weights: dict[DieConfig, int] = {initial_config(): 1}
    for _ in range(steps):
        merged: dict[DieConfig, int] = {}
        for config, weight in weights.items():
            for _, state, faces in table[config]:
                merged[state] = merged.get(state, 0) + weight * faces
        weights = merged
    total = FACE_COUNT**steps
    entries = {config: Fraction(weight, total) for config, weight in weights.items()}
    return ConfigDistribution(rule=rule, step=steps, entries=entries)


def imbalance_distribution(
    rule: MutationRule, steps: int, max_depth: int = MAX_DEPTH
) -> dict[int, Fraction]:
    """Exact distribution of the even-toss count among the first ``steps`` tosses.

    Merges on (even count, configuration) per step, so the cost stays
    polynomial in ``steps`` even though the full path distribution does not.
    """
    _check_depth(steps, max_depth, minimum=1)
    table = event_table(rule)
    # per configuration, face-sequence counts indexed by the even count
    weights: dict[DieConfig, list[int]] = {initial_config(): [1]}
    for step in range(steps):
        merged: dict[DieConfig, list[int]] = {}
        for config, counts in weights.items():
            for outcome, state, faces in table[config]:
                target = merged.get(state)
                if target is None:
                    target = merged[state] = [0] * (step + 2)
                lo = outcome is Parity.EVEN
                hi = lo + step + 1
                target[lo:hi] = map(add, target[lo:hi], map(mul, counts, repeat(faces)))
        weights = merged
    total = FACE_COUNT**steps
    marginal = map(sum, zip(*weights.values()))
    return {evens: Fraction(weight, total) for evens, weight in enumerate(marginal) if weight}


def next_even_probability(distribution: ConfigDistribution) -> Fraction:
    """Chance that the next toss is even, given a configuration distribution."""
    return sum(
        (
            weight * parity_probability(config, Parity.EVEN)
            for config, weight in distribution.entries.items()
        ),
        Fraction(0),
    )
