"""Die configurations, mutation rules, and single-roll transition semantics.

The die is tracked as three opposite-face pairs classified by parity, so a
configuration is the count triple (ee, eo, oo) with ee + eo + oo = 3.  Face
identity never influences the dynamics, which collapses the 2**6 raw parity
assignments to 10 canonical states without changing any probability.

Every roll shows one of six equally likely faces, so ``event_table`` keeps,
per rule and configuration, integer face counts rather than probabilities;
the rest of the package computes with those counts and returns exact
rationals (``Fraction(count, 6**rolls)``) at its public boundary.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import NamedTuple

__all__ = [
    "DieConfig", "MutationRule", "Parity", "RollResult", "all_configs", "flip_parities",
    "initial_config", "is_frozen", "parity_probability", "roll_events", "transitions",
]

PAIR_COUNT = 3
FACE_COUNT = 6


class Parity(Enum):
    """Outcome alphabet of a toss: the rolled face is even or odd."""

    EVEN = "E"
    ODD = "O"

    def __init__(self, char: str) -> None:
        # a plain attribute: samplers read it once per toss
        self.char = char

    def flip(self) -> "Parity":
        return Parity.ODD if self is Parity.EVEN else Parity.EVEN

    @classmethod
    def from_char(cls, symbol: str) -> "Parity":
        try:
            return cls(symbol.upper())
        except ValueError:
            raise ValueError(f"not a parity symbol: {symbol!r}") from None


class MutationRule(Enum):
    """How a roll rewrites the hidden face opposite the rolled one.

    NO_MUTATION leaves the die alone (the standard die).  PARITY_COPY sets
    the hidden face's parity equal to the rolled face's, so every roll
    reinforces itself.  INCREMENT adds one dot to the hidden face, flipping
    its parity unconditionally.
    """

    NO_MUTATION = "none"
    PARITY_COPY = "copy"
    INCREMENT = "increment"

    @classmethod
    def from_name(cls, name: str) -> "MutationRule":
        try:
            return cls(name.lower())
        except ValueError:
            choices = ", ".join(rule.value for rule in cls)
            raise ValueError(f"unknown mutation rule {name!r} (choose from {choices})") from None


class DieConfig(NamedTuple):
    """Counts of EE, EO and OO opposite-face pairs; compares equal to a plain triple."""

    ee: int
    eo: int
    oo: int

    def validate(self) -> "DieConfig":
        if min(self) < 0 or sum(self) != PAIR_COUNT:
            raise ValueError(f"not a valid pair-count triple: {tuple(self)}")
        return self

    @property
    def even_faces(self) -> int:
        return 2 * self.ee + self.eo

    @property
    def odd_faces(self) -> int:
        return 2 * self.oo + self.eo

    def flipped(self) -> "DieConfig":
        """Swap even and odd everywhere; an involution."""
        return DieConfig(self.oo, self.eo, self.ee)


class RollResult(NamedTuple):
    outcome: Parity
    state: DieConfig
    probability: Fraction


def initial_config() -> DieConfig:
    """The standard die: every opposite-face pair holds one even and one odd face."""
    return DieConfig(0, PAIR_COUNT, 0)


def all_configs() -> list[DieConfig]:
    """All 10 canonical configurations, ordered lexicographically by (ee, eo, oo)."""
    return [
        DieConfig(ee, eo, PAIR_COUNT - ee - eo)
        for ee in range(PAIR_COUNT + 1)
        for eo in range(PAIR_COUNT + 1 - ee)
    ]


def parity_probability(config: DieConfig, parity: Parity) -> Fraction:
    """Chance that a single roll of ``config`` shows ``parity``."""
    config.validate()
    faces = config.even_faces if parity is Parity.EVEN else config.odd_faces
    return Fraction(faces, FACE_COUNT)


class RollEvent(NamedTuple):
    """One unmerged roll: outcome, next configuration, faces that produce it."""

    outcome: Parity
    state: DieConfig
    faces: int


# Events in their fixed order: EE-face roll, EO-pair even face, EO-pair odd
# face, OO-face roll.  Per rule, the change each makes to (ee, eo, oo): a
# rolled EO pair becomes EE or OO under copy and increment, and increment
# also turns a rolled EE or OO pair into EO.
_OUTCOMES = (Parity.EVEN, Parity.EVEN, Parity.ODD, Parity.ODD)
_CHANGES = {
    MutationRule.NO_MUTATION: ((0, 0, 0),) * 4,
    MutationRule.PARITY_COPY: ((0, 0, 0), (1, -1, 0), (0, -1, 1), (0, 0, 0)),
    MutationRule.INCREMENT: ((-1, 1, 0), (1, -1, 0), (0, -1, 1), (0, 1, -1)),
}


@lru_cache(maxsize=None)
def event_table(rule: MutationRule) -> dict[DieConfig, tuple[RollEvent, ...]]:
    """Every configuration's roll events in the fixed order, built once per rule.

    Events no face produces are dropped, the rest keep their relative order;
    the Monte Carlo sampler relies on it.  Face counts of one configuration
    sum to ``FACE_COUNT``, so a path of d rolls weighs an integer number of
    face sequences out of ``FACE_COUNT**d``.  The table is shared; callers
    must not modify it.
    """
    # Next states are the table's own key objects, so looking one up is an
    # identity hit; the sampler steps through the table once per toss.
    configs = {config: config for config in all_configs()}
    table = {}
    for config in configs:
        faces = (2 * config.ee, config.eo, config.eo, 2 * config.oo)
        table[config] = tuple(
            RollEvent(outcome, configs[tuple(map(add, config, change))], count)
            for outcome, change, count in zip(_OUTCOMES, _CHANGES[rule], faces)
            if count
        )
    return table


def roll_events(config: DieConfig, rule: MutationRule) -> list[RollResult]:
    """Unmerged single-roll events of ``config``, in ``event_table`` order."""
    return [
        RollResult(outcome, state, Fraction(faces, FACE_COUNT))
        for outcome, state, faces in event_table(rule)[config.validate()]
    ]


def transitions(config: DieConfig, rule: MutationRule) -> list[RollResult]:
    """Single-roll transitions with identical (outcome, state) events merged.

    Probabilities are positive rationals summing exactly to 1; order is
    deterministic (first occurrence in the fixed event order).
    """
    merged: dict[tuple[Parity, DieConfig], int] = {}
    for outcome, state, faces in event_table(rule)[config.validate()]:
        merged[outcome, state] = merged.get((outcome, state), 0) + faces
    return [
        RollResult(outcome, state, Fraction(faces, FACE_COUNT))
        for (outcome, state), faces in merged.items()
    ]


def is_frozen(config: DieConfig, rule: MutationRule) -> bool:
    """True when no roll can change the configuration."""
    return all(event.state == config for event in event_table(rule)[config.validate()])


def flip_parities(config: DieConfig) -> DieConfig:
    """Swap the roles of even and odd in a configuration."""
    return config.validate().flipped()
