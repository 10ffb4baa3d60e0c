"""Markov chain over die configurations: construction, classification, absorption.

States are the canonical configurations reachable from the initial die; the
transition matrix sums single-roll probabilities over outcomes.  The chain
has at most ten states, so everything is computed exactly: communicating
classes are strongly connected components of the positive-probability graph,
a class is closed (equivalently, recurrent in a finite chain) when no edge
leaves it, and the linear systems for absorption probabilities, expected
absorption times and stationary distributions are solved by fraction-free
Gauss-Jordan elimination of integer matrices (transition probabilities
times their common denominator, six for a die: face counts).  Every result
is an exact rational.

Ergodicity is taken to mean irreducibility of the reachable chain: a single
closed communicating class, i.e. every configuration can reach every other
by positive-probability rolls.  Periodicity is reported alongside but does
not affect the verdict.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .core import (
    FACE_COUNT,
    DieConfig,
    MutationRule,
    Parity,
    event_table,
    initial_config,
    parity_probability,
)
from .serialize import fraction_fields, fraction_pair

__all__ = [
    "AbsorptionEntry", "AbsorptionReport", "ChainClassification", "ChainModel",
    "ErgodicityVerdict", "absorption", "build_chain", "chain_report", "classify", "is_ergodic",
]


@dataclass(frozen=True)
class ChainModel:
    """Reachable states and the exact row-stochastic transition matrix."""

    rule: MutationRule
    states: tuple[DieConfig, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    def index(self, state: DieConfig) -> int:
        return self.states.index(state)

    def to_jsonable(self) -> dict:
        return {
            "rule": self.rule.value,
            "states": [list(state) for state in self.states],
            "matrix": [[fraction_pair(p) for p in row] for row in self.matrix],
        }


@dataclass(frozen=True)
class ChainClassification:
    """Communicating classes with closure, recurrence and absorption labels.

    ``classes`` partitions the state indices; ``closed`` is per class;
    ``recurrent`` and ``class_of`` are per state; ``absorbing`` lists the
    indices of closed singletons.
    """

    classes: tuple[tuple[int, ...], ...]
    closed: tuple[bool, ...]
    recurrent: tuple[bool, ...]
    class_of: tuple[int, ...]
    absorbing: tuple[int, ...]


@dataclass(frozen=True)
class ErgodicityVerdict:
    ergodic: bool
    aperiodic: bool
    witness: tuple[DieConfig, DieConfig] | None
    explanation: str


@dataclass(frozen=True)
class AbsorptionEntry:
    """One closed class: entry probability, conditional entry time, even share.

    ``even_share`` is the long-run share of even outcomes; an irreducible chain has one entry.
    """

    states: tuple[DieConfig, ...]
    probability: Fraction
    expected_steps: Fraction | None
    even_share: Fraction


@dataclass(frozen=True)
class AbsorptionReport:
    rule: MutationRule
    initial: DieConfig
    entries: tuple[AbsorptionEntry, ...]
    expected_steps: Fraction

    def probability_of(self, state: DieConfig) -> Fraction:
        """Entry probability of the closed class containing ``state``."""
        for entry in self.entries:
            if state in entry.states:
                return entry.probability
        raise KeyError(f"{tuple(state)} is not in any closed class")


def build_chain(rule: MutationRule) -> ChainModel:
    """Breadth-first closure of the event table from the initial die."""
    table = event_table(rule)
    states: list[DieConfig] = [initial_config()]
    position: dict[DieConfig, int] = {states[0]: 0}
    for state in states:
        for _, successor, _ in table[state]:
            if successor not in position:
                position[successor] = len(states)
                states.append(successor)
    rows = []
    for state in states:
        faces = [0] * len(states)
        for _, successor, count in table[state]:
            faces[position[successor]] += count
        rows.append(tuple(Fraction(count, FACE_COUNT) for count in faces))
    return ChainModel(rule=rule, states=tuple(states), matrix=tuple(rows))


def _successors(chain: ChainModel) -> list[list[int]]:
    return [
        [j for j, probability in enumerate(row) if probability]
        for row in chain.matrix
    ]


def classify(chain: ChainModel) -> ChainClassification:
    """Partition the states into communicating classes and label each.

    Classes are the sets of mutually reachable states (one search per state
    suffices for ten states); a class is closed when no positive-probability
    transition leaves it, recurrent exactly when closed, and absorbing when
    it is a closed singleton.
    """
    successors = _successors(chain)
    n = len(chain.states)
    reach = []
    for v in range(n):
        seen, stack = {v}, [v]
        while stack:
            for w in successors[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(seen)
    components = sorted(
        {tuple(w for w in sorted(reach[v]) if v in reach[w]) for v in range(n)}, key=min
    )

    class_of = [0] * n
    for c, members in enumerate(components):
        for v in members:
            class_of[v] = c
    closed = tuple(
        all(class_of[w] == c for v in members for w in successors[v])
        for c, members in enumerate(components)
    )
    recurrent = tuple(closed[class_of[v]] for v in range(n))
    absorbing = tuple(
        members[0]
        for c, members in enumerate(components)
        if closed[c] and len(members) == 1
    )
    return ChainClassification(
        classes=tuple(components),
        closed=closed,
        recurrent=recurrent,
        class_of=tuple(class_of),
        absorbing=absorbing,
    )


def _class_period(chain: ChainModel, members: tuple[int, ...]) -> int:
    """gcd of cycle lengths within one communicating class (BFS level method)."""
    inside = set(members)
    successors = _successors(chain)
    root = members[0]
    level = {root: 0}
    queue = deque([root])
    period = 0
    while queue:
        v = queue.popleft()
        for w in successors[v]:
            if w not in inside:
                continue
            if w not in level:
                level[w] = level[v] + 1
                queue.append(w)
            else:
                period = gcd(period, level[v] + 1 - level[w])
    return period


def is_ergodic(chain: ChainModel) -> ErgodicityVerdict:
    """Decide irreducibility of the reachable chain, with a witness when false."""
    classification = classify(chain)
    aperiodic = all(
        _class_period(chain, members) == 1
        for members, closed in zip(classification.classes, classification.closed)
        if closed
    )
    if len(classification.classes) == 1:
        return ErgodicityVerdict(
            ergodic=True,
            aperiodic=aperiodic,
            witness=None,
            explanation=(
                "the single reachable configuration communicates with itself"
                if len(chain.states) == 1
                else f"all {len(chain.states)} reachable configurations communicate"
            ),
        )
    closed_classes = [
        members
        for members, closed in zip(classification.classes, classification.closed)
        if closed
    ]
    if len(closed_classes) >= 2:
        # states in distinct closed classes are mutually unreachable
        u = chain.states[closed_classes[0][0]]
        v = chain.states[closed_classes[-1][0]]
    else:
        u = chain.states[closed_classes[0][0]]
        v = next(
            state
            for i, state in enumerate(chain.states)
            if i not in closed_classes[0]
        )
    return ErgodicityVerdict(
        ergodic=False,
        aperiodic=aperiodic,
        witness=(u, v),
        explanation=f"{tuple(u)} cannot reach {tuple(v)}",
    )


def _integer_matrix(chain: ChainModel) -> tuple[int, list[list[int]]]:
    """(scale, scale * P) for the least common denominator: 6 and face counts for a die."""
    rows = chain.matrix
    scale = lcm(*(p.denominator for row in rows for p in row))
    return scale, [[p.numerator * (scale // p.denominator) for p in row] for row in rows]


def _eliminate(matrix: list[list[int]], rhs: list[list[int]]) -> tuple[list[list[int]], int]:
    """Fraction-free Gauss-Jordan elimination of the integer system A X = B.

    Returns (Y, d) with X = Y / d exactly.  Each step divides by the previous
    pivot, and the division is exact (Bareiss), so every entry stays an
    integer and no ``Fraction`` is built.  Raises on a singular system.
    """
    n = len(matrix)
    rows = [list(row) + list(extra) for row, extra in zip(matrix, rhs)]
    previous = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise ArithmeticError("singular linear system")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        lead = top[col]
        for r in range(n):
            if r != col:
                factor = rows[r][col]
                rows[r] = [(lead * x - factor * y) // previous for x, y in zip(rows[r], top)]
        previous = lead
    return [row[n:] for row in rows], previous


def _stationary(chain: ChainModel, members: tuple[int, ...]) -> dict[int, Fraction]:
    """Exact stationary distribution of one closed class."""
    m = len(members)
    scale, counts = _integer_matrix(chain)
    # pi (P - I) = 0 transposed and scaled, the last equation replaced by sum(pi) = 1
    matrix = [
        [counts[members[i]][members[j]] - scale * (i == j) for i in range(m)]
        for j in range(m - 1)
    ]
    matrix.append([1] * m)
    solution, det = _eliminate(matrix, [[0]] * (m - 1) + [[1]])
    return {v: Fraction(solution[i][0], det) for i, v in enumerate(members)}


def _class_even_share(chain: ChainModel, members: tuple[int, ...]) -> Fraction:
    if len(members) == 1:
        return parity_probability(chain.states[members[0]], Parity.EVEN)
    stationary = _stationary(chain, members)
    return sum(
        (
            weight * parity_probability(chain.states[v], Parity.EVEN)
            for v, weight in stationary.items()
        ),
        Fraction(0),
    )


def absorption(chain: ChainModel) -> AbsorptionReport:
    """First-step analysis of eventual entry into each closed class.

    With Q the transient-to-transient block and R the one-step mass from
    each transient state into each closed class, one elimination of the
    integer matrix scale * (I - Q) gives the fundamental matrix
    N = (I - Q)^-1 (Kemeny and Snell, Finite Markov Chains, 1960).  From it:
    the expected time to absorption N 1, the entry probabilities B = N R,
    and the conditional entry times E[T | enter C] = (N B)[i, C] / B[i, C].
    """
    classification = classify(chain)
    n = len(chain.states)
    transient = [v for v in range(n) if not classification.recurrent[v]]
    start = chain.index(initial_config())
    closed_classes = [
        members
        for members, closed in zip(classification.classes, classification.closed)
        if closed
    ]

    entries = []
    if start in transient:
        scale, counts = _integer_matrix(chain)
        identity_minus_q = [
            [scale * (v == w) - counts[v][w] for w in transient] for v in transient
        ]
        identity = [[int(v == w) for w in transient] for v in transient]
        # N = scale * inverse / det
        inverse, det = _eliminate(identity_minus_q, identity)
        origin = transient.index(start)
        from_start = inverse[origin]
        expected_steps = Fraction(scale * sum(from_start), det)
        for members in closed_classes:
            # det * B[:, C]
            into = [sum(counts[v][w] for w in members) for v in transient]
            entry = [sum(map(mul, row, into)) for row in inverse]
            hits = entry[origin]
            probability = Fraction(hits, det)
            conditional = (
                Fraction(scale * sum(map(mul, from_start, entry)), det * hits)
                if hits
                else None
            )
            entries.append((members, probability, conditional))
    else:
        expected_steps = Fraction(0)
        for members in closed_classes:
            inside = start in members
            entries.append((members, Fraction(inside), Fraction(0) if inside else None))

    return AbsorptionReport(
        rule=chain.rule,
        initial=chain.states[start],
        entries=tuple(
            AbsorptionEntry(
                states=tuple(chain.states[v] for v in members),
                probability=probability,
                expected_steps=conditional,
                even_share=_class_even_share(chain, members),
            )
            for members, probability, conditional in entries
        ),
        expected_steps=expected_steps,
    )


def chain_report(rule: MutationRule) -> dict:
    """Full JSON-ready report: states, matrix, classes, verdict, absorption."""
    chain = build_chain(rule)
    classification = classify(chain)
    verdict = is_ergodic(chain)
    report = absorption(chain)
    return {
        **chain.to_jsonable(),
        "classes": [
            {
                "states": [list(chain.states[v]) for v in members],
                "closed": classification.closed[c],
                "absorbing": classification.closed[c] and len(members) == 1,
            }
            for c, members in enumerate(classification.classes)
        ],
        "verdict": {
            "ergodic": verdict.ergodic,
            "aperiodic": verdict.aperiodic,
            "witness": (
                [list(verdict.witness[0]), list(verdict.witness[1])]
                if verdict.witness
                else None
            ),
            "explanation": verdict.explanation,
        },
        "absorption": {
            "initial": list(report.initial),
            "expected_steps": fraction_fields(report.expected_steps),
            "entries": [
                {
                    "states": [list(state) for state in entry.states],
                    "probability": fraction_fields(entry.probability),
                    "expected_steps": (
                        fraction_fields(entry.expected_steps)
                        if entry.expected_steps is not None
                        else None
                    ),
                    "even_share": fraction_fields(entry.even_share),
                }
                for entry in report.entries
            ],
        },
    }
