"""Independent oracles the test suite checks the library against.

These deliberately avoid the library's own state representation: the path
oracles work on a position-labeled die (six faces, mutated in place) and the
reachability oracle is a boolean transitive closure.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, sqrt

from paritydie import MutationRule, Parity, derive_seed, initial_config
from paritydie.cli import SequenceParseError
from paritydie.montecarlo import (
    SEQUENCE_TRACKING_CAP, AbsorptionSample, BatchSummary, SimulationRun, _sampler_tables,
)


def brute_force_path_distribution(rule: MutationRule, depth: int) -> dict[str, Fraction]:
    """Enumerate all 6**depth equally likely face sequences on a labeled die.

    Faces 0..5 form the pairs (0,1), (2,3), (4,5), each starting with one
    even and one odd face; the face opposite the rolled one is mutated in
    place after each roll.
    """
    weight = Fraction(1, 6**depth)
    distribution: dict[str, Fraction] = {}
    for faces in product(range(6), repeat=depth):
        parities = ["E", "O", "E", "O", "E", "O"]
        outcomes = []
        for face in faces:
            shown = parities[face]
            outcomes.append(shown)
            hidden = face ^ 1
            if rule is MutationRule.PARITY_COPY:
                parities[hidden] = shown
            elif rule is MutationRule.INCREMENT:
                parities[hidden] = "E" if parities[hidden] == "O" else "O"
        key = "".join(outcomes)
        distribution[key] = distribution.get(key, Fraction(0)) + weight
    return distribution


def _labelled_rolls(rule: MutationRule, parities: int):
    """(shown parity, next assignment) for each of the six faces of a labeled die.

    Bit ``f`` of ``parities`` is set when face ``f`` is even; faces 0..5 form
    the opposite pairs (0,1), (2,3), (4,5).
    """
    for face in range(6):
        shown = parities >> face & 1
        hidden = 1 << (face ^ 1)
        if rule is MutationRule.PARITY_COPY:
            after = parities | hidden if shown else parities & ~hidden
        elif rule is MutationRule.INCREMENT:
            after = parities ^ hidden
        else:
            after = parities
        yield ("E" if shown else "O"), after


_STANDARD_DIE = 0b010101  # faces 0, 2, 4 even


def labelled_path_distribution(rule: MutationRule, depth: int) -> dict[str, Fraction]:
    """Dynamic program over (prefix, labeled assignment) with Fraction weights."""
    sixth = Fraction(1, 6)
    layer = {("", _STANDARD_DIE): Fraction(1)}
    for _ in range(depth):
        grown: dict[tuple[str, int], Fraction] = {}
        for (prefix, parities), weight in layer.items():
            for shown, after in _labelled_rolls(rule, parities):
                key = (prefix + shown, after)
                grown[key] = grown.get(key, Fraction(0)) + weight * sixth
        layer = grown
    paths: dict[str, Fraction] = {}
    for (prefix, _), weight in layer.items():
        paths[prefix] = paths.get(prefix, Fraction(0)) + weight
    return paths


def labelled_step_distributions(
    rule: MutationRule, steps: int
) -> tuple[dict[tuple[int, int, int], Fraction], dict[int, Fraction]]:
    """Configuration and even-count distributions after ``steps`` rolls.

    A dynamic program over (even count, labeled assignment) for all 64
    face-parity assignments, with Fraction weights; configurations are read
    off the final assignments as (EE, EO, OO) pair counts.
    """
    sixth = Fraction(1, 6)
    layer = {(0, _STANDARD_DIE): Fraction(1)}
    for _ in range(steps):
        grown: dict[tuple[int, int], Fraction] = {}
        for (evens, parities), weight in layer.items():
            for shown, after in _labelled_rolls(rule, parities):
                key = (evens + (shown == "E"), after)
                grown[key] = grown.get(key, Fraction(0)) + weight * sixth
        layer = grown
    configs: dict[tuple[int, int, int], Fraction] = {}
    counts: dict[int, Fraction] = {}
    for (evens, parities), weight in layer.items():
        pairs = [parities >> (2 * pair) & 0b11 for pair in range(3)]
        config = (pairs.count(0b11), pairs.count(0b01) + pairs.count(0b10), pairs.count(0))
        configs[config] = configs.get(config, Fraction(0)) + weight
        counts[evens] = counts.get(evens, Fraction(0)) + weight
    return configs, counts


def path_chi_square(summary, exact) -> tuple[float, int]:
    """Pearson goodness of fit of a batch's toss strings to the exact path distribution.

    Returns (statistic, degrees of freedom).  The batch must have counted its
    toss strings, under the distribution's rule and at its depth.
    """
    assert summary.sequences is not None
    assert (summary.rule, summary.tosses) == (exact.rule, exact.depth)
    statistic = 0.0
    for sequence, probability in exact.entries.items():
        expected = summary.runs * float(probability)
        statistic += (summary.sequences.get(sequence, 0) - expected) ** 2 / expected
    return statistic, len(exact.entries) - 1


def transitive_closure(matrix) -> list[list[bool]]:
    """reach[i][j] is True when j is reachable from i in zero or more steps."""
    n = len(matrix)
    reach = [[bool(matrix[i][j]) or i == j for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row = reach[i]
                for j in range(n):
                    row[j] = row[j] or reach[k][j]
    return reach


def mutual_reachability_classes(matrix) -> set[frozenset[int]]:
    """Communicating classes straight from the closure, for comparison."""
    reach = transitive_closure(matrix)
    n = len(matrix)
    return {
        frozenset(j for j in range(n) if reach[i][j] and reach[j][i])
        for i in range(n)
    }


def binomial_sd(n: int, p: Fraction) -> float:
    """Standard deviation from the full exact binomial pmf."""
    mean = Fraction(0)
    second = Fraction(0)
    for k in range(n + 1):
        pmf = comb(n, k) * p**k * (1 - p) ** (n - k)
        mean += k * pmf
        second += k * k * pmf
    return sqrt(float(second - mean * mean))


def fraction_binomial_tail(n: int, k: int, p) -> Fraction:
    """P(X >= k) for X ~ Binomial(n, p), one Fraction term at a time."""
    p = Fraction(p)
    q = 1 - p
    return sum((comb(n, j) * p**j * q ** (n - j) for j in range(k, n + 1)), Fraction(0))


def integer_binomial_lower_tail(n: int, k: int, p: Fraction) -> Fraction:
    """P(X <= k - 1) for 0 < p < 1, summing C(n, j) a**j c**(n-j) upward from j = 0.

    Each term is the last one times (n - j) a / ((j + 1) c), for p = a/b and
    c = b - a; the division is exact because every term is an integer.
    """
    a, b = p.numerator, p.denominator
    c = b - a
    total, term = 0, c**n
    for j in range(k):
        total += term
        term = term * (n - j) * a // ((j + 1) * c)
    return Fraction(total, b**n)


def run_threshold_by_powers(p0: Fraction, level: Fraction) -> int:
    """Shortest run length L with p0**L < level, trying L = 1, 2, ... in turn."""
    length = 1
    while p0**length >= level:
        length += 1
    return length


def scan_sequence(text: str) -> list[Parity]:
    """Parse a toss stream character by character, as ``cli.parse_sequence`` must.

    'E'/'O' in any case; whitespace as ``str.isspace`` has it is skipped; a
    '#' starts a comment running to the next newline.  Any other symbol
    raises SequenceParseError with its 1-based position.
    """
    tosses: list[Parity] = []
    in_comment = False
    for position, symbol in enumerate(text, start=1):
        if symbol == "\n":
            in_comment = False
            continue
        if in_comment:
            continue
        if symbol == "#":
            in_comment = True
            continue
        if symbol.isspace():
            continue
        upper = symbol.upper()
        if upper == "E":
            tosses.append(Parity.EVEN)
        elif upper == "O":
            tosses.append(Parity.ODD)
        else:
            raise SequenceParseError(position, symbol)
    return tosses


def per_toss_walk(tables, seed, limit, until_frozen=False):
    """The sampler's stepping loop with one Python step per toss, every pair kept.

    Each toss takes one uniform draw and scans the thresholds of the current
    configuration for its bracket, frozen or not.  Returns the (outcome, next
    config) pair of every toss and the final configuration; ``until_frozen``
    stops before drawing once the configuration is frozen.
    """
    uniform = random.Random(seed).random
    config = initial_config()
    path = []
    for _ in range(limit):
        thresholds, results, frozen = tables[config]
        if frozen and until_frozen:
            break
        draw = uniform()
        k = 0
        while draw >= thresholds[k]:
            k += 1
        path.append(results[k])
        config = results[k][1]
    return path, config


def per_toss_simulate_path(rule: MutationRule, tosses: int, seed: int) -> SimulationRun:
    path, _ = per_toss_walk(_sampler_tables(rule), seed, tosses)
    return SimulationRun(
        rule, seed, tuple(outcome for outcome, _ in path),
        (initial_config(), *(config for _, config in path)),
    )


def per_toss_batch(rule: MutationRule, tosses: int, runs: int, master_seed: int) -> BatchSummary:
    tables = _sampler_tables(rule)
    even_counts: Counter = Counter()
    final_configs: Counter = Counter()
    sequences: Counter = Counter()
    frozen_runs = 0
    for i in range(runs):
        path, config = per_toss_walk(tables, derive_seed(master_seed, i), tosses)
        sequence = "".join(outcome.char for outcome, _ in path)
        even_counts[sequence.count("E")] += 1
        final_configs[config] += 1
        frozen_runs += tables[config][2]
        sequences[sequence] += 1
    tracked = tosses <= SEQUENCE_TRACKING_CAP
    return BatchSummary(
        rule, tosses, runs, master_seed, dict(even_counts), dict(final_configs), frozen_runs,
        dict(sequences) if tracked else None,
    )


def per_toss_absorption(
    rule: MutationRule, runs: int, master_seed: int, max_steps: int
) -> AbsorptionSample:
    tables = _sampler_tables(rule)
    counts: Counter = Counter()
    unabsorbed = total_steps = 0
    for i in range(runs):
        path, config = per_toss_walk(tables, derive_seed(master_seed, i), max_steps, True)
        if tables[config][2]:
            counts[config] += 1
            total_steps += len(path)
        else:
            unabsorbed += 1
    return AbsorptionSample(rule, runs, master_seed, dict(counts), unabsorbed, total_steps)
