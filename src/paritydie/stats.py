"""Binomial test arithmetic, run probabilities, and order-sensitive testing.

Point statistics (moments, z-scores, ``statistics.NormalDist``) are floating
point; tail and run probabilities are exact rationals, each tail one integer
numerator over b**n for p = a/b.  The sequential report replays a toss
stream prefix by prefix, which is where order starts to matter: streams
with identical totals can part ways long before the final count is in.

The replay is written once, as the lazy rows of ``prefix_rows``, which
checks every parameter before the first row.  ``sequential_report``
gathers the rows into slotted, frozen ``PrefixRecord``s (so ``vars()`` of
a record fails; use its fields); the command line writes them as they
come, as CSV rows or JSON records, and never holds them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import starmap
from math import comb, floor, log, sqrt
from statistics import NormalDist
from typing import Sequence

from .core import Parity
from .serialize import fraction_fields

__all__ = [
    "PrefixRecord", "RunEvent", "RunThresholdError", "SequentialReport", "TestReport",
    "binomial_moments", "default_run_threshold", "exact_binomial_tail", "fairness_report",
    "normal_cdf", "normal_quantile", "run_probability", "scenario", "sequential_report",
    "z_score",
]

HALF = Fraction(1, 2)
DEFAULT_RUN_LEVEL = Fraction(1, 1000)
MAX_RUN_POWER_BITS = 1 << 20


class RunThresholdError(ValueError):
    """The null makes runs so likely that the default run threshold is out of reach."""


def binomial_moments(n: int, p: float | Fraction) -> tuple[float, float]:
    """Mean and standard deviation of the even count in n independent tosses."""
    if n < 0:
        raise ValueError(f"toss count must be nonnegative, got {n}")
    if not 0 <= p <= 1:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    p = float(p)
    return n * p, sqrt(n * p * (1 - p))


def z_score(even_count: int, n: int, p0: float | Fraction) -> float:
    """Standardized deviation of the observed even count under the null p0."""
    if n < 1:
        raise ValueError(f"toss count must be at least 1, got {n}")
    p0 = float(p0)
    if not 0 < p0 < 1:
        raise ValueError(f"null probability must lie strictly in (0, 1), got {p0}")
    return (even_count - n * p0) / sqrt(n * p0 * (1 - p0))


def normal_cdf(z: float) -> float:
    """Standard normal CDF, Phi(z) = erfc(-z / sqrt(2)) / 2."""
    return NormalDist().cdf(z)


def normal_quantile(q: float) -> float:
    """Inverse standard normal CDF (Wichura's AS241); q must lie in (0, 1)."""
    return NormalDist().inv_cdf(q)


def _critical_value(tail: float, alpha: float) -> float:
    """z with upper tail ``tail``, taken from the lower tail (1 - tail may round to 1)."""
    if not tail:
        raise ValueError(f"alpha {alpha} is too small: the tail level it sets underflows to 0")
    return -normal_quantile(tail)


def exact_binomial_tail(n: int, k: int, p: float | Fraction) -> Fraction:
    """P(X >= k) for X ~ Binomial(n, p), exactly.

    With p = a/b and c = b - a, term j is C(n, j) a**j c**(n-j) / b**n.  The
    shorter side, j in [k, n] or j in [0, k-1], is summed as one integer by
    Horner's rule in c, carrying C(n, j) a**(j-lo) from term to term, then
    scaled by a**lo c**(n-hi); the lower side is taken from b**n.  The
    result is the same reduced rational as summing the terms as Fractions.

    Note: a float ``p`` is converted to the rational it exactly represents;
    pass a Fraction for round decimal nulls like 1/10.
    """
    if not 0 <= k <= n:
        raise ValueError(f"threshold must lie in [0, {n}], got {k}")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    a, b = p.numerator, p.denominator
    c = b - a
    upper = n - k < k
    lo, hi = (k, n) if upper else (0, k - 1)
    numerator, term = 0, comb(n, lo)  # term: C(n, j) * a**(j - lo)
    for j in range(lo, hi + 1):
        numerator = numerator * c + term
        term = term * (n - j) * a // (j + 1)
    numerator *= a**lo * c ** (n - hi)
    total = b**n
    return Fraction(numerator if upper else total - numerator, total)


def run_probability(length: int, p: float | Fraction) -> Fraction:
    """Chance of a specific same-parity run of the given length: p**length."""
    if length < 1:
        raise ValueError(f"run length must be at least 1, got {length}")
    return Fraction(p) ** length


def default_run_threshold(p0: float | Fraction) -> int:
    """Shortest run length L whose chance p0**L under the null falls below DEFAULT_RUN_LEVEL.

    A float estimate of L is settled exactly by integer comparisons of
    a**L * level.denominator with b**L * level.numerator, for p0 = a/b.
    Raises RunThresholdError when L would need powers above
    MAX_RUN_POWER_BITS bits, which take seconds to build; pass an explicit
    run threshold then.
    """
    p0, level = Fraction(p0), DEFAULT_RUN_LEVEL
    if not 0 < p0 < 1:
        raise ValueError(f"null probability must lie strictly in (0, 1), got {p0}")
    a, b = p0.numerator, p0.denominator
    log_p0 = log(a) - log(b)
    limit = MAX_RUN_POWER_BITS // b.bit_length()
    estimate = log(level) / log_p0 if log_p0 else limit
    if estimate >= limit:
        message = f"the default run threshold for p0 = {p0} exceeds {limit} tosses"
        raise RunThresholdError(message + "; set one with --run-threshold")

    def rare(length: int) -> bool:
        return a**length * level.denominator < b**length * level.numerator

    length = max(1, floor(estimate))
    while length > 1 and rare(length - 1):
        length -= 1
    while not rare(length):
        length += 1
    return length


def scenario(scenario_id: int) -> list[Parity]:
    """Three 100-toss orderings that share 58 even outcomes.

    1: 58 evens then 42 odds; 2: 42 evens, 42 odds, 16 evens; 3: 42
    even-odd pairs then 16 evens.  Same totals, very different histories.
    """
    E, O = Parity.EVEN, Parity.ODD
    if scenario_id == 1:
        return [E] * 58 + [O] * 42
    if scenario_id == 2:
        return [E] * 42 + [O] * 42 + [E] * 16
    if scenario_id == 3:
        return [E, O] * 42 + [E] * 16
    raise ValueError(f"scenario id must be 1, 2 or 3, got {scenario_id}")


@dataclass(frozen=True)
class TestReport:
    """Fixed-sample verdict on a complete toss sequence."""

    n: int
    even_count: int
    p0: Fraction
    alpha: float
    z: float
    p_value_one_sided: float
    p_value_exact: Fraction
    reject: bool

    def to_jsonable(self) -> dict:
        return {
            **vars(self),
            "p0": fraction_fields(self.p0),
            "p_value_exact": fraction_fields(self.p_value_exact),
        }


def fairness_report(
    sequence: Sequence[Parity],
    p0: float | Fraction = HALF,
    alpha: float = 0.05,
) -> TestReport:
    """Two-sided z-test of the even count, with the exact upper tail attached.

    ``p_value_one_sided`` is the normal upper-tail exceedance 1 - Phi(z);
    ``p_value_exact`` is the exact binomial P(X >= even_count), always summed (quadratic in n).
    """
    if not sequence:
        raise ValueError("toss sequence is empty")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    p0 = Fraction(p0)
    n = len(sequence)
    evens = sum(p is Parity.EVEN for p in sequence)
    z = z_score(evens, n, p0)
    tail = exact_binomial_tail(n, evens, p0)
    reject = abs(z) >= _critical_value(alpha / 2, alpha)
    return TestReport(n, evens, p0, alpha, z, 1.0 - normal_cdf(z), tail, reject)


@dataclass(frozen=True, slots=True)
class PrefixRecord:
    """One prefix of the replay: its length, even count, z and the two flags."""

    t: int
    even_count: int
    z: float
    z_flag: bool
    run_flag: bool

    @property
    def flagged(self) -> bool:
        return self.z_flag or self.run_flag


@dataclass(frozen=True, slots=True)
class RunEvent:
    """A maximal same-parity run that reached the detector threshold."""

    start: int
    length: int
    parity: Parity


@dataclass(frozen=True)
class SequentialReport:
    """Prefix-by-prefix replay of a toss stream.

    ``records`` covers every prefix from ``t_min`` on; ``first_rejection``
    is the earliest prefix where either the z-test or the run detector
    fired, or None.
    """

    p0: Fraction
    alpha: float
    t_min: int
    run_threshold: int
    two_sided: bool
    bonferroni: bool
    records: tuple[PrefixRecord, ...]
    run_events: tuple[RunEvent, ...]
    first_rejection: int | None

    def to_jsonable(self) -> dict:
        return {
            "p0": fraction_fields(self.p0),
            "alpha": self.alpha,
            "t_min": self.t_min,
            "run_threshold": self.run_threshold,
            "two_sided": self.two_sided,
            "bonferroni": self.bonferroni,
            "first_rejection": self.first_rejection,
            "run_events": [
                {"start": e.start, "length": e.length, "parity": e.parity.char}
                for e in self.run_events
            ],
            "records": [
                {
                    "t": r.t,
                    "even_count": r.even_count,
                    "z": r.z,
                    "z_flag": r.z_flag,
                    "run_flag": r.run_flag,
                }
                for r in self.records
            ],
        }


def prefix_rows(
    sequence: Sequence[Parity],
    p0: float | Fraction = HALF,
    alpha: float = 0.05,
    t_min: int = 10,
    run_threshold: int | None = None,
    two_sided: bool = True,
    bonferroni: bool = False,
):
    """Check the replay's parameters, then return (run threshold, run events, rows).

    Every check runs here, before the first row.  ``rows`` lazily yields
    (t, even_count, z, z_flag, run_flag) for each prefix from ``t_min`` on;
    each maximal run of ``run_threshold`` or more tosses joins the
    ``run_events`` list as the rows that end it are consumed.  See
    ``sequential_report``.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    if t_min < 1:
        raise ValueError(f"t_min must be at least 1, got {t_min}")
    p0 = Fraction(p0)
    if run_threshold is None:
        run_threshold = default_run_threshold(p0)
    if run_threshold < 1:
        raise ValueError(f"run threshold must be at least 1, got {run_threshold}")
    p = float(p0)
    if not 0 < p < 1:
        raise ValueError(f"null probability must lie strictly in (0, 1), got {p}")
    tests = max(len(sequence) - t_min + 1, 1)
    level = alpha / tests if bonferroni else alpha
    critical = _critical_value(level / 2 if two_sided else level, alpha)
    run_events: list[RunEvent] = []
    rows = _replay(sequence, p, critical, t_min, run_threshold, two_sided, run_events)
    return run_threshold, run_events, rows


def _replay(sequence, p, critical, t_min, run_threshold, two_sided, run_events):
    # z is computed as z_score(evens, t, p) does, term for term, so the
    # floats are bit-identical: t*p*q is (t*p)*q, and q = 1 - p.
    q = 1 - p
    even = Parity.EVEN
    evens = 0
    run_length = 0
    run_start = 1
    previous: Parity | None = None
    for t, parity in enumerate(sequence, start=1):
        if parity is previous:
            run_length += 1
        else:
            if run_length >= run_threshold:
                run_events.append(RunEvent(run_start, run_length, previous))
            run_start = t
            run_length = 1
            previous = parity
        evens += parity is even
        if t < t_min:
            continue
        mean = t * p
        z = (evens - mean) / sqrt(mean * q)
        yield t, evens, z, (abs(z) if two_sided else z) >= critical, run_length >= run_threshold
    if run_length >= run_threshold:
        run_events.append(RunEvent(run_start, run_length, previous))


def sequential_report(
    sequence: Sequence[Parity],
    p0: float | Fraction = HALF,
    alpha: float = 0.05,
    t_min: int = 10,
    run_threshold: int | None = None,
    two_sided: bool = True,
    bonferroni: bool = False,
) -> SequentialReport:
    """Replay the stream, flagging z exceedances and over-long runs.

    Both detectors are evaluated from prefix ``t_min`` onward (the z
    approximation is meaningless on tiny prefixes).  The z threshold is the
    normal quantile for ``alpha``, split two ways unless ``two_sided`` is
    False and divided by the number of prefixes tested when ``bonferroni``
    is set.  The run flag raises when the current same-parity run length has
    reached ``run_threshold``, which defaults to the shortest run rarer than
    1 in 1000 under the null.
    """
    run_threshold, run_events, rows = prefix_rows(
        sequence, p0, alpha, t_min, run_threshold, two_sided, bonferroni
    )
    records = tuple(starmap(PrefixRecord, rows))
    first_rejection = next((r.t for r in records if r.z_flag or r.run_flag), None)
    return SequentialReport(
        Fraction(p0), alpha, t_min, run_threshold, two_sided, bonferroni,
        records, tuple(run_events), first_rejection,
    )
