import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from paritydie import (
    Parity,
    PrefixRecord,
    RunThresholdError,
    binomial_moments,
    default_run_threshold,
    exact_binomial_tail,
    normal_cdf,
    normal_quantile,
    run_probability,
    scenario,
    sequential_report,
    fairness_report,
    z_score,
)
from paritydie.stats import prefix_rows

from oracles import (
    binomial_sd,
    fraction_binomial_tail,
    integer_binomial_lower_tail,
    run_threshold_by_powers,
)

E, O = Parity.EVEN, Parity.ODD

# exact Binomial(100, 1/2) upper tail at 58, from direct big-integer summation
TAIL_100_58 = Fraction(
    10554032587174879289417799775, 158456325028528675187087900672
)


def test_binomial_moments_fair_hundred():
    assert binomial_moments(100, Fraction(1, 2)) == (50.0, 5.0)


def test_binomial_moments_locked_die():
    mean, sd = binomial_moments(100, Fraction(2, 3))
    assert mean == pytest.approx(200 / 3, abs=1e-12)
    # the closed form gives 4.714..., not the sometimes-quoted 4.66...
    assert sd == pytest.approx(4.714045207910316, abs=1e-12)


def test_binomial_moments_empty():
    assert binomial_moments(0, 0.3) == (0.0, 0.0)
    with pytest.raises(ValueError):
        binomial_moments(-1, 0.5)
    with pytest.raises(ValueError):
        binomial_moments(10, 1.5)


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)])
def test_binomial_sd_matches_enumeration(n, p):
    _, sd = binomial_moments(n, p)
    assert sd == pytest.approx(binomial_sd(n, p), abs=1e-12)


def test_z_score_values():
    assert z_score(58, 100, Fraction(1, 2)) == 1.6
    assert z_score(50, 100, Fraction(1, 2)) == 0.0
    assert z_score(42, 100, Fraction(1, 2)) == -1.6
    with pytest.raises(ValueError):
        z_score(0, 0, 0.5)
    with pytest.raises(ValueError):
        z_score(5, 10, 1.0)


@given(st.integers(min_value=-40, max_value=40))
def test_z_score_antisymmetry(d):
    assert z_score(50 + d, 100, 0.5) == -z_score(50 - d, 100, 0.5)


def test_normal_cdf_values():
    assert abs(normal_cdf(1.6) - 0.9452) < 5e-5
    assert normal_cdf(1.6) == pytest.approx(0.945200708300442, abs=1e-12)
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(-1.6) == pytest.approx(1 - normal_cdf(1.6), abs=1e-12)


@given(st.floats(min_value=-8, max_value=8), st.floats(min_value=-8, max_value=8))
def test_normal_cdf_monotone_and_reflective(a, b):
    lo, hi = sorted((a, b))
    assert normal_cdf(lo) <= normal_cdf(hi)
    assert abs(normal_cdf(a) + normal_cdf(-a) - 1) < 1e-7


def test_normal_quantile():
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
    assert normal_quantile(0.95) == pytest.approx(1.6448536269514722, abs=1e-9)
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    for q in (0.01, 0.2, 0.8, 0.9999):
        assert normal_cdf(normal_quantile(q)) == pytest.approx(q, abs=1e-12)
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)


def test_exact_binomial_tail_values():
    half = Fraction(1, 2)
    assert exact_binomial_tail(3, 3, half) == Fraction(1, 8)
    assert exact_binomial_tail(10, 10, half) == Fraction(1, 1024)
    assert exact_binomial_tail(100, 58, half) == TAIL_100_58
    # sanity against the normal approximation the z-test uses
    assert abs(float(TAIL_100_58) - (1 - 0.9452)) < 0.02


def test_exact_binomial_tail_properties():
    for p in (Fraction(1, 2), Fraction(1, 3), Fraction(0), Fraction(1)):
        assert exact_binomial_tail(12, 0, p) == 1
        assert exact_binomial_tail(12, 12, p) == p**12
        tails = [exact_binomial_tail(12, k, p) for k in range(13)]
        assert all(a >= b for a, b in zip(tails, tails[1:]))
    with pytest.raises(ValueError):
        exact_binomial_tail(10, 11, Fraction(1, 2))
    with pytest.raises(ValueError):
        exact_binomial_tail(10, 5, 2)


TAIL_PROBABILITIES = [
    Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 10), Fraction(7, 9), 0.3
]


@st.composite
def tail_cases(draw):
    n = draw(st.integers(min_value=0, max_value=200))
    k = draw(st.integers(min_value=0, max_value=n))
    return n, k, draw(st.sampled_from(TAIL_PROBABILITIES))


@given(tail_cases())
@example((0, 0, Fraction(1, 2)))
@example((200, 0, 0.3))
@example((200, 200, Fraction(7, 9)))
@example((200, 100, Fraction(1)))
@example((200, 101, Fraction(0)))
def test_exact_binomial_tail_matches_fraction_sum(case):
    assert exact_binomial_tail(*case) == fraction_binomial_tail(*case)


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3), Fraction(7, 9)])
def test_exact_binomial_tail_identities_at_twenty_thousand(p):
    n = 20_000
    assert exact_binomial_tail(n, 0, p) == 1
    for k in (n // 3, n // 2 + 100, n):
        tail = exact_binomial_tail(n, k, p)
        assert tail + integer_binomial_lower_tail(n, k, p) == 1
        assert tail == 1 - exact_binomial_tail(n, n - k + 1, 1 - p)


def test_run_probability():
    assert run_probability(7, Fraction(1, 2)) == Fraction(1, 128)
    assert run_probability(10, Fraction(1, 2)) == Fraction(1, 1024)
    assert run_probability(10, Fraction(1, 2)) < Fraction(1, 1000)
    assert run_probability(1, Fraction(2, 3)) == Fraction(2, 3)
    with pytest.raises(ValueError):
        run_probability(0, Fraction(1, 2))


def test_default_run_threshold():
    assert default_run_threshold(Fraction(1, 2)) == 10
    # (1/10)**3 equals the 0.1% level exactly, so three is not rare enough
    assert default_run_threshold(Fraction(1, 10)) == 4
    assert default_run_threshold(Fraction(2, 3)) == 18
    with pytest.raises(ValueError):
        default_run_threshold(Fraction(1))


@given(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(99, 100)))
@example(Fraction(1, 10))
@example(Fraction(99, 100))
@example(Fraction(1, 2**70))
def test_default_run_threshold_matches_power_loop(p0):
    assert default_run_threshold(p0) == run_threshold_by_powers(p0, Fraction(1, 1000))


def test_default_run_threshold_near_one():
    assert default_run_threshold(Fraction(9999, 10000)) == 69075
    for p0 in (Fraction(99999, 100000), Fraction(10**30 - 1, 10**30)):
        with pytest.raises(RunThresholdError, match="--run-threshold"):
            default_run_threshold(p0)


def test_proportion_after():
    def proportion(tosses):
        report = fairness_report(tosses)
        return report.even_count / report.n

    assert proportion([E] * 3 + [O] * 7) == 0.3
    assert proportion([E] * 9) == 1.0
    assert proportion(scenario(1)) == 0.58
    with pytest.raises(ValueError):
        fairness_report([])


def test_scenarios():
    for i in (1, 2, 3):
        tosses = scenario(i)
        assert len(tosses) == 100
        assert sum(p is E for p in tosses) == 58
    assert scenario(1) == [E] * 58 + [O] * 42
    assert sum(p is E for p in scenario(3)[:84]) == 42
    with pytest.raises(ValueError):
        scenario(4)


def test_report_of_scenario_one():
    report = fairness_report(scenario(1))
    assert (report.n, report.even_count) == (100, 58)
    assert report.z == 1.6
    assert report.p_value_one_sided == pytest.approx(1 - 0.945200708300442, abs=1e-12)
    assert report.p_value_exact == TAIL_100_58
    assert report.reject is False  # |1.6| < 1.96


def test_reports_agree_across_scenarios():
    reports = [fairness_report(scenario(i)) for i in (1, 2, 3)]
    assert len({(r.n, r.even_count, r.z) for r in reports}) == 1


def test_report_options():
    assert fairness_report([E] * 30).reject is True
    with pytest.raises(ValueError):
        fairness_report([])
    with pytest.raises(ValueError):
        fairness_report(scenario(1), alpha=0)


def test_first_rejections_differ_across_scenarios():
    firsts = [sequential_report(scenario(i)).first_rejection for i in (1, 2, 3)]
    assert firsts == [10, 10, 94]
    assert len(set(firsts)) > 1


def test_scenario_three_sequential_detail():
    report = sequential_report(scenario(3))
    for record in report.records:
        if record.t < 94:
            assert not record.flagged
    at_94 = next(r for r in report.records if r.t == 94)
    assert at_94.run_flag and not at_94.z_flag
    assert report.run_events == (
        type(report.run_events[0])(start=85, length=16, parity=E),
    )
    assert report.first_rejection == 94


def test_run_events_of_scenarios():
    events_1 = [(e.start, e.length, e.parity) for e in sequential_report(scenario(1)).run_events]
    assert events_1 == [(1, 58, E), (59, 42, O)]
    events_2 = [(e.start, e.length, e.parity) for e in sequential_report(scenario(2)).run_events]
    assert events_2 == [(1, 42, E), (43, 42, O), (85, 16, E)]
    assert all(
        e.length >= 10
        for i in (1, 2, 3)
        for e in sequential_report(scenario(i)).run_events
    )


def test_detectors_wait_for_t_min():
    # a run crossing its threshold before t_min only fires once t_min is reached
    report = sequential_report([O] * 10, t_min=10, run_threshold=7)
    assert report.first_rejection == 10
    assert report.records[0].t == 10
    assert len(report.run_events) == 1 and report.run_events[0].length == 10


def test_one_sided_ignores_the_lower_tail():
    below = sequential_report([O] * 20, two_sided=False, run_threshold=30)
    assert below.first_rejection is None
    above = sequential_report([E] * 20, two_sided=False, run_threshold=30)
    assert above.first_rejection == 10


def test_bonferroni_is_more_conservative():
    tosses = [E] * 9 + [O] + [E] * 3 + [O]
    plain = sequential_report(tosses, run_threshold=10)
    corrected = sequential_report(tosses, run_threshold=10, bonferroni=True)
    assert plain.first_rejection == 10
    assert corrected.first_rejection == 11


def test_sequential_report_validation():
    with pytest.raises(ValueError):
        sequential_report(scenario(1), alpha=1.5)
    with pytest.raises(ValueError):
        sequential_report(scenario(1), t_min=0)
    with pytest.raises(ValueError):
        sequential_report(scenario(1), run_threshold=0)



@pytest.mark.parametrize(
    "kwargs", [{"alpha": 1.5}, {"t_min": 0}, {"run_threshold": 0}, {"p0": 0}, {"p0": 2}]
)
def test_prefix_rows_checks_before_the_first_row(kwargs):
    # the rows are never consumed: every check runs in the call itself
    with pytest.raises(ValueError):
        prefix_rows(scenario(1), **kwargs)


@given(
    st.lists(st.sampled_from([E, O]), max_size=200),
    st.fractions(min_value=0, max_value=1).filter(lambda p: 0 < p < 1 and 0 < float(p) < 1),
    st.integers(min_value=1, max_value=20),
    st.booleans(),
)
def test_replay_z_is_bit_identical_to_z_score(tosses, p0, t_min, two_sided):
    report = sequential_report(tosses, p0, t_min=t_min, run_threshold=5, two_sided=two_sided)
    assert [r.t for r in report.records] == list(range(t_min, len(tosses) + 1))
    for record in report.records:
        assert record.even_count == tosses[: record.t].count(E)
        assert record.z == z_score(record.even_count, record.t, p0)
    flagged = [r.t for r in report.records if r.flagged]
    assert report.first_rejection == (flagged[0] if flagged else None)
    _, run_events, rows = prefix_rows(tosses, p0, t_min=t_min, run_threshold=5, two_sided=two_sided)
    assert [PrefixRecord(*row) for row in rows] == list(report.records)
    assert tuple(run_events) == report.run_events


def test_prefix_records_are_slotted_frozen_values():
    record = sequential_report(scenario(3)).records[84]
    assert not hasattr(record, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.z = 0.0
    twin = PrefixRecord(*dataclasses.astuple(record))
    assert twin == record and hash(twin) == hash(record)
    assert record.flagged == (record.z_flag or record.run_flag)

def test_sequential_report_jsonable():
    payload = sequential_report(scenario(3)).to_jsonable()
    assert payload["first_rejection"] == 94
    assert payload["run_threshold"] == 10
    assert payload["run_events"] == [{"start": 85, "length": 16, "parity": "E"}]
    assert payload["records"][0]["t"] == 10
    report = fairness_report(scenario(1)).to_jsonable()
    assert report["z"] == 1.6
    assert report["p_value_exact"]["numerator"] == TAIL_100_58.numerator
