"""Statistics: frozen reference values and scipy cross-checks."""

from __future__ import annotations

import math
from statistics import NormalDist

import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from picksim import InputDataError, gap, paired_test, stats, summarize

# reference weekly series used throughout the docs and examples
SERIES_A = [103.0, 143.0, 122.0, 97.0]
SERIES_B = [148.0, 150.0, 129.0, 135.0]


def test_summary_frozen_values_series_a():
    s = summarize(SERIES_A)
    assert math.isclose(s.mean, 116.25, abs_tol=1e-9)
    assert math.isclose(s.ci_low, 83.19300122229396, abs_tol=1e-9)
    assert math.isclose(s.ci_high, 149.30699877770604, abs_tol=1e-9)


def test_summary_frozen_values_series_b():
    s = summarize(SERIES_B)
    assert math.isclose(s.mean, 140.5, abs_tol=1e-9)
    assert math.isclose(s.ci_low, 124.35084876797083, abs_tol=1e-9)
    assert math.isclose(s.ci_high, 156.64915123202917, abs_tol=1e-9)


def test_summary_matches_scipy_interval():
    lo, hi = scipy.stats.t.interval(0.95, len(SERIES_A) - 1,
                                    loc=scipy.stats.tmean(SERIES_A),
                                    scale=scipy.stats.sem(SERIES_A))
    s = summarize(SERIES_A)
    assert math.isclose(s.ci_low, lo, abs_tol=1e-9)
    assert math.isclose(s.ci_high, hi, abs_tol=1e-9)


def test_summary_needs_two_values():
    with pytest.raises(InputDataError, match="at least 2"):
        summarize([5.0])


def test_gap_frozen_value():
    assert math.isclose(gap(465.0, 562.0), 20.860215053763442, abs_tol=1e-9)
    assert gap(100.0, 100.0) == 0.0
    assert gap(100.0, 50.0) == -50.0


def test_gap_needs_positive_baseline():
    with pytest.raises(InputDataError, match="positive baseline"):
        gap(0.0, 10.0)


def test_paired_test_frozen_example():
    res = paired_test(SERIES_A, SERIES_B)
    assert res.df == 3
    assert math.isclose(res.statistic, 2.4102323547981994, abs_tol=1e-9)
    assert math.isclose(res.p_value, 0.0949972234299485, abs_tol=1e-9)


def test_paired_test_matches_scipy_ttest_rel():
    # scipy computes t on a - b; ours is on b - a (sign flips only)
    ref = scipy.stats.ttest_rel(SERIES_B, SERIES_A)
    res = paired_test(SERIES_A, SERIES_B)
    assert math.isclose(res.statistic, ref.statistic, abs_tol=1e-9)
    assert math.isclose(res.p_value, ref.pvalue, abs_tol=1e-9)


def test_paired_test_identical_samples():
    res = paired_test(SERIES_A, list(SERIES_A))
    assert res.statistic == 0.0 and res.p_value == 1.0 and res.df == 3


def test_paired_test_constant_nonzero_difference():
    res = paired_test([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    assert res.statistic == math.inf and res.p_value == 0.0
    res = paired_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
    assert res.statistic == -math.inf and res.p_value == 0.0


def test_paired_test_validation():
    with pytest.raises(InputDataError, match="length"):
        paired_test([1.0, 2.0], [1.0])
    with pytest.raises(InputDataError, match="at least 2"):
        paired_test([1.0], [2.0])


# -- Student t from the standard library, against scipy ---------------------

LEVELS = (0.80, 0.90, 0.95, 0.99, 0.999)
DFS = st.integers(0, 600).map(lambda k: round(10 ** (k / 100)))  # 1 .. 10**6, log-spaced


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


@settings(max_examples=150, deadline=None)
@given(df=DFS, log_t=st.floats(-4.0, 4.0), sign=st.sampled_from([1.0, -1.0]))
def test_t_quantile_and_p_value_match_scipy(df, log_t, sign):
    for level in LEVELS:
        for p in (0.5 + level / 2, 0.5 - level / 2):
            assert _rel(stats._t_ppf(p, df), scipy.stats.t.ppf(p, df)) <= 1e-12, (p, df)
    t = sign * 10.0 ** log_t
    ref = 2.0 * scipy.stats.t.sf(abs(t), df)
    if ref >= 1e-300:
        assert _rel(2.0 * stats._t_sf(abs(t), df), ref) <= 1e-10
    one_sided = scipy.stats.t.sf(t, df)
    if one_sided >= 1e-300:
        assert _rel(stats._t_sf(t, df), one_sided) <= 1e-10


def test_t_with_one_degree_of_freedom_is_cauchy():
    for level in LEVELS:
        p = 0.5 + level / 2
        assert _rel(stats._t_ppf(p, 1), math.tan(math.pi * (p - 0.5))) <= 1e-12
    for t in (1e-3, 0.1, 1.0, 3.0, 10.0, 100.0):
        assert _rel(stats._t_sf(t, 1), 0.5 - math.atan(t) / math.pi) <= 1e-12
    for t in (1e6, 1e200):  # 1/2 - atan(t)/pi cancels here; atan(1/t)/pi does not
        assert _rel(stats._t_sf(t, 1), math.atan(1.0 / t) / math.pi) <= 1e-12


def test_t_near_the_normal_limit_converges_in_few_terms(monkeypatch):
    """At df = 10**6 the large-df expansion needs at most four terms, and the
    tail is the normal tail up to its first correction, of order t^4 / df."""
    monkeypatch.setattr(stats, "_SINHC_COEFFICIENTS", stats._SINHC_COEFFICIENTS[:4])
    normal = NormalDist()
    for t in (0.01, 0.5, 1.0, 1.96, 3.0, 5.0, 8.0):
        normal_tail = 0.5 * math.erfc(t / math.sqrt(2.0))
        assert _rel(stats._t_sf(t, 10**6), normal_tail) <= (1.0 + t**4) / 10**6
    q = stats._t_ppf(0.975, 10**6)
    assert normal.inv_cdf(0.975) < q < normal.inv_cdf(0.975) + 1e-5


def test_t_fraction_converges_within_its_bound(monkeypatch):
    """Below df = 1000 the continued fraction needs fewer than 50 steps."""
    monkeypatch.setattr(stats, "_MAX_TERMS", 50)
    for df in (1, 2, 3, 7, 30, 106, 300, 999):
        for k in range(-40, 41):
            assert 0.0 <= stats._t_sf(10 ** (k / 10), df) <= 0.5


def test_t_p_value_underflows_to_zero_and_never_below():
    for t in (1e6, 1e200):
        for df in (1, 2, 3, 10, 100, 1000, 10**6):
            p = 2.0 * stats._t_sf(t, df)
            assert 0.0 <= p < 1e-6 and 0.5 < stats._t_sf(-t, df) <= 1.0, (t, df)
            if df >= (2 if t == 1e200 else 100):  # the true p is below the smallest double
                assert p == 0.0, (t, df)
    nearly_constant = paired_test([0.0] * 40, [1.0 + (k % 2) * 1e-9 for k in range(40)])
    assert nearly_constant.statistic > 1e9 and nearly_constant.p_value == 0.0


def test_t_at_zero_gives_p_one():
    for df in (1, 3, 999, 1000, 10**6):
        assert stats._t_sf(0.0, df) == 0.5 and stats._t_sf(-0.0, df) == 0.5
    res = paired_test([1.0, 2.0, 3.0], [2.0, 1.0, 3.0])  # differences 1, -1, 0
    assert res.statistic == 0.0 and res.p_value == 1.0
