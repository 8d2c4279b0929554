"""Statistics: frozen reference values and scipy cross-checks."""

from __future__ import annotations

import math

import pytest
import scipy.stats

from picksim import InputDataError, gap, paired_test, summarize

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
