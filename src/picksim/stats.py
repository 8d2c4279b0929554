"""Weekly-metric statistics: mean, confidence interval, gap, paired t-test.

The confidence interval uses the Student t quantile with n-1 degrees of
freedom over the sample standard deviation, the standard small-sample
construction for terminating simulation replications.  The paired test
compares two scenarios week by week on the differences b - a.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from .errors import InputDataError

_CONFIDENCE = 0.95  # two-sided level of every interval summarize reports


@dataclass(frozen=True)
class StatsSummary:
    mean: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class PairedTest:
    statistic: float
    df: int
    p_value: float


def summarize(values: list[float]) -> StatsSummary:
    """Mean and two-sided t confidence interval of weekly metrics."""
    n = len(values)
    if n < 2:
        raise InputDataError(f"confidence interval needs at least 2 values, got {n}")
    # deferred: loading scipy.stats costs about 1 s of CPU that runs without statistics skip
    from scipy.stats import t as student_t

    mean = statistics.fmean(values)
    sd = statistics.stdev(values)
    quantile = float(student_t.ppf(0.5 + _CONFIDENCE / 2.0, n - 1))
    half = quantile * sd / math.sqrt(n)
    return StatsSummary(mean, mean - half, mean + half)


def gap(baseline_total: float, other_total: float) -> float:
    """Percent difference of a scenario total against the baseline total."""
    if baseline_total <= 0:
        raise InputDataError(f"gap needs a positive baseline total, got {baseline_total}")
    return 100.0 * (other_total - baseline_total) / baseline_total


def paired_test(a: list[float], b: list[float]) -> PairedTest:
    """Two-sided paired t-test on per-week differences b - a.

    Degenerate samples follow the usual conventions: identical samples
    give t = 0 and p = 1; a constant nonzero difference gives an
    infinite statistic and p = 0.
    """
    if len(a) != len(b):
        raise InputDataError(f"paired samples differ in length: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise InputDataError(f"paired test needs at least 2 pairs, got {n}")
    diffs = [y - x for x, y in zip(a, b)]
    mean_d = statistics.fmean(diffs)
    sd = statistics.stdev(diffs)
    df = n - 1
    if sd == 0.0:
        if mean_d == 0.0:
            return PairedTest(0.0, df, 1.0)
        return PairedTest(math.copysign(math.inf, mean_d), df, 0.0)
    statistic = mean_d / (sd / math.sqrt(n))
    from scipy.stats import t as student_t  # deferred, as in summarize

    p = 2.0 * float(student_t.sf(abs(statistic), df))
    return PairedTest(statistic, df, p)
