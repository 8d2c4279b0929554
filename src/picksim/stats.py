"""Weekly-metric statistics: mean, confidence interval, gap, paired t-test.

The confidence interval uses the Student t quantile with n-1 degrees of
freedom over the sample standard deviation, the standard small-sample
construction for terminating simulation replications.  The paired test
compares two scenarios week by week on the differences b - a.

The Student t tail is computed here with the standard library only:
``P(T > t) = I_x(df/2, 1/2) / 2`` with ``x = df / (df + t^2)``, the
regularized incomplete beta function.  Below ``df = 1000`` it is
evaluated by its continued fraction with the modified Lentz method
(Press et al., *Numerical Recipes*, 3rd ed., section 6.4); from there on,
where that fraction loses digits to cancellation, by the asymptotic
expansion of ``I_x(a, b)`` for large ``a`` in incomplete gamma functions
(Temme; DiDonato and Morris, ACM TOMS 708), whose first term is the
normal tail.  The quantile bisects the tail to the last bit.  Over df 1
to 10^6 the test suite checks both against a reference library: relative
error at most 1e-12 for the quantile and 1e-10 for the two-sided p-value.
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
    mean = statistics.fmean(values)
    sd = statistics.stdev(values)
    quantile = _t_ppf(0.5 + _CONFIDENCE / 2.0, n - 1)
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
    return PairedTest(statistic, df, 2.0 * _t_sf(abs(statistic), df))


# -- Student t -------------------------------------------------------------

_EPS = 2.220446049250313e-16  # machine epsilon of a double
_TINY = 1e-300  # Lentz's stand-in for a zero denominator
_MAX_TERMS = 100  # continued-fraction steps before giving up; df < 1000 needs < 50
_LARGE_A = 500.0  # a = df/2 from which the large-a expansion replaces the fraction


def _t_sf(t: float, df: float) -> float:
    """P(T > t) for Student t with ``df`` degrees of freedom."""
    if t < 0:
        return 1.0 - _t_sf(-t, df)
    if t == 0:
        return 0.5
    # x = df/(df+t^2), y = 1-x and their logs, without forming t^2 where it overflows
    if t * t < df:
        z = t * t / df
        x, y = 1.0 / (1.0 + z), z / (1.0 + z)
        ln_x = -math.log1p(z)
        ln_y = 2.0 * math.log(t) - math.log(df) + ln_x
    else:
        r = df / t / t
        x, y = r / (1.0 + r), 1.0 / (1.0 + r)
        ln_y = -math.log1p(r)
        ln_x = (math.log(r) if r > _TINY else math.log(df) - 2.0 * math.log(t)) + ln_y
    a = 0.5 * df
    if a >= _LARGE_A:
        return 0.5 * _beta_large_a(a, -ln_x)
    # prefactor x^a y^(1/2) / B(a, 1/2); the fraction converges fast for x below
    # (a+1)/(a+b+2), so above that take I_x(a, b) = 1 - I_y(b, a)
    front = math.exp(a * ln_x + 0.5 * ln_y - _log_beta_half(a))
    if x < (a + 1.0) / (a + 2.5):
        return 0.5 * front * _beta_cf(a, 0.5, x) / a
    return 0.5 - front * _beta_cf(0.5, a, y)


def _t_ppf(p: float, df: float) -> float:
    """The t with P(T <= t) = p: bisection of ``_t_sf`` to the last bit."""
    if p < 0.5:
        return -_t_ppf(1.0 - p, df)
    tail = 1.0 - p
    lo, hi = 0.0, 1.0
    while _t_sf(hi, df) > tail:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if _t_sf(mid, df) > tail:
            lo = mid
        else:
            hi = mid


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) (Numerical Recipes' betacf), modified Lentz."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) >= _TINY else _TINY)
    h = d
    for m in range(1, _MAX_TERMS + 1):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = 1.0 + numerator / c
            c = c if abs(c) >= _TINY else _TINY
            delta = c * d
            h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge: a={a} b={b} x={x}")


def _log_beta_half(a: float) -> float:
    """ln B(a, 1/2).  From a = 20 on, ln Gamma(a + 1/2) - ln Gamma(a) comes from
    the difference of two Stirling series, which keeps the digits that the
    difference of two large ``math.lgamma`` values loses."""
    if a < 20.0:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)

    def stirling_tail(z: float) -> float:  # ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2
        w = 1.0 / (z * z)
        return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / z

    log_ratio = (0.5 * math.log(a) + (a * math.log1p(0.5 / a) - 0.5)
                 + stirling_tail(a + 0.5) - stirling_tail(a))
    return 0.5 * math.log(math.pi) - log_ratio


def _sinhc_power_coefficients(n: int) -> tuple[float, ...]:
    """c_k with ((1 - e^-w) / w)^(-1/2) e^(-w/4) = (sinh(w/2) / (w/2))^(-1/2)
    = sum c_k w^(2k): the power of a power series by J. C. P. Miller's recurrence."""
    s = [1.0 / math.factorial(2 * k + 1) for k in range(n)]  # sinh(v)/v in v^2
    g = [1.0]
    for m in range(1, n):
        g.append(sum((0.5 * k - m) * s[k] * g[m - k] for k in range(1, m + 1)) / m)
    return tuple(gk / 4.0 ** k for k, gk in enumerate(g))  # v = w/2


_SINHC_COEFFICIENTS = _sinhc_power_coefficients(24)


def _beta_large_a(a: float, w0: float) -> float:
    """I_x(a, 1/2) for large a, with x = e^(-w0).

    With s = e^(-w) the integral becomes one of e^(-rate w) w^(-1/2) times an
    even function of w, rate = a - 1/4; expanding that function term by term
    gives a sum of upper incomplete gamma functions Gamma(2k + 1/2, rate w0)
    / rate^(2k + 1/2), computed upward from Gamma(1/2, u) = sqrt(pi) erfc(sqrt(u)).
    The terms fall about as fast as (w0 / 2 pi)^(2k) or faster, and wherever the
    result does not underflow, a >= 500 keeps w0 below 1.5.
    """
    rate = a - 0.25
    u = rate * w0
    if u > 745.0:  # the result is below the smallest double
        return 0.0
    e = math.exp(-u)
    g = math.sqrt(math.pi / rate) * math.erfc(math.sqrt(u))  # Gamma(1/2, u) / rate^(1/2)
    s = 0.5
    total = g
    for c in _SINHC_COEFFICIENTS[1:]:
        for _ in range(2):  # Gamma(s + 1, u) = s Gamma(s, u) + u^s e^-u
            g = (s * g + w0 ** s * e) / rate
            s += 1.0
        term = c * g
        total += term
        if abs(term) <= _EPS * total:
            return total * math.exp(-_log_beta_half(a))
    raise ArithmeticError(f"incomplete beta expansion did not converge: a={a} w0={w0}")
