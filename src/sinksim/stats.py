"""Replication statistics: the sample mean and its Student-t confidence
half-width.

The 97.5% t quantile is computed here in plain Python, so that a sweep
needs neither scipy, numpy nor `statistics` (which loads `decimal` and
`fractions`).  Its first guess needs one normal quantile, at 2.5%, kept as a
constant.  This module imports nothing from sinksim.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_EPS = 2.0**-52
_TINY = 1e-300
# The upper tail of the 95% half-width, the central mass above 0 it leaves,
# and the normal quantile at that tail: statistics.NormalDist().inv_cdf(_U),
# bit for bit.
_U = 1.0 - 0.975
_C = 0.5 - _U
_Z_U = -1.9599639845400536


def _log_beta_half(a: float) -> float:
    """ln B(a, 1/2).

    For large `a` the lgamma difference would cancel, so ln(Gamma(a + 1/2) /
    Gamma(a)) comes from its Stirling series instead (coefficients
    (2^(1-2k) - 2) B_2k / (2k (2k-1)); the first term left out is 4e-16 at
    a = 15).
    """
    if a < 15.0:
        return math.lgamma(a) + _LOG_SQRT_PI - math.lgamma(a + 0.5)
    r = 1.0 / a
    r2 = r * r
    series = r * (1 / 8 - r2 * (1 / 192 - r2 * (1 / 640 - r2 * (17 / 14336 - r2 * 31 / 18432))))
    return _LOG_SQRT_PI - 0.5 * math.log(a) + series


def _beta_cf(a: float, x: float) -> float:
    """Continued fraction of I_x(a, 1/2) a B(a, 1/2) / (x^a (1-x)^(1/2)) (DLMF 8.17.22).

    Modified Lentz evaluation; converges fast for x < (a + 1) / (a + 5/2).
    """
    c = 1.0
    d = 1.0 / (1.0 - (a + 0.5) * x / (a + 1.0))
    h = d
    for m in range(1, 1000):
        num = m * (0.5 - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 / ((1.0 + num * d) or _TINY)
        c = (1.0 + num / c) or _TINY
        h *= d * c
        num = -(a + m) * (a + 0.5 + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 / ((1.0 + num * d) or _TINY)
        c = (1.0 + num / c) or _TINY
        h *= d * c
        if abs(d * c - 1.0) < _EPS:
            break
    return h


def _t_excess(t: float, df: float) -> float:
    """P(0 < T < t) - _C for t > 0.

    The central mass is I_y(1/2, df/2) / 2 and the tail mass 1/2 minus it,
    I_x(df/2, 1/2) / 2, with x = df / (df + t^2) and y = 1 - x.  Each branch
    subtracts the target from the mass it computes (central _C or tail _U), so
    no branch takes a small difference of its own result.  Near the centre of
    a large-df distribution the continued fraction needs O(sqrt(df)) terms;
    the power series (DLMF 8.17.8) needs a few dozen there, and its bound
    (a + 1/2) y <= 5 keeps the tail it leaves to the subtraction above 1e-3.
    """
    a = 0.5 * df
    tt = t * t
    y = tt / (df + tt)
    front = math.exp(0.5 * math.log(y) - a * math.log1p(tt / df) - _log_beta_half(a))
    if y <= 0.5 and (a + 0.5) * y <= 5.0:
        term = total = 1.0
        k = 0.0
        while term > _EPS * total:
            term *= (a + 0.5 + k) / (1.5 + k) * y
            total += term
            k += 1.0
        return front * total - _C
    # Outside the series' range y > 3 / (2a + 5), so the fraction converges fast.
    return _U - 0.5 * front * _beta_cf(a, df / (df + tt)) / a


def _hill_guess(df: int) -> float:
    """Upper-tail-_U quantile of Student's t after Hill, Algorithm 396 (CACM 1970).

    Exact for df = 1 and 2; otherwise a Cornish-Fisher expansion around the
    normal quantile, or a small-tail series, good to about 1e-5 relative.
    """
    if df == 1:
        return 1.0 / math.tan(math.pi * _U)
    if df == 2:
        return 2.0 * _C / math.sqrt(2.0 * _U * (1.0 - _U))
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    g = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + g) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * df
    y = (d * 2.0 * _U) ** (2.0 / df)
    if y > 0.05 + a:
        x = _Z_U
        y = x * x
        if df < 5:
            g += 0.3 * (df - 4.5) * (x + 0.6)
        g += (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / g - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    else:
        y = (
            (1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0) + 0.5 / (df + 4.0)) * y
            - 1.0
        ) * (df + 1.0) / (df + 2.0) + 1.0 / y
    return math.sqrt(df * y)


def _t975(df: int) -> float:
    """The 97.5% quantile of Student's t with `df` >= 1 degrees of freedom.

    Hill's guess, then Newton steps on the CDF until a step no longer shrinks
    or falls to rounding level.  Agrees with scipy.stats.t.ppf to 1e-13
    relative for df up to 1e5.
    """
    t = _hill_guess(df)
    log_norm = -0.5 * math.log(df) - _log_beta_half(0.5 * df)
    last = math.inf
    for _ in range(50):
        density = math.exp(log_norm - 0.5 * (df + 1.0) * math.log1p(t * t / df))
        step = _t_excess(t, df) / density
        if not abs(step) < abs(last):
            break
        t -= step
        last = step
        if abs(step) <= 4.0 * _EPS * t:
            break
    return t


def mean_ci(values: Sequence[float]) -> Tuple[float, float]:
    """Sample mean and Student-t 95% confidence half-width."""
    n = len(values)
    if n == 0:
        return float("nan"), float("nan")
    mean = sum(values) / n
    if n == 1:
        return mean, float("inf")
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = _t975(n - 1) * math.sqrt(var / n)
    return mean, half
