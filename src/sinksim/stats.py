"""Replication statistics: the sample mean and its Student-t confidence
half-width.

The t quantile, and the normal quantile behind its first guess, are
computed here in plain Python, so that a sweep needs neither scipy, numpy
nor `statistics` (which loads `decimal` and `fractions` to compute one
number).  This module imports nothing from sinksim.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_EPS = 2.0**-52
_TINY = 1e-300


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


def _t_excess(t: float, df: float, u: float, c: float) -> float:
    """P(0 < T < t) - c for t > 0, where c = 1/2 - u is the target's central mass.

    The central mass is I_y(1/2, df/2) / 2 and the tail mass 1/2 minus it,
    I_x(df/2, 1/2) / 2, with x = df / (df + t^2) and y = 1 - x.  Each branch
    subtracts the target from the mass it computes (central c or tail u), so
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
        return front * total - c
    # Outside the series' range y > 3 / (2a + 5), so the fraction converges fast.
    return u - 0.5 * front * _beta_cf(a, df / (df + tt)) / a


def _normal_quantile(p: float) -> float:
    """Quantile of the standard normal distribution at `p` in (0, 1).

    Wichura's rational approximations, Algorithm AS241 (Applied Statistics,
    1988), with the coefficients and the order of operations of CPython's
    ``statistics.NormalDist().inv_cdf``, which it equals bit for bit.
    """
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((((2.5090809287301226727e3 * r +
                     3.3430575583588128105e4) * r +
                     6.7265770927008700853e4) * r +
                     4.5921953931549871457e4) * r +
                     1.3731693765509461125e4) * r +
                     1.9715909503065514427e3) * r +
                     1.3314166789178437745e2) * r +
                     3.3871328727963666080e0) * q
        den = (((((((5.2264952788528545610e3 * r +
                     2.8729085735721942674e4) * r +
                     3.9307895800092710610e4) * r +
                     2.1213794301586595867e4) * r +
                     5.3941960214247511077e3) * r +
                     6.8718700749205790830e2) * r +
                     4.2313330701600911252e1) * r +
                     1.0)
        return num / den
    r = math.sqrt(-math.log(p if q <= 0.0 else 1.0 - p))
    if r <= 5.0:
        r = r - 1.6
        num = (((((((7.74545014278341407640e-4 * r +
                     2.27238449892691845833e-2) * r +
                     2.41780725177450611770e-1) * r +
                     1.27045825245236838258e0) * r +
                     3.64784832476320460504e0) * r +
                     5.76949722146069140550e0) * r +
                     4.63033784615654529590e0) * r +
                     1.42343711074968357734e0)
        den = (((((((1.05075007164441684324e-9 * r +
                     5.47593808499534494600e-4) * r +
                     1.51986665636164571966e-2) * r +
                     1.48103976427480074590e-1) * r +
                     6.89767334985100004550e-1) * r +
                     1.67638483018380384940e0) * r +
                     2.05319162663775882187e0) * r +
                     1.0)
    else:
        r = r - 5.0
        num = (((((((2.01033439929228813265e-7 * r +
                     2.71155556874348757815e-5) * r +
                     1.24266094738807843860e-3) * r +
                     2.65321895265761230930e-2) * r +
                     2.96560571828504891230e-1) * r +
                     1.78482653991729133580e0) * r +
                     5.46378491116411436990e0) * r +
                     6.65790464350110377720e0)
        den = (((((((2.04426310338993978564e-15 * r +
                     1.42151175831644588870e-7) * r +
                     1.84631831751005468180e-5) * r +
                     7.86869131145613259100e-4) * r +
                     1.48753612908506148525e-2) * r +
                     1.36929880922735805310e-1) * r +
                     5.99832206555887937690e-1) * r +
                     1.0)
    x = num / den
    return -x if q < 0.0 else x


def _hill_guess(df: float, u: float, c: float) -> float:
    """Upper-tail-u quantile of Student's t after Hill, Algorithm 396 (CACM 1970).

    Exact for df = 1 and 2; otherwise a Cornish-Fisher expansion around the
    normal quantile, or a small-tail series, good to about 1e-5 relative.
    """
    if df == 1:
        return 1.0 / math.tan(math.pi * u)
    if df == 2:
        return 2.0 * c / math.sqrt(2.0 * u * (1.0 - u))
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    g = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + g) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * df
    y = (d * 2.0 * u) ** (2.0 / df)
    if y > 0.05 + a:
        x = _normal_quantile(u)
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


def _t_quantile(p: float, df: float) -> float:
    """Quantile of Student's t with `df` degrees of freedom at probability `p`.

    Hill's guess, then Newton steps on the CDF until a step no longer shrinks
    or falls to rounding level.  Agrees with scipy.stats.t.ppf to 1e-13
    relative for p in [0.95, 0.995] and df up to 1e5.  Beyond df = 1e6, tail
    probabilities under 1e-3 lose digits as x = df / (df + t^2) rounds near 1:
    up to 3e-12 relative at df = 1e7 and 2e-9 at df = 1e9.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p!r}")
    if not df >= 1:
        raise ValueError(f"df must be >= 1, got {df!r}")
    u = min(p, 1.0 - p)  # exact, and the same for p and 1 - p when p > 1/2
    c = 0.5 - u
    if c == 0.0:
        return 0.0
    t = _hill_guess(df, u, c)
    log_norm = -0.5 * math.log(df) - _log_beta_half(0.5 * df)
    last = math.inf
    for _ in range(50):
        density = math.exp(log_norm - 0.5 * (df + 1.0) * math.log1p(t * t / df))
        if density == 0.0:
            break
        step = _t_excess(t, df, u, c) / density
        if not abs(step) < abs(last):  # also stops on nan from an overflowed t^2
            break
        t -= step
        last = step
        if abs(step) <= 4.0 * _EPS * t:
            break
    return t if p > 0.5 else -t


def mean_ci(values: Sequence[float]) -> Tuple[float, float]:
    """Sample mean and Student-t 95% confidence half-width."""
    n = len(values)
    if n == 0:
        return float("nan"), float("nan")
    mean = sum(values) / n
    if n == 1:
        return mean, float("inf")
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = _t_quantile(0.975, n - 1) * math.sqrt(var / n)
    return mean, half
