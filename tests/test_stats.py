import math
import random
from statistics import NormalDist

import pytest

from sinksim.stats import _Z_U, _t975, mean_ci


def test_mean_ci_basics():
    mean, half = mean_ci([1.0, 1.0, 1.0])
    assert mean == 1.0
    assert half == 0.0
    mean, half = mean_ci([0.0, 2.0])
    assert mean == 1.0
    assert half == pytest.approx(12.7062047361747, rel=1e-13)  # t(0.975, 1) * 1
    assert math.isnan(mean_ci([])[0])


def test_mean_ci_adds_left_to_right():
    # On this sample a compensated sum, as the builtin sum() of floats is
    # from Python 3.12 on, gives 4.962471439702336 and 0.17972299787771526.
    rng = random.Random(3)
    values = [rng.random() * 10 for _ in range(1001)]
    assert mean_ci(values) == (4.962471439702335, 0.17972299787771523)


def test_z_u_is_the_standard_library_s_normal_quantile():
    # Hill's first guess needs the normal quantile at the 2.5% tail only, so
    # stats keeps that one value instead of importing statistics.
    assert _Z_U.hex() == NormalDist().inv_cdf(1 - 0.975).hex()


def test_t975_closed_forms():
    p = 0.975
    assert _t975(1) == pytest.approx(math.tan(math.pi * (p - 0.5)), rel=1e-13)
    assert _t975(2) == pytest.approx((2 * p - 1) / math.sqrt(2 * p * (1 - p)), rel=1e-13)


def test_t975_approaches_the_normal_quantile():
    z = NormalDist().inv_cdf(0.975)
    df = 10**8  # first Cornish-Fisher term; the next one is below 1e-16
    assert _t975(df) == pytest.approx(z + (z**3 + z) / (4 * df), rel=1e-14)
    assert _t975(30) > _t975(300) > _t975(3000)


def test_t975_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    dfs = list(range(1, 301)) + sorted({round(10 ** (k / 8)) for k in range(20, 41)})
    worst = 0.0
    for df in dfs:
        expected = float(stats.t.ppf(0.975, df))
        worst = max(worst, abs(_t975(df) - expected) / expected)
    assert worst <= 1e-12
