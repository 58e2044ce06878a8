import math
from statistics import NormalDist

from sinksim.stats import _normal_quantile


def test_normal_quantile_is_the_standard_library_s_bit_for_bit():
    # stats carries its own copy so that a sweep need not import statistics.
    # The p values cover the three branches of AS241 on both sides of 1/2:
    # the centre (|p - 1/2| <= 0.425), the tail up to sqrt(-ln p) = 5
    # (p >= e^-25) and the far tail, and the floats on each branch edge.
    edges = [0.075, 0.5, math.exp(-25.0)]
    low = [q for p in edges for q in (math.nextafter(p, 0.0), p, math.nextafter(p, 1.0))]
    low += [i / 4096 for i in range(1, 2048)]  # the centre and the near tail
    low += [10.0 ** (-k / 8) for k in range(8, 8 * 307)]  # down to 1e-307
    low += [5e-324, 2.0**-1022]
    ps = low + [1.0 - p for p in low if 1.0 - p < 1.0]
    branches = {
        "centre": [p for p in ps if abs(p - 0.5) <= 0.425],
        "tail": [p for p in ps if abs(p - 0.5) > 0.425 and math.sqrt(-math.log(min(p, 1.0 - p))) <= 5.0],
        "far tail": [p for p in ps if math.sqrt(-math.log(min(p, 1.0 - p))) > 5.0],
    }
    assert all(len(values) > 100 for values in branches.values())
    reference = NormalDist().inv_cdf
    assert [p for p in ps if _normal_quantile(p).hex() != reference(p).hex()] == []
