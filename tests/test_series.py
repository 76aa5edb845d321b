"""The closed-form sphere series of padic_ialpha.series against literal sums."""

import math

import pytest
from mpmath import mp

from padic_ialpha import DivergentInnerSum, NumericContext
from padic_ialpha.radial import _RateKernels
from padic_ialpha.series import _power_sum


def literal_sum(m: int, rate: float, p: int, lo, hi, bits: int = 700):
    """sum of j**m p**(j*rate) over lo <= j <= hi at ``bits`` bits; an open
    end (lo None, hi inf) stops where the terms fall below 2**-bits."""
    with mp.workprec(bits):
        z = mp.power(p, mp.mpf(rate))
        decay = abs(rate) * math.log2(p)
        reach = math.ceil((bits + 20 + 8 * m) / decay)  # j**m z**j has fallen by 2**-bits
        if lo is None:
            js, step = range(hi, hi - reach, -1), 1 / z
        else:
            js, step = range(lo, (lo + reach if hi == math.inf else hi) + 1), z
        zj, total = mp.power(z, js[0]), mp.mpf(0)
        for j in js:
            total += mp.mpf(j) ** m * zj
            zj *= step
        return total


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("end", [1, 7])
@pytest.mark.parametrize("rate", [0.3, 1.5, -0.3, -1.5])
@pytest.mark.parametrize("m", range(5))
def test_open_end_matches_a_literal_sum(m, rate, end, p):
    ctx = NumericContext(p)
    lo, hi = (None, end) if rate > 0 else (end, math.inf)
    s, size = _power_sum(_RateKernels(ctx), m, ctx.real(rate), lo, hi)
    want = literal_sum(m, rate, p, lo, hi)
    with mp.workprec(700):
        assert abs(s - want) <= 2.0**-240 * abs(want)
    assert size >= abs(s)


@pytest.mark.parametrize("m", [0, 1, 3])
@pytest.mark.parametrize("rate, lo, hi", [
    (-1.5, None, 4), (0, None, 4), (0, 1, math.inf), (0.3, 1, math.inf),
])
def test_an_open_end_on_the_growing_side_diverges(ctx2, m, rate, lo, hi):
    with pytest.raises(DivergentInnerSum):
        _power_sum(_RateKernels(ctx2), m, ctx2.real(rate), lo, hi)
