"""The semigroup law I^beta I^alpha f = I^(alpha+beta) f as an oracle.

The two sides take different routes through the engine: the left side
walks a table of I^alpha f sphere by sphere, the right side sums f's own
closed forms or log walk.  Each f vanishes on the spheres j <= 0, and the
operator at |x| = p**j reads f on |y| <= |x| only and annihilates
constants, so g = I^alpha f vanishes there too and is exactly the table
of its values on j = 1..60 with a zero inner tail.
"""

import pytest

from padic_ialpha import (
    Indicator,
    LogPower,
    NumericContext,
    Table,
    ZeroTail,
    ialpha_eval,
)

TOP = 60


def table(values):
    return Table(1, tuple(values), ZeroTail())


@pytest.mark.parametrize("f, alpha, beta, p", [
    (Indicator(0), 2.0, 1.5, 3),
    (LogPower(0.5, 2.5), 1.75, 1.5, 2),
    (LogPower(2.0, 1.5), 1.75, 1.5, 2),
], ids=["indicator", "logp-0.5-2.5", "logp-2-1.5"])
@pytest.mark.parametrize("N", [10, TOP])
def test_semigroup_law(f, alpha, beta, p, N):
    ctx = NumericContext(p)
    g = [ialpha_eval(f, j, alpha, ctx) for j in range(1, TOP + 1)]
    left = ialpha_eval(table(v.value for v in g), N, beta, ctx)
    # alpha + beta in the context: summed in doubles it may round
    right = ialpha_eval(f, N, ctx.real(alpha) + ctx.real(beta), ctx)
    # g's own errors, at most its bounds, pushed through I^beta: the kernel
    # weight of each sphere j < N has one sign, so the value on the bounds
    # below N is their push; sphere N enters on its own
    bounds = [v.truncation_bound for v in g[:N]]
    below = ialpha_eval(table(bounds[:-1] + [0]), N, beta, ctx).value
    at_N = ialpha_eval(table([0] * (N - 1) + bounds[-1:]), N, beta, ctx).value
    allowed = left.truncation_bound + right.truncation_bound + abs(below) + abs(at_N)
    assert abs(left.value - right.value) <= allowed
    assert allowed <= 1e-70 * abs(right.value)
