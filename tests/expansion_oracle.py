"""The large-radius predictions as the library formed them before the moments
read Phi_k from a shared table of rate kernels.

Each moment reads Phi_k from ``phi_sum`` at q = p**(beta - 1), p**(beta - alpha)
or p**(1 - alpha), every quantity at the context's precision, and the
prediction multiplies out as ``predict_infinity`` and
``predict_infinity_beta1`` do.  The accuracy tests hold the shared kernels
to this formula's error against a reference at a higher precision.
"""

from __future__ import annotations

from padic_ialpha import (
    LogPower,
    cumulative_ball_integral,
    gen_binomial,
    phi_sum,
    prefactor,
    unit_kernel_integral,
)
from padic_ialpha.core import general_power


def constants(alpha, ctx):
    """(C, U, 1 - 1/p) in the context: what a prediction shares with its operator."""
    return prefactor(ctx, alpha), unit_kernel_integral(ctx, alpha), 1 - ctx.p_pow(-1)


def _moment(k, alpha, beta, ctx, U, unit):
    """omega(k) at beta, or omega_tilde(k) when beta is None, from phi_sum."""
    a = ctx.real(alpha)
    log_power = ctx.real(1) if k == 0 else (-ctx.log_unit()) ** k
    if beta is None:
        value = -unit * log_power * phi_sum(k, ctx.p_pow(1 - a), ctx)
        return value + (U - 2 * unit) if k == 0 else value
    b = ctx.real(beta)
    series = phi_sum(k, ctx.p_pow(b - 1), ctx) - phi_sum(k, ctx.p_pow(b - a), ctx)
    value = unit * log_power * series
    return value + (U - unit) if k == 0 else value


def oracle_prediction(kind, gamma, order, x, alpha, ctx, beta=0.5, shared=None):
    """The T3 prediction for LogPower(beta, gamma), or the T4 one for
    LogPower(1, gamma), at |x| = p**x with the one coefficient 1.

    ``shared`` replaces (C, U, 1 - 1/p) by the given values, such as those
    of a context of lower precision.
    """
    C, U, unit = shared or constants(alpha, ctx)
    g = ctx.real(gamma)
    B = [
        ctx.real(0) + ctx.real(1) * gen_binomial(g, n, ctx)
        * _moment(n, alpha, beta if kind == "T3" else None, ctx, U, unit)
        for n in range(order + 1)
    ]
    log_r = x * ctx.log_unit()
    logs = sum(c if g == n else c * general_power(ctx, log_r, g - n) for n, c in enumerate(B))
    if kind == "T3":
        return C * ctx.p_pow((ctx.real(alpha) - ctx.real(beta)) * x) * logs
    P = ctx.p_pow((ctx.real(alpha) - 1) * x)
    return C * P * (cumulative_ball_integral(LogPower(1.0, gamma), x, ctx) + logs)
