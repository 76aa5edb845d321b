"""Sphere-sum evaluation of the p-adic fractional integration operator.

For a radial profile f and |x| = p**N the operator value decomposes exactly
over spheres: strictly inner spheres (|y| < |x|) see the constant kernel
p**(N(alpha-1)) - p**(j(alpha-1)) by the ultrametric inequality, while the
sphere |y| = |x| contributes through the unit-sphere kernel integral.
Wherever the profile is exactly c * p**(j*d) the inner spheres form two
geometric series, summed in closed form; only table values and log-power
runs are summed sphere by sphere (:class:`~padic_ialpha.radial.SphereSum`).
A Haar-measure Monte Carlo estimator provides an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import b_coefficient, phi_sum
from .core import (
    ZERO,
    AlphaOutOfRange,
    BetaOutOfRange,
    NumericContext,
    ParamOutOfRange,
    RandomStream,
    _require_finite,
    prefactor,
    sample_kernel_exponents,
    unit_kernel_integral,
)
from .radial import (
    LinearCombo,
    RadialFunction,
    SphereSum,
    eval_sphere,
)

__all__ = [
    "OperatorValue",
    "ialpha_eval",
    "ialpha_monomial_exact",
    "mc_ialpha_eval",
    "smallball_kernel_integral",
]


@dataclass(frozen=True)
class OperatorValue:
    """Operator value at one radius with a certified truncation bound.

    ``j_cut`` is the lowest sphere exponent summed explicitly, one sphere at
    a time; it equals N when every inner sphere came from a closed form.
    """

    value: object
    truncation_bound: object
    j_cut: object

    def __float__(self) -> float:
        return float(self.value)


def ialpha_eval(f: RadialFunction, N, alpha, ctx: NumericContext) -> OperatorValue:
    """Operator value at |x| = p**N for a radial profile.

    The inner spheres j < N are summed by :class:`SphereSum`: closed
    geometric series wherever the profile is exactly c * p**(j*d), explicit
    running-power terms for table values and log-power runs.  Log-power runs
    that decay toward the origin are summed from N - 1 downward and stop
    once their certified remainder is below rel_tol of what was summed.
    The sphere |y| = |x| enters through the unit-sphere kernel integral.
    The bound adds that remainder to a rounding bound on the magnitudes
    summed before cancellation.  N = ZERO integrates over the single point
    0 and returns exactly 0.
    """
    alpha = ctx.real(alpha)
    C = prefactor(ctx, alpha)  # validates alpha
    if N is ZERO:
        zero = ctx.real(0)
        return OperatorValue(zero, zero, ZERO)
    N = _require_finite(N, "radius exponent")

    if isinstance(f, LinearCombo):
        with ctx.workprec():
            value = ctx.real(0)
            bound = ctx.real(0)
            cuts = [N]
            for c, g in f.terms:
                part = ialpha_eval(g, N, alpha, ctx)
                value += ctx.real(c) * part.value
                bound += abs(ctx.real(c)) * part.truncation_bound
                if part.j_cut is not ZERO:
                    cuts.append(part.j_cut)
            return OperatorValue(value, bound, min(cuts))

    with ctx.workprec():
        inner = SphereSum(f, N - 1, ctx, alpha)
        unit = ctx.real(1) - ctx.p_pow(-1)
        ball = inner.K * ctx.p_pow(N)  # p**(N alpha)
        f_N = eval_sphere(f, N, ctx)
        U = unit_kernel_integral(ctx, alpha)
        bracket = unit * inner.total + f_N * ball * (U - unit)
        magnitude = unit * inner.magnitude + abs(f_N) * ball * (U + unit)
        bound = abs(C) * (
            magnitude * ctx.rounding_eps() * (inner.explicit + 16)
            + unit * inner.remainder
        )
        return OperatorValue(C * bracket, bound, inner.low)


def ialpha_monomial_exact(M, N, alpha, ctx: NumericContext):
    """Closed-form operator value for the pure power profile |y|**M.

    For a monomial the expansion C(alpha, p) * b(M) * p**(N(M+alpha)) is
    exact, not merely asymptotic.
    """
    m = ctx.real(M)
    if m <= -1:
        raise ParamOutOfRange("monomial degree must exceed -1")
    C = prefactor(ctx, alpha)
    if N is ZERO:
        return ctx.real(0)
    N = _require_finite(N, "radius exponent")
    with ctx.workprec():
        a = ctx.real(alpha)
        return C * b_coefficient(m, a, ctx) * ctx.p_pow((m + a) * N)


# ---------------------------------------------------------------------------
# Small-ball kernel integral
# ---------------------------------------------------------------------------

def smallball_kernel_integral(k: int, beta, R: int, alpha, ctx: NumericContext):
    """Kernel mass of the ball |t| <= p**(-R) against |t|**(-beta) |log|t||**k.

    On |t| < 1 the kernel reduces to 1 - |t|**(alpha-1) since |1 - t| = 1
    there, so the integral is the sphere series
    (1 - 1/p) L**k sum_{m>=R} m**k (q1**m - q2**m), with q1 = p**(beta-1)
    and q2 = p**(beta-alpha).  Each tail sum has the closed form

        sum_{m>=R} m**k q**m
            = q**R (R**k / (1 - q) + sum_{t=1..k} C(k, t) R**(k-t) Phi_t(q)),

    expanding (R + n)**k binomially.  Its terms are all positive, so only
    the final difference can cancel.  The same formula runs in both
    arithmetic modes; in exact mode it needs integer beta and alpha (and
    base-p logs when k > 0).
    """
    if k < 0:
        raise ParamOutOfRange("k must be nonnegative")
    b = ctx.real(beta)
    if not 0 <= b < 1:
        raise BetaOutOfRange(f"beta must lie in [0, 1), got {beta}")
    if R < 1:
        raise ParamOutOfRange("R must be at least 1")
    a = ctx.real(alpha)
    if a <= 1:
        raise AlphaOutOfRange(f"alpha must exceed 1, got {alpha}")

    with ctx.workprec():
        r = ctx.real(R)

        def tail(q):
            shifted = sum(
                math.comb(k, t) * r ** (k - t) * phi_sum(t, q, ctx)
                for t in range(1, k + 1)
            )
            return q**R * (r**k / (1 - q) + shifted)

        lk = ctx.log_unit() ** k if k else ctx.real(1)
        unit = 1 - ctx.p_pow(-1)
        return unit * lk * (tail(ctx.p_pow(b - 1)) - tail(ctx.p_pow(b - a)))


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------

def mc_ialpha_eval(
    f: RadialFunction,
    N,
    alpha,
    samples: int,
    seed,
    ctx: NumericContext,
    digit_precision: int = 16,
    representative_digits: tuple[int, ...] = (1,),
):
    """Monte Carlo estimate of the operator value at |x| = p**N.

    Draws y from the Haar measure on the ball p**N, fixes the representative
    x = p**(-N) (the operator value depends on |x| only, so the choice is
    immaterial), and averages p**N * C * (|x-y|**(alpha-1) - |y|**(alpha-1))
    * f(|y|).  Returns (estimate, standard error).  Draws whose digits fully
    cancel against the representative are retried at doubled digit precision;
    the sampler error propagates after three escalations.
    """
    if samples < 10_000:
        raise ParamOutOfRange("at least 10^4 samples are required")
    if digit_precision < 8:
        raise ParamOutOfRange("digit_precision must be at least 8")
    C = float(prefactor(ctx, alpha))
    if N is ZERO:
        return 0.0, 0.0
    N = _require_finite(N, "radius exponent")
    stream = seed if isinstance(seed, RandomStream) else RandomStream(seed)
    j, e = sample_kernel_exponents(
        ctx,
        N,
        samples,
        stream,
        digit_window=digit_precision,
        representative_digits=representative_digits,
    )
    p = float(ctx.prime)
    a1 = float(alpha) - 1.0
    j_min = int(j.min())
    values = np.array(
        [float(eval_sphere(f, jj, ctx)) for jj in range(j_min, N + 1)],
        dtype=np.float64,
    )
    fv = values[j - j_min]
    kernel = np.power(p, a1 * e) - np.power(p, a1 * j)
    vals = (C * p**N) * kernel * fv
    estimate = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return estimate, stderr
