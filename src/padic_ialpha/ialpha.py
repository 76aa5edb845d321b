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
from fractions import Fraction

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
    _require_real,
    prefactor,
    sample_kernel_exponents,
    unit_kernel_integral,
)
from .radial import (
    LinearCombo,
    RadialFunction,
    SphereSum,
    _as_number,
    _mul_exp,
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
    if float(_require_real(M, "monomial degree")) <= -1:
        raise ParamOutOfRange("monomial degree must exceed -1")
    C = prefactor(ctx, alpha)
    if N is ZERO:
        return ctx.real(0)
    N = _require_finite(N, "radius exponent")
    with ctx.workprec():
        return (
            C
            * b_coefficient(M, alpha, ctx)
            * ctx.p_pow((ctx.real(M) + ctx.real(alpha)) * N)
        )


def _diff1(alpha):
    """alpha - 1 without losing exactness for ints and Fractions."""
    if isinstance(alpha, (int, Fraction)):
        return alpha - 1
    return float(alpha) - 1.0


# ---------------------------------------------------------------------------
# Small-ball kernel integral
# ---------------------------------------------------------------------------

def smallball_kernel_integral(k: int, beta, R: int, alpha, ctx: NumericContext):
    """Kernel mass of the ball |t| <= p**(-R) against |t|**(-beta) |log|t||**k.

    On |t| < 1 the kernel reduces to 1 - |t|**(alpha-1) since |1 - t| = 1
    there, so the integral is the sphere series
    sum_{m>=R} (1 - p**(-m(alpha-1))) p**(m beta) (m L)**k (1 - 1/p) p**(-m),
    summed directly with a geometric stopping bound below rel_tol.
    """
    if k < 0:
        raise ParamOutOfRange("k must be nonnegative")
    if not 0 <= float(beta) < 1:
        raise BetaOutOfRange(f"beta must lie in [0, 1), got {beta}")
    if R < 1:
        raise ParamOutOfRange("R must be at least 1")
    if float(alpha) <= 1:
        raise AlphaOutOfRange(f"alpha must exceed 1, got {alpha}")

    if ctx.exact:
        # direct summation cannot terminate exactly; take the series kernel
        # minus its explicit head instead
        unit = ctx.real(1) - ctx.p_pow(-1)
        q1 = ctx.p_pow(-(1 - _as_number(beta)))
        q2 = ctx.p_pow(-(_as_number(alpha) - _as_number(beta)))
        head1 = sum((ctx.real(m) ** k) * q1**m for m in range(1, R))
        head2 = sum((ctx.real(m) ** k) * q2**m for m in range(1, R))
        lk = ctx.log_unit() ** k if k else ctx.real(1)
        return unit * lk * (
            (phi_sum(k, q1, ctx) - head1) - (phi_sum(k, q2, ctx) - head2)
        )

    decay = 1.0 - float(beta)
    with ctx.workprec():
        unit = ctx.real(1) - ctx.p_pow(-1)
        L = ctx.log_unit() if k else None
        total = ctx.real(0)
        m = R
        while True:
            term = (
                (ctx.real(1) - ctx.p_pow(_mul_exp(-_diff1(alpha), m)))
                * ctx.p_pow(_mul_exp(beta, m))
                * ctx.p_pow(-m)
            )
            if k:
                term *= (m * L) ** k
            total += term
            ratio = float(ctx.prime) ** (-decay) * ((m + 1) / m) ** k
            if ratio < 1:
                tail_bound = float(term) * ratio / (1 - ratio)
                if tail_bound < ctx.rel_tol * float(total):
                    break
            m += 1
        return unit * total


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
