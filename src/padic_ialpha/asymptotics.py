"""Closed-form coefficient engines and truncated-expansion predictors.

Every coefficient integral that appears in the operator's expansions (the
power-scale coefficients b(M) near the origin, the log-power moments
omega(k) and omega_tilde(k) at infinity, and their convolutions B_n) reduces
to the series kernel Phi_k(q) = sum_{m>=1} m**k q**m.  Phi_k has an exact
rational closed form generated by the derivative recurrence
Phi_k = q d/dq Phi_{k-1}.  Every real parameter enters through
``NumericContext.real``, so exponents such as M + alpha and beta - alpha
are formed in the context arithmetic.  The direct-summation oracles that
tests compare these closed forms against live in the test suite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import zip_longest

from .core import (
    AlphaOutOfRange,
    BetaOutOfRange,
    LogDomain,
    NumericContext,
    ParamOutOfRange,
    QOutOfRange,
    TailMismatch,
    _require_count,
    _require_finite,
    general_power,
    prefactor,
    unit_kernel_integral,
)
from .radial import RadialFunction, _ball_integral, _RateKernels, outer_expansion

__all__ = [
    "b_coefficient",
    "build_infinity_beta1_prediction",
    "build_infinity_prediction",
    "build_origin_prediction",
    "gen_binomial",
    "omega",
    "omega_tilde",
    "phi_sum",
    "predict_infinity",
    "predict_infinity_beta1",
    "predict_origin",
    "series_B",
]


# ---------------------------------------------------------------------------
# Generalized binomials and the series kernel
# ---------------------------------------------------------------------------

def gen_binomial(gamma, k: int, ctx: NumericContext | None = None):
    """Generalized binomial coefficient gamma (gamma-1) ... (gamma-k+1) / k!.

    Exact for integer or Fraction gamma; terminates with exact zeros when
    gamma is a nonnegative integer below k.  Any other real gamma needs a
    context, which converts it; without one it raises
    :class:`ParamOutOfRange`.
    """
    k = _require_count(k, "k")
    if isinstance(gamma, bool) or not isinstance(gamma, (int, Fraction)):
        if ctx is None:
            raise ParamOutOfRange(f"gamma must be an int or a Fraction, got {gamma!r}")
        gamma = ctx.real(gamma)  # a Fraction in exact mode, else an mpf
    # an int or Fraction gamma is multiplied out exactly and rounded once
    acc = Fraction(1) if isinstance(gamma, (int, Fraction)) else ctx.real(1)
    for i in range(k):
        acc *= gamma - i
    acc /= math.factorial(k)
    return acc if ctx is None else ctx.real(acc)


def _poly_derivative(coeffs: tuple) -> tuple:
    return tuple(i * c for i, c in enumerate(coeffs))[1:] or (0,)


@cache
def _phi_numerator(k: int) -> tuple:
    """Numerator polynomial of Phi_k(q) = N_k(q) / (1 - q)**(k + 1).

    Recurrence N_k(q) = q * ((1 - q) N_{k-1}'(q) + k N_{k-1}(q)) from
    Phi_k = q d/dq Phi_{k-1}.  The coefficients are Eulerian numbers, kept
    as Python ints so that a Horner step adds them exactly.
    """
    if k == 0:
        return (0, 1)
    prev = _phi_numerator(k - 1)
    deriv = _poly_derivative(prev)
    combined = [0] * max(len(deriv) + 1, len(prev))
    for i, c in enumerate(deriv):
        combined[i] += c
        combined[i + 1] -= c
    for i, c in enumerate(prev):
        combined[i] += k * c
    return (0, *combined)  # leading q shifts every power up by one


def phi_sum(k: int, q, ctx: NumericContext):
    """Phi_k(q) = sum_{m>=1} m**k q**m via its exact rational closed form."""
    k = _require_count(k, "k")
    qv = ctx.real(q)
    if not 0 < qv < 1:
        raise QOutOfRange(f"q must lie in (0, 1), got {float(q)}")
    num = ctx.real(0)
    for c in reversed(_phi_numerator(k)):
        num = num * qv + c
    return num / (ctx.real(1) - qv) ** (k + 1)


# ---------------------------------------------------------------------------
# Expansion coefficients
# ---------------------------------------------------------------------------

def b_coefficient(M, alpha, ctx: NumericContext):
    """Power-scale coefficient b(M) of the origin-side expansion.

    b(M) = (p**(1-alpha) - 1) / ((1 - p**(-alpha)) p)
           + (1 - 1/p) * (Phi_0(p**-(M+1)) - Phi_0(p**-(M+alpha))),
    the closed form of the sphere series over |s| < 1 plus the unit-sphere
    term.  b(0) = 0 for every (p, alpha): the operator annihilates constants.
    """
    m = ctx.real(M)
    if m <= -1:
        raise ParamOutOfRange(f"M must exceed -1, got {M}")
    a = ctx.real(alpha)
    if a <= 1:
        raise AlphaOutOfRange(f"alpha must exceed 1, got {alpha}")
    one = ctx.real(1)
    p = ctx.real(ctx.prime)
    bterm = (ctx.p_pow(1 - a) - one) / ((one - ctx.p_pow(-a)) * p)
    series = phi_sum(0, ctx.p_pow(-(m + 1)), ctx) - phi_sum(0, ctx.p_pow(-(m + a)), ctx)
    return bterm + (one - ctx.p_pow(-1)) * series


def omega(k: int, alpha, beta, ctx: NumericContext):
    """Unit-ball kernel moment against |t|**(-beta) (log|t|)**k.

    The unit sphere contributes only at k = 0 (log|t| vanishes there); the
    spheres |t| < 1 give (1 - 1/p)(-L)**k (Phi_k(p**-(1-beta)) -
    Phi_k(p**-(alpha-beta))).  omega(0, alpha, 0) = 0 by the t -> 1 - t
    symmetry of the Haar measure on the unit ball.
    """
    k = _require_count(k, "k")
    b = ctx.real(beta)
    if not 0 <= b < 1:
        raise BetaOutOfRange(f"beta must lie in [0, 1), got {beta}")
    a = ctx.real(alpha)
    if a <= 1:
        raise AlphaOutOfRange(f"alpha must exceed 1, got {alpha}")
    one = ctx.real(1)
    unit = one - ctx.p_pow(-1)
    series = phi_sum(k, ctx.p_pow(b - 1), ctx) - phi_sum(k, ctx.p_pow(b - a), ctx)
    value = unit * _neg_log_power(ctx, k) * series
    if k == 0:
        value += unit_kernel_integral(ctx, a) - unit
    return value


def omega_tilde(k: int, alpha, ctx: NumericContext):
    """Unit-ball moment of the recentred kernel against |t|**(-1) (log|t|)**k.

    On |t| < 1 the recentred kernel reduces to -|t|**(alpha-1), giving
    -(1 - 1/p)(-L)**k Phi_k(p**-(alpha-1)); the unit sphere contributes
    U - 2(1 - 1/p) at k = 0 only (log 1 = 0 kills the higher moments).
    """
    k = _require_count(k, "k")
    a = ctx.real(alpha)
    if a <= 1:
        raise AlphaOutOfRange(f"alpha must exceed 1, got {alpha}")
    one = ctx.real(1)
    unit = one - ctx.p_pow(-1)
    value = -unit * _neg_log_power(ctx, k) * phi_sum(k, ctx.p_pow(1 - a), ctx)
    if k == 0:
        value += unit_kernel_integral(ctx, a) - 2 * unit
    return value


def series_B(a, gamma, n_max: int, kind: str, alpha, ctx: NumericContext, beta=None):
    """Convolved expansion coefficients B_0..B_{n_max}.

    B_n = sum_{k<=n} a_{n-k} * binom(gamma+k-n, k) * moment(k); coefficients
    beyond the supplied list are zero.  ``kind`` selects the plain kernel
    moments ("omega", needs beta) or the recentred ones ("omega_tilde").
    """
    if len(a) == 0:
        raise ParamOutOfRange("coefficient list must be nonempty")
    n_max = _require_count(n_max, "n_max")
    g = ctx.real(gamma)
    if kind == "omega":
        if beta is None:
            raise ParamOutOfRange("kind 'omega' requires beta")
        moments = [omega(k, alpha, beta, ctx) for k in range(n_max + 1)]
    elif kind == "omega_tilde":
        moments = [omega_tilde(k, alpha, ctx) for k in range(n_max + 1)]
    else:
        raise ParamOutOfRange(f"unknown kind {kind!r}")
    out = []
    for n in range(n_max + 1):
        acc = ctx.real(0)
        for k in range(max(0, n - len(a) + 1), n + 1):  # a_{n-k} = 0 beyond the list
            acc += ctx.real(a[n - k]) * gen_binomial(g + (k - n), k, ctx) * moments[k]
        out.append(acc)
    return out


def _neg_log_power(ctx: NumericContext, k: int):
    if k == 0:
        return ctx.real(1)
    return (-ctx.log_unit()) ** k


# ---------------------------------------------------------------------------
# Truncated-expansion predictions
# ---------------------------------------------------------------------------

def _log_sum(a, g, order: int, kind: str, alpha, ctx: NumericContext, beta=None):
    """x_exp -> sum_{n<=order} B_n (x_exp L)**(g - n), with B_n formed once."""
    if g < 0:
        raise ParamOutOfRange("gamma must be nonnegative")
    B = series_B(a, g, order, kind, alpha, ctx, beta=beta)
    terms = [(g - n, B[n]) for n in range(order + 1)]

    def logs(x_exp):
        log_r = x_exp * ctx.log_unit()
        if log_r <= 0 and any(e != int(e) for e, _ in terms):
            raise LogDomain(
                f"non-integer log powers need log radius > 0, got x_exp={x_exp}"
            )
        return sum(
            coeff if e == 0 else coeff * general_power(ctx, log_r, e)
            for e, coeff in terms
        )

    return logs


def build_origin_prediction(a, scales, order: int, alpha, ctx: NumericContext):
    """The origin-side truncation as a function of x_exp.

    C sum_{n<=order} a_n b(M_n) p**(x_exp (M_n + alpha)).
    """
    order = _require_count(order, "order")
    if len(a) != len(scales) or len(a) < order + 1:
        raise ParamOutOfRange("need len(a) == len(scales) >= order + 1")
    ms = [ctx.real(m) for m in scales]
    if any(m <= 0 for m in ms) or any(x >= y for x, y in zip(ms, ms[1:])):
        raise ParamOutOfRange("scales must be strictly increasing and positive")
    alpha = ctx.real(alpha)
    C = prefactor(ctx, alpha)
    terms = [
        (ms[n] + alpha, ctx.real(a[n]) * b_coefficient(ms[n], alpha, ctx))
        for n in range(order + 1)
    ]

    def at(x_exp):
        return sum(C * ctx.p_pow(power * x_exp) * coeff for power, coeff in terms)

    return at


def predict_origin(a, scales, order: int, x_exp, alpha, ctx: NumericContext):
    """Origin-side truncated expansion evaluated at |x| = p**x_exp.

    Exact (within rounding) for profiles that are finite sums of the listed
    monomials.
    """
    x_exp = _require_finite(x_exp, "x_exp")
    return build_origin_prediction(a, scales, order, alpha, ctx)(x_exp)


def build_infinity_prediction(a, beta, gamma, order: int, alpha, ctx: NumericContext):
    """The beta < 1 large-radius truncation as a function of x_exp.

    C p**(x_exp (alpha - beta)) sum_{n<=order} B_n (x_exp L)**(gamma - n).
    """
    logs = _log_sum(a, ctx.real(gamma), order, "omega", alpha, ctx, beta=beta)
    C, power = prefactor(ctx, alpha), ctx.real(alpha) - ctx.real(beta)

    def at(x_exp):
        return C * ctx.p_pow(power * x_exp) * logs(x_exp)

    return at


def predict_infinity(a, beta, gamma, order: int, x_exp, alpha, ctx: NumericContext):
    """Evaluate the beta < 1 large-radius prediction at |x| = p**x_exp."""
    x_exp = _require_finite(x_exp, "x_exp")
    if x_exp < 2:
        raise ParamOutOfRange("large-radius predictions need x_exp >= 2")
    return build_infinity_prediction(a, beta, gamma, order, alpha, ctx)(x_exp)


def build_infinity_beta1_prediction(
    a, gamma, order: int, f: RadialFunction, alpha, ctx: NumericContext,
    printed_form: bool = False,
):
    """The critical-decay (beta = 1) truncation of f as a function of x_exp.

    C P (G + log sum), with P = p**(x_exp (alpha - 1)) and G the cumulative
    ball integral of f; ``printed_form=True`` evaluates the variant
    C (P G + log sum) that leaves the log sum un-multiplied, kept for
    comparison.  f must declare the outer tail beta = 1 with exactly these
    gamma and coefficients.
    """
    g = ctx.real(gamma)
    d_beta, d_gamma, d_coeffs = outer_expansion(f, ctx) or (None, None, ())
    if d_beta != 1 or d_gamma != g or any(
        x != ctx.real(y) for x, y in zip_longest(d_coeffs, a, fillvalue=0)
    ):
        raise TailMismatch(
            f"profile's declared outer tail does not match coeffs={list(a)}, "
            f"gamma={gamma}, beta=1"
        )
    logs = _log_sum(a, g, order, "omega_tilde", alpha, ctx)
    C, power = prefactor(ctx, alpha), ctx.real(alpha) - 1
    kernels = _RateKernels(ctx)  # one table for every x_exp

    def at(x_exp):
        P, G = ctx.p_pow(power * x_exp), _ball_integral(f, x_exp, kernels)
        if printed_form:
            return C * (P * G + logs(x_exp))
        return C * P * (G + logs(x_exp))

    return at


def predict_infinity_beta1(
    a,
    gamma,
    order: int,
    x_exp,
    f: RadialFunction,
    alpha,
    ctx: NumericContext,
    printed_form: bool = False,
):
    """Evaluate the beta = 1 prediction at |x| = p**x_exp for the profile f."""
    x_exp = _require_finite(x_exp, "x_exp")
    if x_exp < 2:
        raise ParamOutOfRange("large-radius predictions need x_exp >= 2")
    return build_infinity_beta1_prediction(
        a, gamma, order, f, alpha, ctx, printed_form=printed_form
    )(x_exp)
