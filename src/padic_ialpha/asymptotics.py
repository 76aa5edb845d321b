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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (
    AlphaOutOfRange,
    BetaOutOfRange,
    LogDomain,
    NumericContext,
    ParamOutOfRange,
    QOutOfRange,
    TailMismatch,
    _require_finite,
    general_power,
    prefactor,
    unit_kernel_integral,
)
from .radial import RadialFunction, cumulative_ball_integral, outer_expansion

__all__ = [
    "AsymptoticPrediction",
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
    gamma is a nonnegative integer below k.
    """
    if k < 0:
        raise ParamOutOfRange("k must be nonnegative")
    if isinstance(gamma, (int, Fraction)):
        num = Fraction(1)
        for i in range(k):
            num *= gamma - i
        result = num / math.factorial(k)
        return result if ctx is None else ctx.real(result)
    if ctx is not None and not ctx.exact:
        with ctx.workprec():
            g = ctx.real(gamma)
            acc = ctx.real(1)
            for i in range(k):
                acc *= g - i
            return acc / math.factorial(k)
    acc = 1.0
    for i in range(k):
        acc *= float(gamma) - i
    return acc / math.factorial(k)


def _poly_derivative(coeffs: tuple) -> tuple:
    return tuple(i * c for i, c in enumerate(coeffs))[1:] or (Fraction(0),)


@lru_cache(maxsize=None)
def _phi_numerator(k: int) -> tuple:
    """Numerator polynomial of Phi_k(q) = N_k(q) / (1 - q)**(k + 1).

    Recurrence N_k(q) = q * ((1 - q) N_{k-1}'(q) + k N_{k-1}(q)) from
    Phi_k = q d/dq Phi_{k-1}.
    """
    if k == 0:
        return (Fraction(0), Fraction(1))
    prev = _phi_numerator(k - 1)
    deriv = _poly_derivative(prev)
    combined = [Fraction(0)] * max(len(deriv) + 1, len(prev))
    for i, c in enumerate(deriv):
        combined[i] += c
        combined[i + 1] -= c
    for i, c in enumerate(prev):
        combined[i] += k * c
    return (Fraction(0), *combined)  # leading q shifts every power up by one


def phi_sum(k: int, q, ctx: NumericContext):
    """Phi_k(q) = sum_{m>=1} m**k q**m via its exact rational closed form."""
    if k < 0:
        raise ParamOutOfRange("k must be nonnegative")
    qv = ctx.real(q)
    if not 0 < qv < 1:
        raise QOutOfRange(f"q must lie in (0, 1), got {float(q)}")
    with ctx.workprec():
        num = ctx.real(0)
        for c in reversed(_phi_numerator(k)):
            num = num * qv + ctx.real(c)
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
    with ctx.workprec():
        one = ctx.real(1)
        p = ctx.real(ctx.prime)
        bterm = (ctx.p_pow(1 - a) - one) / ((one - ctx.p_pow(-a)) * p)
        series = phi_sum(0, ctx.p_pow(-(m + 1)), ctx) - phi_sum(
            0, ctx.p_pow(-(m + a)), ctx
        )
        return bterm + (one - ctx.p_pow(-1)) * series


def omega(k: int, alpha, beta, ctx: NumericContext):
    """Unit-ball kernel moment against |t|**(-beta) (log|t|)**k.

    The unit sphere contributes only at k = 0 (log|t| vanishes there); the
    spheres |t| < 1 give (1 - 1/p)(-L)**k (Phi_k(p**-(1-beta)) -
    Phi_k(p**-(alpha-beta))).  omega(0, alpha, 0) = 0 by the t -> 1 - t
    symmetry of the Haar measure on the unit ball.
    """
    if k < 0:
        raise ParamOutOfRange("k must be nonnegative")
    b = ctx.real(beta)
    if not 0 <= b < 1:
        raise BetaOutOfRange(f"beta must lie in [0, 1), got {beta}")
    a = ctx.real(alpha)
    if a <= 1:
        raise AlphaOutOfRange(f"alpha must exceed 1, got {alpha}")
    with ctx.workprec():
        one = ctx.real(1)
        unit = one - ctx.p_pow(-1)
        series = phi_sum(k, ctx.p_pow(b - 1), ctx) - phi_sum(
            k, ctx.p_pow(b - a), ctx
        )
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
    if k < 0:
        raise ParamOutOfRange("k must be nonnegative")
    a = ctx.real(alpha)
    if a <= 1:
        raise AlphaOutOfRange(f"alpha must exceed 1, got {alpha}")
    with ctx.workprec():
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
    if n_max < 0:
        raise ParamOutOfRange("n_max must be nonnegative")
    g = ctx.real(gamma)
    if kind == "omega":
        if beta is None:
            raise ParamOutOfRange("kind 'omega' requires beta")
        moments = [omega(k, alpha, beta, ctx) for k in range(n_max + 1)]
    elif kind == "omega_tilde":
        moments = [omega_tilde(k, alpha, ctx) for k in range(n_max + 1)]
    else:
        raise ParamOutOfRange(f"unknown kind {kind!r}")
    with ctx.workprec():
        out = []
        for n in range(n_max + 1):
            acc = ctx.real(0)
            for k in range(n + 1):
                if n - k >= len(a):
                    continue
                acc += (
                    ctx.real(a[n - k])
                    * gen_binomial(g + (k - n), k, ctx)
                    * moments[k]
                )
            out.append(acc)
        return out


def _neg_log_power(ctx: NumericContext, k: int):
    if k == 0:
        return ctx.real(1)
    return (-ctx.log_unit()) ** k


# ---------------------------------------------------------------------------
# Truncated-expansion predictions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticPrediction:
    """A truncated expansion ready for evaluation at a radius p**x_exp.

    Evaluates to prefactor * p**(x_exp*power_exponent) * (log sum), where the
    log sum runs over (log_exponent, coefficient) pairs with exponents
    descending by one.  ``extra_cumulative`` adds the cumulative ball
    integral of the profile inside the bracket; ``power_applies_to_logs``
    distinguishes the recentred critical-decay form (power factor multiplies
    the whole bracket) from its printed variant (power factor on the
    integral only), kept for comparison.
    """

    prefactor: object
    power_exponent: object
    log_terms: tuple
    extra_cumulative: bool = False
    power_applies_to_logs: bool = True

    def __post_init__(self):
        exps = [float(e) for e, _ in self.log_terms]
        for x, y in zip(exps, exps[1:]):
            if abs((x - y) - 1.0) > 1e-9:
                raise ParamOutOfRange("log exponents must descend by exactly 1")

    def evaluate(self, x_exp, ctx: NumericContext, f: RadialFunction | None = None):
        """Value of the truncated expansion at |x| = p**x_exp."""
        x_exp = _require_finite(x_exp, "x_exp")
        with ctx.workprec():
            power = ctx.p_pow(ctx.real(self.power_exponent) * x_exp)
            terms = [(ctx.real(e), ctx.real(c)) for e, c in self.log_terms]
            logs = ctx.real(0)
            if terms:
                log_r = x_exp * ctx.log_unit()
                if log_r <= 0 and any(e != int(e) for e, _ in terms):
                    raise LogDomain(
                        f"non-integer log powers need log radius > 0, got x_exp={x_exp}"
                    )
                for e, coeff in terms:
                    if e == 0:
                        logs += coeff
                    else:
                        logs += coeff * general_power(ctx, log_r, e)
            if not self.extra_cumulative:
                return self.prefactor * power * logs
            if f is None:
                raise ParamOutOfRange("this prediction needs the profile f")
            cumulative = cumulative_ball_integral(f, x_exp, ctx)
            if self.power_applies_to_logs:
                return self.prefactor * power * (cumulative + logs)
            return self.prefactor * (power * cumulative + logs)


def build_origin_prediction(a, scales, order: int, alpha, ctx: NumericContext):
    """Per-scale predictions whose sum is the origin-side truncation."""
    if order < 0:
        raise ParamOutOfRange("at least one expansion term is required")
    if len(a) != len(scales) or len(a) < order + 1:
        raise ParamOutOfRange("need len(a) == len(scales) >= order + 1")
    ms = [ctx.real(m) for m in scales]
    if any(m <= 0 for m in ms) or any(x >= y for x, y in zip(ms, ms[1:])):
        raise ParamOutOfRange("scales must be strictly increasing and positive")
    C = prefactor(ctx, alpha)
    alpha = ctx.real(alpha)
    preds = []
    with ctx.workprec():
        for n in range(order + 1):
            coeff = ctx.real(a[n]) * b_coefficient(ms[n], alpha, ctx)
            preds.append(AsymptoticPrediction(C, ms[n] + alpha, ((0, coeff),)))
    return tuple(preds)


def predict_origin(a, scales, order: int, x_exp, alpha, ctx: NumericContext):
    """Origin-side truncated expansion evaluated at |x| = p**x_exp.

    Exact (within rounding) for profiles that are finite sums of the listed
    monomials.
    """
    preds = build_origin_prediction(a, scales, order, alpha, ctx)
    x_exp = _require_finite(x_exp, "x_exp")
    with ctx.workprec():
        total = ctx.real(0)
        for pred in preds:
            total += pred.evaluate(x_exp, ctx)
        return total


def build_infinity_prediction(
    a, beta, gamma, order: int, alpha, ctx: NumericContext
) -> AsymptoticPrediction:
    """Large-radius log-power prediction for outer decay beta < 1."""
    g = ctx.real(gamma)
    if g < 0:
        raise ParamOutOfRange("gamma must be nonnegative")
    B = series_B(a, g, order, "omega", alpha, ctx, beta=beta)
    terms = tuple((g - n, B[n]) for n in range(order + 1))
    C = prefactor(ctx, alpha)
    return AsymptoticPrediction(C, ctx.real(alpha) - ctx.real(beta), terms)


def predict_infinity(a, beta, gamma, order: int, x_exp, alpha, ctx: NumericContext):
    """Evaluate the beta < 1 large-radius prediction at |x| = p**x_exp."""
    x_exp = _require_finite(x_exp, "x_exp")
    if x_exp < 2:
        raise ParamOutOfRange("large-radius predictions need x_exp >= 2")
    return build_infinity_prediction(a, beta, gamma, order, alpha, ctx).evaluate(
        x_exp, ctx
    )


def build_infinity_beta1_prediction(
    a, gamma, order: int, alpha, ctx: NumericContext, printed_form: bool = False
) -> AsymptoticPrediction:
    """Large-radius prediction for critical outer decay beta = 1.

    The power factor p**(x(alpha-1)) multiplies the whole bracket (cumulative
    integral plus log sum); ``printed_form=True`` evaluates the variant that
    leaves the log sum un-multiplied, kept for comparison.
    """
    g = ctx.real(gamma)
    if g < 0:
        raise ParamOutOfRange("gamma must be nonnegative")
    B = series_B(a, g, order, "omega_tilde", alpha, ctx)
    terms = tuple((g - n, B[n]) for n in range(order + 1))
    C = prefactor(ctx, alpha)
    return AsymptoticPrediction(
        C,
        ctx.real(alpha) - 1,
        terms,
        extra_cumulative=True,
        power_applies_to_logs=not printed_form,
    )


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
    declared = outer_expansion(f)
    if declared is None:
        raise _tail_mismatch(a, gamma)
    d_beta, d_gamma, d_coeffs = declared
    if abs(float(d_beta) - 1.0) > 1e-9 or abs(float(d_gamma) - float(gamma)) > 1e-9:
        raise _tail_mismatch(a, gamma)
    padded = list(d_coeffs) + [0.0] * max(0, len(a) - len(d_coeffs))
    if any(abs(float(x) - float(y)) > 1e-9 for x, y in zip(padded, a)):
        raise _tail_mismatch(a, gamma)
    pred = build_infinity_beta1_prediction(
        a, gamma, order, alpha, ctx, printed_form=printed_form
    )
    return pred.evaluate(x_exp, ctx, f=f)


def _tail_mismatch(a, gamma) -> TailMismatch:
    return TailMismatch(
        f"profile's declared outer tail does not match coeffs={list(a)}, "
        f"gamma={gamma}, beta=1"
    )
