"""Closed-form coefficient engines and truncated-expansion predictors.

Every coefficient integral that appears in the operator's expansions (the
power-scale coefficients b(M) near the origin, the log-power moments
omega(k) and omega_tilde(k) at infinity, and their convolutions B_n) reduces
to the series kernel Phi_k(q) = sum_{m>=1} m**k q**m, an exact rational
closed form (:func:`~padic_ialpha.series.phi_sum`).  Those constants depend
on alpha and p only, so every one of them, and each expansion's single
builder, reads a profile-free operator (:class:`~padic_ialpha.radial._Operator`):
its C, U, 1 - 1/p and its table of rate kernels and powers of p.  A scan
passes its own operator, so the operator and its expansion form each Phi_k
and each power of p once; each public function makes a fresh one.  A
builder returns its expansion and the scale of the expansion's first
omitted term, by which a scan normalises its residuals.  Every
real parameter enters through ``NumericContext.real``, so exponents such as
M + alpha and beta - alpha are formed in the context arithmetic.  The
direct-summation oracles that tests compare these closed forms against live
in the test suite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

from .core import (
    BetaOutOfRange,
    LogDomain,
    NumericContext,
    ParamOutOfRange,
    TailMismatch,
    _require_count,
    _require_finite,
    general_power,
)
from .radial import RadialFunction, _ball_integral, _Operator, outer_expansion
from .series import _phi, phi_sum

__all__ = [
    "b_coefficient",
    "gen_binomial",
    "omega",
    "omega_tilde",
    "predict_infinity",
    "predict_infinity_beta1",
    "predict_origin",
    "series_B",
]


# ---------------------------------------------------------------------------
# Generalized binomials
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
    return _b(m, _Operator(alpha, ctx))


def _b(m, op: _Operator):
    """b(M) at a checked M = m, from the operator's alpha, 1 - 1/p and powers of p."""
    ctx, a, p_pow = op.ctx, op.alpha, op.kernels.p_pow
    bterm = (p_pow(-op.a1) - 1) / ((1 - p_pow(-a)) * ctx.prime)
    series = phi_sum(0, p_pow(-(m + 1)), ctx) - phi_sum(0, p_pow(-(m + a)), ctx)
    return bterm + op.unit * series


def omega(k: int, alpha, beta, ctx: NumericContext):
    """Unit-ball kernel moment against |t|**(-beta) (log|t|)**k.

    The unit sphere contributes only at k = 0 (log|t| vanishes there); the
    spheres |t| < 1 give (1 - 1/p)(-L)**k (Phi_k(p**-(1-beta)) -
    Phi_k(p**-(alpha-beta))).  omega(0, alpha, 0) = 0 by the t -> 1 - t
    symmetry of the Haar measure on the unit ball.  Phi_k is read from a
    fresh operator's table (:func:`_moment`).
    """
    k = _require_count(k, "k")
    b = _beta(ctx, beta)
    return _moment(k, k, b, _Operator(alpha, ctx))


def omega_tilde(k: int, alpha, ctx: NumericContext):
    """Unit-ball moment of the recentred kernel against |t|**(-1) (log|t|)**k.

    On |t| < 1 the recentred kernel reduces to -|t|**(alpha-1), giving
    -(1 - 1/p)(-L)**k Phi_k(p**-(alpha-1)); the unit sphere contributes
    U - 2(1 - 1/p) at k = 0 only (log 1 = 0 kills the higher moments).
    Phi_k is read from a fresh operator's table (:func:`_moment`).
    """
    k = _require_count(k, "k")
    return _moment(k, k, None, _Operator(alpha, ctx))


def _moment(k: int, M: int, b, op: _Operator):
    """omega(k) at a checked b, or omega_tilde(k) when b is None, with Phi_k
    read from the operator's table at the rates 1 - b, (1 - b) + (a - 1)
    and a - 1, and U and 1 - 1/p from the operator."""
    kernels, a1, unit = op.kernels, op.a1, op.unit
    if b is None:
        series, units = -_phi(kernels, M, k, a1), 2
    else:
        rate = 1 - b
        series, units = _phi(kernels, M, k, rate) - _phi(kernels, M, k, rate + a1), 1
    value = unit * ((-op.ctx.log_unit()) ** k if k else 1) * series
    return value + (op.U - units * unit) if k == 0 else value


def series_B(a, gamma, n_max: int, kind: str, alpha, ctx: NumericContext, beta=None):
    """Convolved expansion coefficients B_0..B_{n_max}.

    B_n = sum_{k<=n} a_{n-k} * binom(gamma+k-n, k) * moment(k); coefficients
    beyond the supplied list are zero.  ``kind`` selects the plain kernel
    moments ("omega", needs beta) or the recentred ones ("omega_tilde").
    The moments read Phi_k from a fresh operator's table.
    """
    n_max = _require_count(n_max, "n_max")
    if kind not in ("omega", "omega_tilde"):
        raise ParamOutOfRange(f"unknown kind {kind!r}")
    if kind == "omega" and beta is None:
        raise ParamOutOfRange("kind 'omega' requires beta")
    beta = _beta(ctx, beta) if kind == "omega" else None
    return _series_B(a, ctx.real(gamma), n_max, beta, _Operator(alpha, ctx))


def _series_B(a, g, n_max: int, beta, op: _Operator):
    """:func:`series_B` at checked parameters (beta None: omega_tilde), its
    moments read at M = max(n_max, g) for a whole g, where the operator sums
    (jL)**g p**(-j*beta), else at n_max: M depends on nothing a table held."""
    if len(a) == 0:
        raise ParamOutOfRange("coefficient list must be nonempty")
    M = max(n_max, int(g)) if g == int(g) else n_max
    moments = [_moment(k, M, beta, op) for k in range(n_max + 1)]
    ctx = op.ctx
    out = []
    for n in range(n_max + 1):
        acc = ctx.real(0)
        for k in range(max(0, n - len(a) + 1), n + 1):  # a_{n-k} = 0 beyond the list
            acc += ctx.real(a[n - k]) * gen_binomial(g + (k - n), k, ctx) * moments[k]
        out.append(acc)
    return out


def _beta(ctx: NumericContext, beta):
    b = ctx.real(beta, "beta")
    if not 0 <= b < 1:
        raise BetaOutOfRange(f"beta must lie in [0, 1), got {beta}")
    return b


def _large_radius(x_exp) -> int:
    x_exp = _require_finite(x_exp, "x_exp")
    if x_exp < 2:
        raise ParamOutOfRange("large-radius predictions need x_exp >= 2")
    return x_exp


# ---------------------------------------------------------------------------
# Truncated-expansion predictions
# ---------------------------------------------------------------------------

def _log_sum(a, g, order: int, beta, op: _Operator):
    """(x_exp -> sum_{n<=order} B_n (x_exp L)**(g - n), with B_n formed once,
    x_exp -> |x_exp L|**(g - order - 1), the log power of the first omitted term)."""
    if g < 0:
        raise ParamOutOfRange("gamma must be nonnegative")
    B = _series_B(a, g, order, beta, op)
    terms = [(g - n, B[n]) for n in range(order + 1)]
    ctx = op.ctx

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

    def next_log(x_exp):
        return abs(general_power(ctx, x_exp * ctx.log_unit(), g - (order + 1)))

    return logs, next_log


def _origin_prediction(a, scales, order: int, op: _Operator):
    """(expansion, omitted) as functions of the integer x_exp: the origin-side
    truncation C sum_{n<=order} a_n b(M_n) p**(x_exp (M_n + alpha)), and
    p**(x_exp (M + alpha)), the scale of its first omitted term, at the next
    listed scale M; the last listed scale + 1 stands in when the list is
    exhausted (exact finite expansions)."""
    ctx = op.ctx
    if len(a) != len(scales) or len(a) < order + 1:
        raise ParamOutOfRange("need len(a) == len(scales) >= order + 1")
    ms = [ctx.real(m) for m in scales]
    if any(m <= 0 for m in ms) or any(x >= y for x, y in zip(ms, ms[1:])):
        raise ParamOutOfRange("scales must be strictly increasing and positive")
    terms = [
        (ms[n] + op.alpha, ctx.real(a[n]) * _b(ms[n], op)) for n in range(order + 1)
    ]
    p_pow = op.kernels.p_pow
    omitted = ms[order + 1] + op.alpha if len(ms) > order + 1 else ms[order] + 1 + op.alpha

    def at(x_exp):
        x_exp = _require_finite(x_exp, "x_exp")
        return sum(op.C * p_pow(power * x_exp) * coeff for power, coeff in terms)

    return at, lambda x_exp: p_pow(omitted * x_exp)


def predict_origin(a, scales, order: int, x_exp, alpha, ctx: NumericContext):
    """Origin-side truncated expansion evaluated at |x| = p**x_exp.

    Exact (within rounding) for profiles that are finite sums of the listed
    monomials.
    """
    order = _require_count(order, "order")
    return _origin_prediction(a, scales, order, _Operator(alpha, ctx))[0](x_exp)


def _infinity_prediction(a, b, g, order: int, op: _Operator):
    """(expansion, omitted) as functions of x_exp >= 2 for the beta < 1
    large-radius truncation at checked b and g:
    C p**(x_exp (alpha - b)) sum_{n<=order} B_n (x_exp L)**(g - n), and
    p**(x_exp (alpha - b)) |x_exp L|**(g - order - 1)."""
    logs, next_log = _log_sum(a, g, order, b, op)
    power, p_pow = op.alpha - b, op.kernels.p_pow

    def at(x_exp):
        x_exp = _large_radius(x_exp)
        return op.C * p_pow(power * x_exp) * logs(x_exp)

    return at, lambda x_exp: p_pow(power * x_exp) * next_log(x_exp)


def predict_infinity(a, beta, gamma, order: int, x_exp, alpha, ctx: NumericContext):
    """Evaluate the beta < 1 large-radius prediction at |x| = p**x_exp."""
    order, b = _require_count(order, "order"), _beta(ctx, beta)
    op = _Operator(alpha, ctx)
    return _infinity_prediction(a, b, ctx.real(gamma), order, op)[0](x_exp)


def _beta1_prediction(a, g, order: int, f, declared, op: _Operator, printed_form):
    """(expansion, omitted) as functions of x_exp >= 2 for the critical-decay
    (beta = 1) truncation of f.

    The expansion is C P (G + log sum), with P = p**(x_exp (alpha - 1)) and
    G the cumulative ball integral of f, and its first omitted term has the
    scale P |x_exp L|**(g - order - 1).  ``printed_form`` evaluates the
    variant C (P G + log sum) that leaves the log sum un-multiplied, kept
    for comparison; its omitted term carries no P.  f's declared outer
    tail must be beta = 1 with exactly these g and coefficients.
    """
    d_beta, d_gamma, d_coeffs = declared or (None, None, ())
    if d_beta != 1 or d_gamma != g or any(
        x != op.ctx.real(y) for x, y in zip_longest(d_coeffs, a, fillvalue=0)
    ):
        raise TailMismatch(
            f"profile's declared outer tail does not match coeffs={list(a)}, "
            f"gamma={g}, beta=1"
        )
    logs, next_log = _log_sum(a, g, order, None, op)
    power, C, kernels = op.a1, op.C, op.kernels

    def at(x_exp):
        x_exp = _large_radius(x_exp)
        P, G = kernels.p_pow(power * x_exp), _ball_integral(f, x_exp, kernels)
        if printed_form:
            return C * (P * G + logs(x_exp))
        return C * P * (G + logs(x_exp))

    def omitted(x_exp):
        term = next_log(x_exp)
        return term if printed_form else kernels.p_pow(power * x_exp) * term

    return at, omitted


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
    order = _require_count(order, "order")
    op = _Operator(alpha, ctx)
    declared = outer_expansion(f, ctx)
    g = ctx.real(gamma)
    return _beta1_prediction(a, g, order, f, declared, op, printed_form)[0](x_exp)
