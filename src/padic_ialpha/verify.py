"""Residual scans, two-sided bound checks and tail-decay checks.

The harness confronts the sphere-sum evaluator with the truncated
expansions over ladders of radii.  o(.) and O(.) statements are made
assertable on finite data by normalising each residual against the scale of
the first omitted term of the expansion actually evaluated, so "bounded
normalized error" is the finite-ladder proxy for the asymptotic claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .asymptotics import (
    predict_infinity,
    predict_infinity_beta1,
    predict_origin,
)
from .core import (
    HypothesisMismatch,
    NumericContext,
    ParamOutOfRange,
    _require_finite,
    general_power,
)
from .ialpha import ialpha_eval, smallball_kernel_integral
from .radial import (
    Indicator,
    LinearCombo,
    LogPower,
    Monomial,
    PowerTail,
    RadialFunction,
    Table,
    cumulative_ball_integral,
    origin_expansion,
    outer_expansion,
)

__all__ = [
    "ResidualReport",
    "ResidualRow",
    "lemma_decay_check",
    "ratio_bound_check",
    "residual_scan",
]


@dataclass(frozen=True)
class ResidualRow:
    x_exp: int
    computed: float
    predicted: float
    abs_err: float
    normalized_err: float


@dataclass(frozen=True)
class ResidualReport:
    """Per-radius comparison of computed operator values to a prediction."""

    theorem: str
    order: int
    rows: tuple[ResidualRow, ...]
    params: dict = field(default_factory=dict)


def residual_scan(
    theorem: str,
    f: RadialFunction,
    order: int,
    ladder,
    alpha,
    ctx: NumericContext,
    *,
    coeffs=None,
    scales=None,
    beta=None,
    gamma=None,
    printed_form: bool = False,
) -> ResidualReport:
    """Compare operator values against a truncated expansion over a ladder.

    ``theorem`` selects the expansion: "T1" is the origin-side power
    expansion (negative exponents; needs coeffs and scales unless f declares
    them), "T3" the large-radius log-power expansion for outer decay
    beta < 1, "T4" the critical-decay beta = 1 form (``printed_form``
    switches to its printed variant).  Expansion parameters default to the
    profile's declared tails.  Each residual is normalised by the first
    omitted term of the evaluated expansion.
    """
    ladder = sorted(_require_finite(x, "ladder entry") for x in ladder)
    if not ladder:
        raise ParamOutOfRange("ladder must be nonempty")
    if theorem == "T1":
        return _scan_origin(f, order, ladder, alpha, ctx, coeffs, scales)
    if theorem == "T3":
        return _scan_infinity(f, order, ladder, alpha, ctx, coeffs, beta, gamma)
    if theorem == "T4":
        return _scan_critical(
            f, order, ladder, alpha, ctx, coeffs, gamma, printed_form
        )
    raise HypothesisMismatch(
        f"no residual expansion for {theorem!r}; T2 is ratio_bound_check"
    )


def _scan_origin(f, order, ladder, alpha, ctx, coeffs, scales):
    if ladder[-1] > -1:
        raise HypothesisMismatch("origin-side scans need negative exponents")
    if coeffs is None or scales is None:
        declared = origin_expansion(f)
        if declared is None:
            raise HypothesisMismatch(
                "profile declares no origin expansion; pass coeffs and scales"
            )
        coeffs, scales = declared
    if len(coeffs) != len(scales) or len(coeffs) < order + 1:
        raise HypothesisMismatch("need len(coeffs) == len(scales) >= order + 1")
    # scale of the first omitted term; the last listed scale + 1 stands in
    # when the expansion is exhausted (exact finite expansions)
    a = ctx.real(alpha)
    if len(scales) > order + 1:
        next_scale = ctx.real(scales[order + 1])
    else:
        next_scale = ctx.real(scales[order]) + 1
    rows = []
    with ctx.workprec():
        for x in ladder:
            computed = ialpha_eval(f, x, a, ctx).value
            predicted = predict_origin(coeffs, scales, order, x, a, ctx)
            err = abs(computed - predicted)
            scale = ctx.p_pow((next_scale + a) * x)
            rows.append(
                ResidualRow(x, float(computed), float(predicted), float(err),
                            float(err / scale))
            )
    params = {
        "alpha": alpha,
        "p": ctx.prime,
        "coeffs": list(coeffs),
        "scales": list(scales),
    }
    return ResidualReport("T1", order, tuple(rows), params)


def _scan_infinity(f, order, ladder, alpha, ctx, coeffs, beta, gamma):
    if ladder[0] < 2:
        raise HypothesisMismatch("large-radius scans need exponents >= 2")
    declared = outer_expansion(f)
    if coeffs is None or beta is None or gamma is None:
        if declared is None:
            raise HypothesisMismatch(
                "profile declares no outer expansion; pass coeffs, beta, gamma"
            )
        beta_d, gamma_d, coeffs_d = declared
        beta = beta_d if beta is None else beta
        gamma = gamma_d if gamma is None else gamma
        coeffs = coeffs_d if coeffs is None else coeffs
    b = ctx.real(beta)
    if not 0 <= b < 1:
        raise HypothesisMismatch(f"outer decay beta={beta} is not in [0, 1)")
    a, g = ctx.real(alpha), ctx.real(gamma)
    rows = []
    with ctx.workprec():
        for x in ladder:
            computed = ialpha_eval(f, x, a, ctx).value
            predicted = predict_infinity(coeffs, b, g, order, x, a, ctx)
            err = abs(computed - predicted)
            scale = ctx.p_pow((a - b) * x) * _log_power_scale(
                ctx, x, g - (order + 1)
            )
            rows.append(
                ResidualRow(x, float(computed), float(predicted), float(err),
                            float(err / scale))
            )
    params = {
        "alpha": alpha,
        "p": ctx.prime,
        "beta": beta,
        "gamma": gamma,
        "coeffs": list(coeffs),
    }
    return ResidualReport("T3", order, tuple(rows), params)


def _scan_critical(f, order, ladder, alpha, ctx, coeffs, gamma, printed_form):
    if ladder[0] < 2:
        raise HypothesisMismatch("large-radius scans need exponents >= 2")
    declared = outer_expansion(f)
    if coeffs is None or gamma is None:
        if declared is None:
            raise HypothesisMismatch(
                "profile declares no outer expansion; pass coeffs and gamma"
            )
        beta_d, gamma_d, coeffs_d = declared
        gamma = gamma_d if gamma is None else gamma
        coeffs = coeffs_d if coeffs is None else coeffs
    if declared is not None and abs(float(declared[0]) - 1.0) > 1e-9:
        raise HypothesisMismatch("critical-decay scans need outer beta = 1")
    a, g = ctx.real(alpha), ctx.real(gamma)
    rows = []
    with ctx.workprec():
        for x in ladder:
            computed = ialpha_eval(f, x, a, ctx).value
            predicted = predict_infinity_beta1(
                coeffs, g, order, x, f, a, ctx, printed_form=printed_form
            )
            err = abs(computed - predicted)
            # first omitted term of the form actually evaluated: the printed
            # variant carries no radius power on its log sum
            scale = _log_power_scale(ctx, x, g - (order + 1))
            if not printed_form:
                scale = scale * ctx.p_pow((a - 1) * x)
            rows.append(
                ResidualRow(x, float(computed), float(predicted), float(err),
                            float(err / scale))
            )
    params = {
        "alpha": alpha,
        "p": ctx.prime,
        "beta": 1.0,
        "gamma": gamma,
        "coeffs": list(coeffs),
        "printed_form": printed_form,
    }
    return ResidualReport("T4", order, tuple(rows), params)


def _log_power_scale(ctx, x_exp, exponent):
    if exponent == 0:
        return ctx.real(1)
    return abs(general_power(ctx, x_exp * ctx.log_unit(), exponent))


# ---------------------------------------------------------------------------
# Two-sided bound
# ---------------------------------------------------------------------------

def ratio_bound_check(f: RadialFunction, ladder, alpha, ctx: NumericContext):
    """Ratios |operator value| / p**(x(alpha-1)) over a ladder.

    Returns (c_hat, d_hat, rows) with the min and max observed ratio.
    Absolute values are taken because the operator's prefactor is negative
    for alpha > 1; a bounded spread d_hat/c_hat is the finite evidence for
    the two-sided comparison with the radius power.

    The profile must be bounded between positive constants near the origin
    and decay strictly faster than |x|**(-1) at infinity, judged from its
    declared form and tails.
    """
    ladder = sorted(_require_finite(x, "ladder entry") for x in ladder)
    if not ladder:
        raise ParamOutOfRange("ladder must be nonempty")
    a = ctx.real(alpha)
    positive, decay = _two_sided_profile(f)
    if not positive:
        raise HypothesisMismatch(
            "profile is not bounded between positive constants near the origin"
        )
    if decay <= 1:
        raise HypothesisMismatch(
            f"declared outer decay exponent {decay} must exceed 1"
        )
    rows = []
    with ctx.workprec():
        for x in ladder:
            value = ialpha_eval(f, x, a, ctx).value
            ratio = abs(value) / ctx.p_pow((a - 1) * x)
            rows.append((x, float(ratio)))
    ratios = [r for _, r in rows]
    return min(ratios), max(ratios), rows


def _two_sided_profile(f: RadialFunction):
    """(bounded below by a positive constant near 0, outer decay exponent)."""
    if isinstance(f, Indicator):
        return f.n >= 0, math.inf
    if isinstance(f, LogPower):
        if float(f.gamma) == 0:
            return True, float(f.beta)
        return False, float(f.beta)
    if isinstance(f, Monomial):
        return float(f.degree) == 0, -float(f.degree)
    if isinstance(f, Table):
        tail = f.inner_tail
        near0 = (
            isinstance(tail, PowerTail)
            and float(tail.degree) == 0
            and float(tail.coeff) > 0
        )
        # a declared OuterTail decays at most like |x|**(-1), which cannot
        # certify the required strictly-faster-than-1 outer hypothesis
        return near0, 1.0 if f.outer_tail is not None else 0.0
    if isinstance(f, LinearCombo):
        if not f.terms:
            return False, math.inf
        positive_somewhere = False
        decay = math.inf
        for c, g in f.terms:
            if float(c) <= 0:
                return False, 0.0
            pos, d = _two_sided_profile(g)
            positive_somewhere = positive_somewhere or pos
            decay = min(decay, d)
        return positive_somewhere, decay
    return False, 0.0


# ---------------------------------------------------------------------------
# Tail-decay checks
# ---------------------------------------------------------------------------

def lemma_decay_check(which: str, params: dict, ladder, ctx: NumericContext):
    """Normalised tail-decay rows backing the two integral decay bounds.

    "L1": rows G(p**m) * p**(-m(1-lam)) for the cumulative integral G of a
    profile decaying like |y|**(-lam_prime) with lam_prime > lam; the rows
    must decrease toward 0.  Params: lam, lam_prime, optional f.

    "L2": rows K(p**R) * p**(R(1-beta-eps)) for the small-ball kernel
    integral; the rows must stay bounded.  Params: k, beta, eps, alpha.
    """
    ladder = sorted(_require_finite(x, "ladder entry") for x in ladder)
    if not ladder:
        raise ParamOutOfRange("ladder must be nonempty")
    if which == "L1":
        lam = ctx.real(params["lam"])
        lam_prime = ctx.real(params["lam_prime"])
        if not 0 < lam < 1:
            raise ParamOutOfRange(f"lam must lie in (0, 1), got {lam}")
        if lam_prime <= lam:
            raise ParamOutOfRange("lam_prime must exceed lam")
        f = params.get("f") or LogPower(params["lam_prime"], 0.0)
        rows = []
        with ctx.workprec():
            for m in ladder:
                if m < 1:
                    raise ParamOutOfRange("L1 ladder entries must be >= 1")
                g = cumulative_ball_integral(f, m, ctx)
                rows.append((m, float(g * ctx.p_pow((lam - 1) * m))))
        return rows
    if which == "L2":
        k = int(params["k"])
        beta = ctx.real(params["beta"])
        eps = ctx.real(params["eps"])
        alpha = ctx.real(params["alpha"])
        if eps <= 0 or beta + eps >= 1:
            raise ParamOutOfRange("need eps > 0 and beta + eps < 1")
        rows = []
        with ctx.workprec():
            for R in ladder:
                if R < 1:
                    raise ParamOutOfRange("L2 ladder entries must be >= 1")
                kr = smallball_kernel_integral(k, beta, R, alpha, ctx)
                rows.append((R, float(kr * ctx.p_pow((1 - beta - eps) * R))))
        return rows
    raise ParamOutOfRange(f"unknown decay check {which!r}")
