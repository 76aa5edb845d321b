"""Residual scans, two-sided bound checks and tail-decay checks.

The harness confronts the sphere-sum evaluator with the truncated
expansions over ladders of radii.  o(.) and O(.) statements are made
assertable on finite data by normalising each residual against the scale of
the first omitted term of the expansion actually evaluated, so "bounded
normalized error" is the finite-ladder proxy for the asymptotic claim.
Each scan makes one profile-free operator
(:class:`~padic_ialpha.radial._Operator`) and evaluates it on the profile
at every rung, so alpha's check, the prefactor, the unit-sphere integral
and the closed forms' rate kernels are formed once per scan, not once per
rung.  Every scan, T1 included, builds its expansion from that operator,
whose table also keeps each power of p: the operator and its expansion
form C, each Phi_k and each power of p once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .asymptotics import _beta1_prediction, _infinity_prediction, _origin_prediction
from .core import (
    HypothesisMismatch,
    NumericContext,
    ParamOutOfRange,
    _require_count,
    _require_finite,
)
from .ialpha import _build_smallball
from .radial import (
    LogPower,
    LogRun,
    PowerRun,
    RadialFunction,
    _ball_integral,
    _Operator,
    _RateKernels,
    _whole_line,
    origin_expansion,
    outer_expansion,
    sphere_segments,
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
    order = _require_count(order, "order")
    ladder = _ladder(ladder)
    op = _Operator(alpha, ctx)
    if theorem == "T1":
        if ladder[-1] > -1:
            raise HypothesisMismatch("origin-side scans need negative exponents")
        terms = _origin(f, order, op, coeffs, scales)
    elif theorem not in ("T3", "T4"):
        raise HypothesisMismatch(
            f"no residual expansion for {theorem!r}; T2 is ratio_bound_check"
        )
    elif ladder[0] < 2:
        raise HypothesisMismatch("large-radius scans need exponents >= 2")
    elif theorem == "T3":
        terms = _infinity(f, order, op, coeffs, beta, gamma)
    else:
        terms = _critical(f, order, op, coeffs, gamma, printed_form)
    params, expansion, omitted = terms
    rows = []
    for x in ladder:
        computed = op.at(f, x).value
        predicted = expansion(x)
        err = abs(computed - predicted)
        rows.append(
            ResidualRow(x, float(computed), float(predicted), float(err),
                        float(err / omitted(x)))
        )
    params = {"alpha": alpha, "p": ctx.prime, **params}
    return ResidualReport(theorem, order, tuple(rows), params)


# Each theorem resolves its parameters (declared or given) and returns
# (params, expansion, omitted): the parameters it echoes, and the
# expansion and the scale of its first omitted term as its builder returns
# them, both functions of the radius exponent.

def _origin(f, order, op, coeffs, scales):
    ctx = op.ctx
    if coeffs is None or scales is None:
        declared = origin_expansion(f, ctx)
        if declared is None:
            raise HypothesisMismatch(
                "profile declares no origin expansion; pass coeffs and scales"
            )
        coeffs, scales = declared
    if len(coeffs) != len(scales) or len(coeffs) < order + 1:
        raise HypothesisMismatch("need len(coeffs) == len(scales) >= order + 1")
    params = {"coeffs": list(coeffs), "scales": list(scales)}
    return (params, *_origin_prediction(coeffs, scales, order, op))


def _infinity(f, order, op, coeffs, beta, gamma):
    ctx = op.ctx
    if coeffs is None or beta is None or gamma is None:
        declared = outer_expansion(f, ctx)
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
    params = {"beta": beta, "gamma": gamma, "coeffs": list(coeffs)}
    return (params, *_infinity_prediction(coeffs, b, ctx.real(gamma), order, op))


def _critical(f, order, op, coeffs, gamma, printed_form):
    ctx = op.ctx
    declared = outer_expansion(f, ctx)
    if coeffs is None or gamma is None:
        if declared is None:
            raise HypothesisMismatch(
                "profile declares no outer expansion; pass coeffs and gamma"
            )
        _, gamma_d, coeffs_d = declared
        gamma = gamma_d if gamma is None else gamma
        coeffs = coeffs_d if coeffs is None else coeffs
    if declared is not None and declared[0] != 1:
        raise HypothesisMismatch("critical-decay scans need outer beta = 1")
    params = {
        "beta": 1.0,
        "gamma": gamma,
        "coeffs": list(coeffs),
        "printed_form": printed_form,
    }
    g = ctx.real(gamma)
    return (params, *_beta1_prediction(coeffs, g, order, f, declared, op, printed_form))


def _ladder(ladder) -> list:
    """The ladder's exponents, each an integer, in increasing order."""
    ladder = sorted(_require_finite(x, "ladder entry") for x in ladder)
    if not ladder:
        raise ParamOutOfRange("ladder must be nonempty")
    return ladder


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
    rows = [(x, float(v / K)) for x, v, K in _ratios(f, ladder, _Operator(alpha, ctx))]
    ratios = [r for _, r in rows]
    return min(ratios), max(ratios), rows


def _ratios(f: RadialFunction, ladder, op: _Operator):
    """(x, |value|, K) per rung of the ladder, K = p**(x(alpha-1)) the radius
    power of :func:`ratio_bound_check`, after its checks of the profile."""
    ladder = _ladder(ladder)
    positive, decay = _two_sided_profile(f, op.ctx)
    if not positive:
        raise HypothesisMismatch(
            "profile is not bounded between positive constants near the origin"
        )
    if decay <= 1:
        raise HypothesisMismatch(
            f"declared outer decay exponent {decay} must exceed 1"
        )
    return [(x, abs(op.at(f, x).value), op.kernels.p_pow(op.a1 * x)) for x in ladder]


def _two_sided_profile(f: RadialFunction, ctx: NumericContext):
    """(bounded between positive constants on |x| <= 1, outer decay exponent).

    Read from the runs: on the spheres j <= 0 the profile must be one
    positive constant run, and it decays like its slowest run that reaches
    infinity (none: decay inf; no declared outer tail: decay 0).
    """
    runs = _whole_line(f, ctx)
    if runs is None:
        return False, 0
    unit = sphere_segments(f, 0, ctx)
    positive = (
        len(unit) == 1
        and isinstance(unit[0], PowerRun)
        and (unit[0].lo, unit[0].hi, unit[0].degree) == (None, 0, 0)
        and unit[0].coeff > 0
    )
    decay = min(
        (r.beta if isinstance(r, LogRun) else -r.degree
         for r in runs if r.hi == math.inf),
        default=math.inf,
    )
    return positive, decay


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
    ladder = _ladder(ladder)
    if which == "L1":
        lam = ctx.real(params["lam"], "lam")
        lam_prime = ctx.real(params["lam_prime"], "lam_prime")
        if not 0 < lam < 1:
            raise ParamOutOfRange(f"lam must lie in (0, 1), got {lam}")
        if lam_prime <= lam:
            raise ParamOutOfRange("lam_prime must exceed lam")
        f = params.get("f") or LogPower(params["lam_prime"], 0.0)
        kernels, rows = _RateKernels(ctx), []
        for m in ladder:
            if m < 1:
                raise ParamOutOfRange("L1 ladder entries must be >= 1")
            g = _ball_integral(f, m, kernels)
            rows.append((m, float(g * ctx.p_pow((lam - 1) * m))))
        return rows
    if which == "L2":
        k = _require_finite(params["k"], "k")
        beta = ctx.real(params["beta"], "beta")
        eps = ctx.real(params["eps"], "eps")
        if eps <= 0 or beta + eps >= 1:
            raise ParamOutOfRange("need eps > 0 and beta + eps < 1")
        kernel, rows = _build_smallball(k, beta, _Operator(params["alpha"], ctx)), []
        for R in ladder:
            if R < 1:
                raise ParamOutOfRange("L2 ladder entries must be >= 1")
            rows.append((R, float(kernel(R) * ctx.p_pow((1 - beta - eps) * R))))
        return rows
    raise ParamOutOfRange(f"unknown decay check {which!r}")
