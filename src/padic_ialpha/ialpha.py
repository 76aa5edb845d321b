"""Sphere-sum evaluation of the p-adic fractional integration operator.

For a radial profile f and |x| = p**N the operator value decomposes exactly
over spheres: strictly inner spheres (|y| < |x|) see the constant kernel
p**(N(alpha-1)) - p**(j(alpha-1)) by the ultrametric inequality, while the
sphere |y| = |x| contributes through the unit-sphere kernel integral.
Wherever the profile is exactly c * p**(j*d), or a log-power term
(jL)**m p**(-j*beta) with m a nonnegative integer, the inner spheres form
two series summed in closed form; table values and the other log-power
terms form two series K A - B walked sphere by sphere from a start sphere
up (:class:`~padic_ialpha.radial.SphereSum`).  The operator
(:class:`~padic_ialpha.radial._Operator`) lives in ``radial`` and is
profile-free: what depends on neither the profile nor the radius is formed
once per operator, which a scan makes once, and every expansion reads it;
the walks are kept there too, so a scan's rungs share each walk.  Each
public function here makes a fresh one.  The small-ball kernel integral is two
such series with an open end (:mod:`~padic_ialpha.series`).  A Haar-measure
Monte Carlo estimator provides an independent cross-check; it reads the
profile, f(p**N) too, as steps of the same upward walk over the runs.
"""

from __future__ import annotations

import math

from .asymptotics import _b, _beta
from .core import (
    ZERO,
    NumericContext,
    ParamOutOfRange,
    RandomStream,
    _require_count,
    _require_finite,
    sample_kernel_exponents,
)
from .radial import (
    OperatorValue,
    RadialFunction,
    _Operator,
    _at,
    _steps,
    sphere_segments,
)
from .series import _power_sum

__all__ = [
    "OperatorValue",
    "ialpha_eval",
    "ialpha_monomial_exact",
    "mc_ialpha_eval",
    "smallball_kernel_integral",
]


def ialpha_eval(f: RadialFunction, N, alpha, ctx: NumericContext) -> OperatorValue:
    """Operator value at |x| = p**N for a radial profile.

    The profile's runs are built once, on j <= N.  A power run c |y|**d on
    the whole ball |y| <= p**N (a monomial, an indicator whose ball holds
    x, and their sums) has the exact value c C b(d) p**(N(d + alpha)),
    formed as c p**(-alpha) g(d) g(d + alpha + 1) / (g(d + 1) g(d + alpha))
    p**(N(d + alpha)) with g(y) = 1 - p**y formed without cancellation
    (expm1, or p g(y - 1) + 1 - p where its terms share a sign): no pole
    at alpha = 1, exactly 0 at d = 0, and a rounding bound counted factor
    by factor (each exp, each rounded argument and exponent, each product).
    The inner spheres j < N of the other runs
    are summed by one :class:`~padic_ialpha.radial.SphereSum`: closed forms
    wherever the profile is exactly c * p**(j*d) and for the log-power terms
    whose log power is a nonnegative integer, running-power walks for table
    values and the other log-power terms, up to N - 1.  Those that decay
    toward the origin start at the highest sphere whose certified remainder
    below is under rel_tol of what is summed.  The sphere |y| = |x| enters
    through the unit-sphere kernel integral.
    The bound adds that remainder to a rounding bound on the magnitudes
    summed before cancellation, run by run on |y| = |x| as well.  N = ZERO
    integrates over the single point 0 and returns exactly 0.
    """
    return _Operator(alpha, ctx).at(f, N)


def ialpha_monomial_exact(M, N, alpha, ctx: NumericContext):
    """Closed-form operator value for the pure power profile |y|**M.

    For a monomial the expansion C(alpha, p) * b(M) * p**(N(M+alpha)) is
    exact, not merely asymptotic.
    """
    m = ctx.real(M)
    if m <= -1:
        raise ParamOutOfRange("monomial degree must exceed -1")
    op = _Operator(alpha, ctx)
    if N is ZERO:
        return ctx.real(0)
    N = _require_finite(N, "radius exponent")
    return op.C * _b(m, op) * op.kernels.p_pow((m + op.alpha) * N)


# ---------------------------------------------------------------------------
# Small-ball kernel integral
# ---------------------------------------------------------------------------

def smallball_kernel_integral(k: int, beta, R: int, alpha, ctx: NumericContext):
    """Kernel mass of the ball |t| <= p**(-R) against |t|**(-beta) |log|t||**k.

    On |t| < 1 the kernel reduces to 1 - |t|**(alpha-1) since |1 - t| = 1
    there, so the integral is the sphere series
    (1 - 1/p) L**k sum_{m>=R} m**k (q1**m - q2**m), with q1 = p**(beta-1)
    and q2 = p**(beta-alpha): two series sum_{m>=R} m**k p**(m*rate) of
    rates beta - 1 and beta - alpha, each summed in closed form with its
    upper end open (:func:`~padic_ialpha.series._power_sum`).  Each has
    positive terms, so only the final difference can cancel.  The same
    formula runs in both arithmetic modes; in exact mode it needs integer
    beta and alpha (and base-p logs when k > 0).
    """
    return _build_smallball(k, beta, _Operator(alpha, ctx))(R)


def _build_smallball(k: int, beta, op: _Operator):
    """R -> :func:`smallball_kernel_integral` (k, beta, R) at the operator's
    alpha: one check, and the operator's 1 - 1/p and table, for every R."""
    ctx, k = op.ctx, _require_count(k, "k")
    b = _beta(ctx, beta)
    rates = (b - 1, b - op.alpha)
    scale = op.unit * (ctx.log_unit() ** k if k else ctx.real(1))

    def at(R):
        R = _require_finite(R, "R")
        if R < 1:
            raise ParamOutOfRange("R must be at least 1")
        near, far = (_power_sum(op.kernels, k, rate, R, math.inf)[0] for rate in rates)
        return scale * (near - far)

    return at


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------

def mc_ialpha_eval(
    f: RadialFunction, N, alpha, samples: int, seed, ctx: NumericContext
):
    """Monte Carlo estimate of the operator value at |x| = p**N.

    Draws y from the Haar measure on the ball p**N and averages
    p**N * C * (|x-y|**(alpha-1) - |y|**(alpha-1)) * f(|y|) over the draws.
    The draws arrive as counts per (|y|, |x-y|) = (p**j, p**e) cell from
    :func:`~padic_ialpha.core.sample_kernel_exponents`, whose depth law
    does not depend on the point x chosen on the sphere |x| = p**N.

    By ultrametricity e = N or j = N, so a draw's term depends on e - j
    alone, and the cells drawn are contiguous in e - j.  The profile's runs
    are built once, on j <= N, and read with running powers at working
    precision: the kernel power p**((alpha - 1)(N - |e - j|)), and the
    profile stepped up by the runs' upward walk from the deepest sphere
    drawn to N - 1; f(p**N) is the first step of their walks from N, as
    the operator reads it.  A cell no draw fell in forms no term.  The
    sample mean and standard deviation are read from the cell counts.  Returns
    (estimate, standard error).  Raises :class:`OverflowError` before
    drawing when C * p**(N alpha), the scale of the kernel terms, does not
    fit a double, and after drawing when a term does not.
    """
    samples = _require_samples(samples)
    return _mc_eval(f, N, _Operator(alpha, ctx), samples, seed)


def _require_samples(samples) -> int:
    samples = _require_finite(samples, "samples")
    if samples < 10_000:
        raise ParamOutOfRange("at least 10^4 samples are required")
    return samples


def _mc_eval(f: RadialFunction, N, op: _Operator, samples: int, seed):
    """:func:`mc_ialpha_eval` at the operator's alpha, for a checked sample
    count: a ladder of estimates shares one operator."""
    import numpy as np  # only the Monte Carlo path needs numpy

    def double(x) -> float:
        try:
            v = float(x)
        except OverflowError:  # a huge Fraction
            v = math.inf
        if not math.isfinite(v):  # an mpf too large converts to inf
            raise OverflowError(f"estimate overflows a double at x_exp={N}")
        return v

    ctx, a1, C, p_pow = op.ctx, op.a1, op.C, op.kernels.p_pow
    if N is ZERO:
        return 0.0, 0.0
    N = _require_finite(N, "radius exponent")
    scale = C * p_pow(N)
    top = p_pow(a1 * N)  # the largest kernel power, at e = N
    double(scale * top)
    stream = seed if isinstance(seed, RandomStream) else RandomStream(seed)
    j, e, counts = sample_kernel_exponents(ctx, N, samples, stream)
    cells = (e - j).tolist()  # N - j > 0 inside the sphere |y| = p**N, e - N <= 0 on it
    runs = sphere_segments(f, N, ctx)
    f_N = _at(runs, N, op.kernels)[0]
    depth = max(cells[-1], 0)  # N - j on the deepest sphere drawn inside
    walks = [_steps(run, N - depth, op.kernels, 0) for run in runs]
    below = [sum(next(w)[0] for w in walks) for _ in range(depth)]  # j = N - depth ...
    q, kernel = p_pow(-a1), [top]  # kernel[k] = p**((alpha - 1)(N - k))
    while len(kernel) <= max(-cells[0], cells[-1]):
        kernel.append(kernel[-1] * q)
    terms = []
    for d, count in zip(cells, counts.tolist()):
        if not count:
            terms.append(0.0)
        elif d <= 0:
            terms.append(scale * (kernel[-d] - top) * f_N)
        else:
            terms.append(scale * (top - kernel[d]) * below[depth - d])
    values = np.array([double(t) for t in terms])
    # sums over values scaled by a power of two near their largest cannot overflow
    size = 2.0 ** math.frexp(float(np.abs(values).max()))[1]
    unit = values / size
    mean = float(counts @ unit) / samples
    spread = float(counts @ (unit - mean) ** 2)
    return size * mean, size * math.sqrt(spread / (samples - 1) / samples)
