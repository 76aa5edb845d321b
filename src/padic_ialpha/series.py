"""Closed forms of the sphere series sum_j j**m p**(j*rate) and their kernels.

The operator's sphere sums, its expansion moments and the small-ball
kernel integral are all such series.  :func:`_power_sum` sums one between
two ends, either of which may be open on the decaying side, from a table of
rate kernels; those kernels are the series kernels
Phi_k(q) = sum_{m>=1} m**k q**m (:func:`phi_sum`), exact rational closed
forms from the recurrence Phi_k = q d/dq Phi_{k-1}.  Only this module
reads a kernel entry: the expansion moments take Phi_k through :func:`_phi`.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from functools import cache

from mpmath import mp

from .core import (
    DivergentInnerSum,
    NumericContext,
    QOutOfRange,
    _one_minus_p_pow,
    _require_count,
)

__all__ = ["phi_sum"]


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
    deriv = tuple(i * c for i, c in enumerate(prev))[1:] or (0,)
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


@cache
def _faulhaber_coefficients(m: int) -> tuple:
    """(n_0 ... n_m, D): C(m+1, k) B_k / (m+1) = n_k / D, with B_1 = +1/2."""
    coeffs = []
    for k in range(m + 1):
        b = Fraction(*mp.bernfrac(k))
        coeffs.append(math.comb(m + 1, k) * (-b if k == 1 else b) / (m + 1))
    D = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (D // c.denominator) for c in coeffs), D


def _power_count(m: int, lo: int, hi: int) -> int:
    """Sum of j**m over lo <= j <= hi, exactly: F(hi) - F(lo - 1) in integers.

    F(n) = (1/(m+1)) sum_k C(m+1, k) B_k n**(m+1-k) (DLMF 24.4.7) has
    F(n) - F(n - 1) = n**m for every integer n.
    """
    nums, D = _faulhaber_coefficients(m)
    powers = zip(range(m + 1, 0, -1), nums)
    return sum(c * (hi**e - (lo - 1) ** e) for e, c in powers) // D


def _rate_kernel(ctx: NumericContext, m: int, rate):
    """The part of sum_j j**m p**(j*rate) that does not depend on its ends.

    Formed at working precision, for rate != 0: the geometric denominator
    1 - p**(-rate) when m = 0, else (gctx, grate, phis, ends), the guarded
    context of :func:`_power_sum`, the rate and Phi_0(w) ... Phi_m(w) in it,
    and a dict in which :func:`_power_sum` keeps the far ends it forms.  The
    expansion moments read their Phi_k from the same entries (:func:`_phi`).
    """
    if m == 0:
        return _one_minus_p_pow(ctx, -rate)
    if not ctx.exact:
        gap = -math.log2(_one_minus_p_pow(ctx, -abs(rate)))
        guard = (m + 1) * max(0, math.ceil(gap)) + 8
        ctx = replace(ctx, precision_bits=ctx.precision_bits + guard)
    w = ctx.p_pow(-abs(rate))
    phis = [1 / (1 - w)] + [phi_sum(t, w, ctx) for t in range(1, m + 1)]
    return ctx, ctx.real(rate), phis, {}


def _phi(kernels, M: int, k: int, rate):
    """Phi_k(w), w = p**-rate, k <= M, from the kernel ``kernels.at(M, rate)``
    (:func:`_rate_kernel`): (1 - d) / d from its denominator d = 1 - w at
    M = 0, else its 1 / (1 - w) = 1 + Phi_0 and Phi_1 ... Phi_M at the
    guard precision."""
    if M == 0:
        d = kernels.at(0, rate)
        return (1 - d) / d
    phis = kernels.at(M, rate)[2]
    return phis[k] if k else phis[0] - 1


def _power_sum(kernels, m: int, rate, lo, hi):
    """(S, size): S = sum of j**m p**(j*rate) over lo <= j <= hi, in closed form.

    An end may be open on the side where the terms decay: ``lo = None``
    runs to -inf when rate > 0, ``hi = math.inf`` to +inf when rate < 0;
    an open end adds nothing, and one on the growing side raises
    :class:`DivergentInnerSum`.  ``size`` is the sum of the absolute values
    of the terms the closed form adds.  What does not depend on lo and hi
    comes from ``kernels.at(m, rate)`` (:func:`_rate_kernel`), in the
    context ``kernels.ctx``, and each power of p at working precision from
    ``kernels.p_pow``.

    * m = 0 is a geometric series, formed through expm1.
    * rate = 0 is Faulhaber's polynomial, exact before its one rounding.
    * Otherwise let z = p**rate, w = p**(-|rate|), Phi_0(w) = 1/(1 - w) and
      Phi_t the series kernel of :func:`phi_sum`.  Summing each end's
      geometric tail with (x -/+ n)**m expanded binomially gives, for
      rate > 0, S = z**hi G(hi) - z**(lo-1) G(lo-1) with
      G(x) = sum_t C(m, t) x**(m-t) (-1)**t Phi_t(w); for rate < 0,
      S = z**lo H(lo) - z**(hi+1) H(hi+1) with
      H(x) = sum_t C(m, t) x**(m-t) Phi_t(w).
      Phi_m grows like (1 - w)**-(m+1) while S does not, so near rate 0
      the two ends cancel; they are formed with
      (m + 1) * ceil(log2 1/(1 - w)) + 8 guard bits.  ``size`` counts every
      term of both ends at that precision.
    """
    ctx = kernels.ctx
    if lo is None:
        if rate <= 0:
            raise DivergentInnerSum(
                f"inner degree {rate - 1} is not integrable at the origin"
            )
        if m == 0:
            s = kernels.p_pow(rate * hi) / kernels.at(0, rate)
            return s, s
    elif hi == math.inf:
        if rate >= 0:
            raise DivergentInnerSum(f"the series of rate {rate} diverges at infinity")
        if m == 0:
            s = -kernels.p_pow(rate * (lo - 1)) / kernels.at(0, rate)
            return s, s
    elif rate == 0:
        s = ctx.real(Fraction(_power_count(m, lo, hi)))
        return s, abs(s)
    elif m == 0:
        s = (
            kernels.p_pow(rate * hi)
            * _one_minus_p_pow(ctx, -rate * (hi - lo + 1))
            / kernels.at(0, rate)
        )
        return s, s
    # rate * x rounds in the guarded context too; the results enter working
    # precision as the right operand of a product at working precision
    ctx, rate, phis, ends = kernels.at(m, rate)
    sign, (near, far) = (-1, (hi, lo)) if rate > 0 else (1, (lo, hi))

    def end(x):
        terms = [
            math.comb(m, t) * sign**t * x ** (m - t) * phis[t]
            for t in range(m + 1)
        ]
        z = ctx.p_pow(rate * x)
        return z * sum(terms), z * sum(abs(t) for t in terms)

    s, size = end(near)
    if far is None or far == math.inf:  # an open end adds nothing
        return s, size
    x = far + sign  # lo - 1 or hi + 1; a scan's rungs share a fixed lo's end
    if x not in ends:
        ends[x] = end(x)
    b, size_b = ends[x]
    return s - b, size + size_b
