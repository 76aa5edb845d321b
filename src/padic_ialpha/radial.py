"""Radial profiles f(|x|_p) with declared tails and certified ball integrals.

A radial function is determined by its values on the sphere radii p**j.  The
forms below carry enough tail information (a power model toward the origin,
an optional log-power model toward infinity) for every downstream sphere sum
to be truncated with a computed, not estimated, remainder.

Sphere sums see a profile as runs of exponents (:func:`sphere_segments`).
Wherever the profile is exactly c * p**(j*d) the run is summed as a
geometric series in closed form; only tabulated values and log-power runs
are summed sphere by sphere, with running powers, from the top down.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from mpmath import mp

from .core import (
    ZERO,
    DivergentInnerSum,
    MissingTail,
    NumericContext,
    ParamOutOfRange,
    UndefinedAtZero,
    _require_finite,
    _require_real,
    general_power,
)

__all__ = [
    "Indicator",
    "LinearCombo",
    "LogPower",
    "LogRun",
    "Monomial",
    "OuterTail",
    "PowerRun",
    "PowerTail",
    "RadialFunction",
    "SphereSum",
    "Table",
    "ValueRun",
    "ZeroTail",
    "cumulative_ball_integral",
    "eval_sphere",
    "origin_expansion",
    "outer_expansion",
    "sphere_segments",
]


# ---------------------------------------------------------------------------
# Tail declarations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerTail:
    """Inner tail model f(p**j) = coeff * p**(j*degree) for small radii.

    degree > -1 keeps the inner sphere sum convergent.
    """

    coeff: float = 1.0
    degree: float = 0.0

    def __post_init__(self):
        _require_real(self.coeff, "inner tail coefficient")
        if float(_require_real(self.degree, "inner tail degree")) <= -1:
            raise ParamOutOfRange("inner tail degree must exceed -1")


@dataclass(frozen=True)
class ZeroTail:
    """Inner tail model f = 0 for small radii."""


@dataclass(frozen=True)
class OuterTail:
    """Large-radius model f(p**j) ~ p**(-j*beta) * sum_k coeffs[k] * log(p**j)**(gamma-k)."""

    beta: float
    gamma: float
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not 0 <= float(_require_real(self.beta, "outer tail beta")) <= 1:
            raise ParamOutOfRange("outer tail beta must lie in [0, 1]")
        if float(_require_real(self.gamma, "outer tail gamma")) < 0:
            raise ParamOutOfRange("outer tail gamma must be nonnegative")
        if len(self.coeffs) == 0:
            raise ParamOutOfRange("outer tail needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        for a in self.coeffs:
            _require_real(a, "outer tail coefficient")


# ---------------------------------------------------------------------------
# Profile forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Monomial:
    """f(|x|) = |x|**degree; degree > -1 keeps f integrable at the origin."""

    degree: float

    def __post_init__(self):
        if float(_require_real(self.degree, "monomial degree")) <= -1:
            raise ParamOutOfRange("monomial degree must exceed -1")


@dataclass(frozen=True)
class LogPower:
    """f(|x|) = |x|**(-beta) * log(|x|)**gamma on |x| > 1.

    On |x| <= 1 the profile takes the capped boundary value: 0 for gamma > 0
    (log 1 = 0) and 1 for gamma = 0 (the pure power frozen at |x| = 1).  Only
    the large-radius behaviour matters downstream; the choice near the origin
    is bounded and explicit.
    """

    beta: float
    gamma: float = 0.0

    def __post_init__(self):
        _require_real(self.beta, "beta")
        if float(_require_real(self.gamma, "gamma")) < 0:
            raise ParamOutOfRange("gamma must be nonnegative")


@dataclass(frozen=True)
class Indicator:
    """f = 1 on the ball |x| <= p**n, else 0."""

    n: int


@dataclass(frozen=True)
class Table:
    """Sphere values on a contiguous exponent range with declared tails.

    ``values[i]`` is f(p**(j_lo + i)).  Evaluation below the range uses the
    inner tail model, above the range the outer tail model; silent
    extrapolation is forbidden.
    """

    j_lo: int
    values: tuple
    inner_tail: Union[PowerTail, ZeroTail, None]
    outer_tail: OuterTail | None = None

    def __post_init__(self):
        if len(self.values) == 0:
            raise ParamOutOfRange("a table needs at least one value")
        object.__setattr__(self, "values", tuple(self.values))
        for v in self.values:
            _require_real(v, "table value")

    @property
    def j_hi(self) -> int:
        return self.j_lo + len(self.values) - 1

    @classmethod
    def from_values(cls, values: dict, inner_tail, outer_tail=None) -> "Table":
        """Build from an exponent -> value mapping covering a contiguous range."""
        keys = sorted(values)
        if keys != list(range(keys[0], keys[-1] + 1)):
            raise ParamOutOfRange("table exponents must form a contiguous range")
        return cls(keys[0], tuple(values[k] for k in keys), inner_tail, outer_tail)


@dataclass(frozen=True)
class LinearCombo:
    """Weighted sum of radial profiles."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((c, f) for c, f in self.terms))
        for c, _ in self.terms:
            _require_real(c, "linear combination coefficient")


RadialFunction = Union[Monomial, LogPower, Indicator, Table, LinearCombo]


# ---------------------------------------------------------------------------
# Point evaluation
# ---------------------------------------------------------------------------

def eval_sphere(f: RadialFunction, j, ctx: NumericContext):
    """Value of the profile on the sphere |x| = p**j (j = ZERO: limit at 0)."""
    with ctx.workprec():
        if j is ZERO:
            return _value_at_origin(f, ctx)
        j = _require_finite(j, "sphere exponent")
        if isinstance(f, Monomial):
            return ctx.p_pow(ctx.real(f.degree) * j)
        if isinstance(f, LogPower):
            if j <= 0:
                return ctx.real(1) if float(f.gamma) == 0 else ctx.real(0)
            return _log_power_value(ctx, j, f.beta, f.gamma)
        if isinstance(f, Indicator):
            return ctx.real(1) if j <= f.n else ctx.real(0)
        if isinstance(f, Table):
            if f.j_lo <= j <= f.j_hi:
                return ctx.real(f.values[j - f.j_lo])
            if j < f.j_lo:
                return _inner_tail_value(f.inner_tail, j, ctx)
            return _outer_tail_value(f.outer_tail, j, ctx)
        if isinstance(f, LinearCombo):
            total = ctx.real(0)
            for c, g in f.terms:
                total += ctx.real(c) * eval_sphere(g, j, ctx)
            return total
    raise TypeError(f"not a radial function: {f!r}")


def _value_at_origin(f: RadialFunction, ctx: NumericContext):
    if isinstance(f, Monomial):
        d = float(f.degree)
        if d > 0:
            return ctx.real(0)
        if d == 0:
            return ctx.real(1)
        raise UndefinedAtZero("negative-degree monomial has no limit at 0")
    if isinstance(f, LogPower):
        return ctx.real(1) if float(f.gamma) == 0 else ctx.real(0)
    if isinstance(f, Indicator):
        return ctx.real(1)
    if isinstance(f, Table):
        tail = f.inner_tail
        if tail is None:
            raise MissingTail("table has no inner tail")
        if isinstance(tail, ZeroTail):
            return ctx.real(0)
        d = float(tail.degree)
        if d > 0:
            return ctx.real(0)
        if d == 0:
            return ctx.real(tail.coeff)
        raise UndefinedAtZero("negative-degree inner tail has no limit at 0")
    if isinstance(f, LinearCombo):
        total = ctx.real(0)
        for c, g in f.terms:
            total += ctx.real(c) * _value_at_origin(g, ctx)
        return total
    raise TypeError(f"not a radial function: {f!r}")


def _log_power_value(ctx: NumericContext, j: int, beta, gamma):
    value = ctx.p_pow(-ctx.real(beta) * j)
    if float(gamma) != 0:
        value = value * general_power(ctx, j * ctx.log_unit(), gamma)
    return value


def _inner_tail_value(tail, j: int, ctx: NumericContext):
    if tail is None:
        raise MissingTail(f"no inner tail declared below the table range (j={j})")
    if isinstance(tail, ZeroTail):
        return ctx.real(0)
    return ctx.real(tail.coeff) * ctx.p_pow(ctx.real(tail.degree) * j)


def _outer_tail_value(tail, j: int, ctx: NumericContext):
    if tail is None:
        raise MissingTail(f"no outer tail declared above the table range (j={j})")
    log_r = j * ctx.log_unit()
    gamma = ctx.real(tail.gamma)
    value = ctx.real(0)
    for k, a in enumerate(tail.coeffs):
        value += ctx.real(a) * general_power(ctx, log_r, gamma - k)
    return ctx.p_pow(-ctx.real(tail.beta) * j) * value


def _as_number(x):
    return x if isinstance(x, (int, Fraction)) else float(x)


def _mul_exp(degree, j: int):
    return _as_number(degree) * j


# ---------------------------------------------------------------------------
# Sphere segments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerRun:
    """f(p**j) = coeff * p**(j*degree) exactly for lo <= j <= hi.

    ``lo=None`` means the run reaches down to the origin.
    """

    lo: int | None
    hi: int
    coeff: object
    degree: object


@dataclass(frozen=True)
class ValueRun:
    """Tabulated values f(p**(lo + i)) = values[i]."""

    lo: int
    values: tuple

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1


@dataclass(frozen=True)
class LogRun:
    """f(p**j) = p**(-j*beta) * sum_k coeffs[k] * (j*L)**(gamma-k), lo <= j <= hi."""

    lo: int
    hi: int
    beta: object
    gamma: object
    coeffs: tuple


def sphere_segments(f: RadialFunction, top: int, ctx: NumericContext) -> list:
    """The profile on the spheres j <= top as runs, highest first.

    Runs on which the profile vanishes are left out.  Every scalar is in
    the context arithmetic, so exponents built from it (degree + 1,
    degree + alpha, ...) never round through float64.
    """
    real = ctx.real
    one = real(1)
    if isinstance(f, Monomial):
        return [PowerRun(None, top, one, real(f.degree))]
    if isinstance(f, Indicator):
        return [PowerRun(None, min(f.n, top), one, real(0))]
    if isinstance(f, LogPower):
        if float(f.gamma) != 0:
            if top < 1:
                return []
            return [LogRun(1, top, real(f.beta), real(f.gamma), (one,))]
        runs = [PowerRun(1, top, one, -real(f.beta))] if top >= 1 else []
        return runs + [PowerRun(None, min(top, 0), one, real(0))]
    if isinstance(f, Table):
        inner, outer = f.inner_tail, f.outer_tail
        if inner is None:
            raise MissingTail("table has no inner tail")
        runs = []
        if top > f.j_hi:
            if outer is None:
                raise MissingTail(
                    f"no outer tail declared above the table range (j={top})"
                )
            coeffs = tuple(real(a) for a in outer.coeffs)
            runs.append(
                LogRun(f.j_hi + 1, top, real(outer.beta), real(outer.gamma), coeffs)
            )
        if top >= f.j_lo:
            values = f.values[: top - f.j_lo + 1]
            runs.append(ValueRun(f.j_lo, tuple(real(v) for v in values)))
        if isinstance(inner, PowerTail):
            hi = min(top, f.j_lo - 1)
            runs.append(PowerRun(None, hi, real(inner.coeff), real(inner.degree)))
        return runs
    raise TypeError(f"no sphere segments for {f!r}")


# ---------------------------------------------------------------------------
# The sphere sum shared by ball integrals and operator values
# ---------------------------------------------------------------------------

def _one_minus_p_pow(ctx: NumericContext, x):
    """1 - p**x, through expm1 so that no digits cancel when x is near 0."""
    if ctx.exact:
        return 1 - ctx.p_pow(x)
    return -mp.expm1(x * mp.log(ctx.prime))


def _geometric(ctx: NumericContext, rate, lo, hi: int):
    """Sum of p**(j*rate) over lo <= j <= hi; lo = None runs to -inf (rate > 0)."""
    if lo is None:
        if rate <= 0:
            raise DivergentInnerSum(
                f"inner degree {rate - 1} is not integrable at the origin"
            )
        return ctx.p_pow(rate * hi) / _one_minus_p_pow(ctx, -rate)
    if rate == 0:
        return ctx.real(hi - lo + 1)
    return (
        ctx.p_pow(rate * hi)
        * _one_minus_p_pow(ctx, -rate * (hi - lo + 1))
        / _one_minus_p_pow(ctx, -rate)
    )


class SphereSum:
    """Sum over the spheres j <= top of f(p**j) * p**j * w(j).

    The Haar factor 1 - 1/p is left to the caller.  Ball integrals take
    w = 1.  The operator at |x| = p**N takes top = N - 1 and the kernel
    frozen on each inner sphere, w(j) = K * (1 - q**(N-j)) with
    K = p**(N(alpha-1)) and q = p**(-(alpha-1)).

    ``total`` is the sum; ``magnitude`` bounds the size of what was added
    before any cancellation, which is what rounding errors scale with;
    ``remainder`` is the certified bound on the spheres that top-down
    truncation skipped; ``explicit`` counts the spheres summed one by one
    and ``low`` is the lowest of them (top + 1 when there is none).
    """

    def __init__(self, f: RadialFunction, top: int, ctx: NumericContext, alpha=None):
        self.ctx, self.top = ctx, top
        zero = ctx.real(0)
        if alpha is None:
            self.a1, self.K = None, ctx.real(1)
        else:
            self.a1 = ctx.real(alpha) - 1
            self.K = ctx.p_pow(self.a1 * (top + 1))
        self.total = self.magnitude = self.abs_total = self.remainder = zero
        self.explicit, self.low = 0, top + 1
        for run in sphere_segments(f, top, ctx):
            if isinstance(run, PowerRun):
                self._add_power(run)
            elif isinstance(run, ValueRun):
                self._add_explicit(run.hi, _value_steps(ctx, run))
            else:
                self._add_explicit(run.hi, _log_steps(ctx, run))

    def _add_power(self, run: PowerRun):
        rate = run.degree + 1
        g = self.K * _geometric(self.ctx, rate, run.lo, run.hi)
        if self.a1 is None:
            part, size = g, g
        else:
            g2 = _geometric(self.ctx, rate + self.a1, run.lo, run.hi)
            part, size = g - g2, g + g2
        self.total += run.coeff * part
        self.magnitude += abs(run.coeff) * size
        self.abs_total += abs(run.coeff * part)

    def _add_explicit(self, hi: int, steps):
        """Sum the spheres hi, hi - 1, ... that ``steps`` yields.

        ``steps`` yields (f(p**j) * p**j, rest) per sphere, where rest is
        None or bounds the run's terms below j divided by K.  The sum stops
        once K * rest falls below rel_tol of everything summed so far, and
        K * rest joins the remainder.
        """
        ctx, K = self.ctx, self.K
        if self.a1 is None:
            Q = q = ctx.real(0)
        else:
            Q = ctx.p_pow(-self.a1 * (self.top + 1 - hi))
            q = ctx.p_pow(-self.a1)
        one, tol = ctx.real(1), ctx.real(ctx.rel_tol)
        above = self.abs_total / K
        run_sum = run_size = run_abs = ctx.real(0)
        j = hi
        for u, rest in steps:
            term = u * (one - Q)
            run_sum += term
            run_size += abs(u)
            run_abs += abs(term)
            self.explicit += 1
            self.low = j
            if rest is not None and rest < tol * (above + run_abs):
                self.remainder += K * rest
                break
            Q *= q
            j -= 1
        self.total += K * run_sum
        self.magnitude += K * run_size
        self.abs_total += K * run_abs


def _value_steps(ctx: NumericContext, run: ValueRun):
    """(f(p**j) * p**j, None) for j = hi down to lo, p**j a running power."""
    pj = ctx.p_pow(run.hi)
    down = 1 / ctx.real(ctx.prime)
    for v in reversed(run.values):
        yield v * pj, None
        pj *= down


def _log_steps(ctx: NumericContext, run: LogRun):
    """(f(p**j) * p**j, rest_j) for j = hi down to lo.

    f(p**j) * p**j = s_j * sum_k a_k (jL)**(gamma-k) with s_j = p**(j(1-beta))
    a running power.  When 1 - beta > 0 and lo >= 1 the run decays
    downward, and rest_j = E_j * s_j * rho bounds the sum of its terms
    below j: E_j bounds the log factor on lo <= j' < j, taking each power
    at j where it grows and at lo where it falls, and
    rho = p**(-(1-beta)) / (1 - p**(-(1-beta))) sums the geometric decay.
    Exact mode sums every sphere.
    """
    gamma, coeffs = run.gamma, run.coeffs
    decay = 1 - run.beta
    s = ctx.p_pow(decay * run.hi)
    down = ctx.p_pow(-decay)
    L = ctx.log_unit()
    truncate = not ctx.exact and decay > 0 and run.lo >= 1
    if truncate:
        rho = down / (1 - down)
        falling = sum(
            abs(a) * general_power(ctx, run.lo * L, gamma - k)
            for k, a in enumerate(coeffs)
            if gamma - k < 0
        )
    for j in range(run.hi, run.lo - 1, -1):
        logs = [
            general_power(ctx, j * L, gamma - k) if gamma != k else 1
            for k in range(len(coeffs))
        ]
        u = s * sum(a * x for a, x in zip(coeffs, logs))
        rest = None
        if truncate and j > run.lo:
            growing = sum(
                abs(a) * x
                for k, (a, x) in enumerate(zip(coeffs, logs))
                if gamma - k >= 0
            )
            rest = (growing + falling) * s * rho
        yield u, rest
        s *= down


def cumulative_ball_integral(f: RadialFunction, n, ctx: NumericContext):
    """Integral of f over the ball |y| <= p**n via sphere decomposition.

    Runs where the profile is exactly c * p**(j*d) (its declared inner model
    among them) are summed in closed form; table values and log-power runs
    are summed sphere by sphere.  A log-power run that decays toward the
    origin is summed from the top and stops once its certified remainder
    falls below rel_tol of what was summed.
    """
    if n is ZERO:
        return ctx.real(0)
    n = _require_finite(n)
    with ctx.workprec():
        if isinstance(f, LinearCombo):
            total = ctx.real(0)
            for c, g in f.terms:
                total += ctx.real(c) * cumulative_ball_integral(g, n, ctx)
            return total
        return (ctx.real(1) - ctx.p_pow(-1)) * SphereSum(f, n, ctx).total


# ---------------------------------------------------------------------------
# Declared expansions (used to match profiles against predictions)
# ---------------------------------------------------------------------------

def origin_expansion(f: RadialFunction):
    """Declared origin-side monomial expansion (coeffs, degrees), or None.

    Only pure monomials and linear combinations of monomials expose one;
    tabulated profiles must be given their expansion explicitly.
    """
    if isinstance(f, Monomial):
        return (1.0,), (f.degree,)
    if isinstance(f, LinearCombo):
        pairs = []
        for c, g in f.terms:
            if not isinstance(g, Monomial):
                return None
            pairs.append((float(g.degree), float(c)))
        pairs.sort()
        degrees = tuple(d for d, _ in pairs)
        if any(x >= y for x, y in zip(degrees, degrees[1:])):
            return None
        return tuple(c for _, c in pairs), degrees
    return None


def outer_expansion(f: RadialFunction):
    """Declared large-radius expansion (beta, gamma, coeffs), or None.

    The coefficient list aligns with log powers gamma, gamma-1, ... as in
    :class:`OuterTail`.
    """
    if isinstance(f, LogPower):
        return f.beta, f.gamma, (1.0,)
    if isinstance(f, Table):
        if f.outer_tail is None:
            return None
        return f.outer_tail.beta, f.outer_tail.gamma, f.outer_tail.coeffs
    if isinstance(f, LinearCombo):
        parts = []
        for c, g in f.terms:
            if not isinstance(g, LogPower):
                return None
            parts.append((float(c), float(g.beta), float(g.gamma)))
        betas = {b for _, b, _ in parts}
        if len(betas) != 1:
            return None
        beta = betas.pop()
        gamma = max(g for _, _, g in parts)
        coeffs: dict[int, float] = {}
        for c, _, g in parts:
            offset = gamma - g
            if abs(offset - round(offset)) > 1e-9:
                return None
            coeffs[round(offset)] = coeffs.get(round(offset), 0.0) + c
        out = [0.0] * (max(coeffs) + 1)
        for k, c in coeffs.items():
            out[k] = c
        return beta, gamma, tuple(out)
    return None
