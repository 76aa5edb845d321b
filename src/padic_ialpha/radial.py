"""Radial profiles f(|x|_p) with declared tails and certified ball integrals.

A radial function is determined by its values on the sphere radii p**j.  The
forms below carry enough tail information (a power model toward the origin,
an optional log-power model toward infinity) for every downstream sphere sum
to be truncated with a computed, not estimated, remainder.

:func:`sphere_segments` turns any profile into one normal form, a list of
runs whose values add: power runs c * p**(j*d), tabulated value runs and
log-power runs.  A linear combination is the merged run list of its terms.
It is the only code that reads a profile's form; point values, the limit at
the origin, the declared expansions and every sphere sum read the runs.
The runs are plain data, and one generator (``_steps``) turns a run into
sphere values, stepping it upward with a running power; a point value
f(p**j) is the first step of each run that covers j.  Power runs, and each
term of a log-power run whose log power is a nonnegative integer, are
summed in closed form, as series sum_j j**m p**(j*rate)
(:mod:`~padic_ialpha.series`).  Only tabulated values and the log-power
terms without that form (non-integer or negative log powers, and the
spheres j <= 0) are walked sphere by sphere, from a start sphere up, as
two series K A - B, once every closed part is summed (:class:`SphereSum`).
Every walk over consecutive spheres, these and the Monte Carlo oracle's,
steps its runs with ``_steps``.  What does not depend on a sum's top
(the geometric denominator, the guarded kernels Phi_t, the walks, each
continued upward as its tops rise, the powers of p) is formed once per
table of rate kernels.  The operator lives here too (``_Operator``): it
is profile-free, holds alpha's check, alpha - 1, C, U and one table, and
takes the profile with the radius.  Every expansion builder reads an
operator, so a scan's rungs and its expansion share one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from itertools import count, islice, repeat
from typing import Union

from mpmath import libmp

from .core import (
    ZERO,
    MissingTail,
    NumericContext,
    ParamOutOfRange,
    UndefinedAtZero,
    _check_alpha,
    _prefactor,
    _raw,
    _require_finite,
    _require_real,
    _unit,
    general_power,
)
from .series import _power_sum, _rate_kernel

__all__ = [
    "Indicator",
    "LinearCombo",
    "LogPower",
    "LogRun",
    "Monomial",
    "OperatorValue",
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

    def __post_init__(self):
        _require_finite(self.n, "indicator radius exponent")


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
        _require_finite(self.j_lo, "table start exponent")
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
        keys = sorted(_require_finite(k, "table exponent") for k in values)
        j_lo = keys[0] if keys else 0  # no keys: the table refuses its empty values
        if keys != list(range(j_lo, j_lo + len(keys))):
            raise ParamOutOfRange("table exponents must form a contiguous range")
        return cls(j_lo, tuple(values[k] for k in keys), inner_tail, outer_tail)


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
# Sphere runs: the one normal form of a profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerRun:
    """f(p**j) = coeff * p**(j*degree) exactly for lo <= j <= hi.

    ``lo=None`` means the run reaches down to the origin, ``hi=math.inf``
    that it reaches out to infinity.
    """

    lo: int | None
    hi: int | float
    coeff: object
    degree: object


@dataclass(frozen=True)
class ValueRun:
    """f(p**(lo + i)) = coeff * values[i] for lo <= lo + i <= hi.

    ``values`` is the whole table; each value is converted when read.
    """

    lo: int
    hi: int | float
    values: tuple
    coeff: object


@dataclass(frozen=True)
class LogRun:
    """f(p**j) = p**(-j*beta) * sum_k coeffs[k] * (j*L)**(gamma-k), lo <= j <= hi."""

    lo: int
    hi: int | float
    beta: object
    gamma: object
    coeffs: tuple


def _log_terms(run: LogRun, js, L, ctx: NumericContext):
    """Per j in js, coeffs[k] * (j*L)**(gamma-k): one power, then products by j*L."""
    low = run.gamma - (len(run.coeffs) - 1)
    for j in js:
        x = j * L
        y = general_power(ctx, x, low) if low != 0 else 1
        terms = [run.coeffs[-1] * y]
        for a in run.coeffs[-2::-1]:
            y = y * x
            terms.append(a * y)
        yield terms[::-1]


def _steps(run, j: int, kernels: _RateKernels, shift):
    """(u_i, size) for i = j, j + 1, ...: u_i = f(p**i) p**(i*shift), 0 off the run.

    u_i steps with a running power: coeff * p**(i(degree + shift)) is a
    power run's u_i, coeff * p**(i*shift) times a value run's value, and
    p**(i(shift - beta)) times a log run's terms.  The powers of p come
    from ``kernels``; the step p**e is formed on the second sphere, so the
    first step, a point value f(p**j) at shift 0 (:func:`_at`), forms only
    p**(j*e).  ``size`` sums the sizes of those terms where there are
    several, else it is None (|u_i|).
    """
    ctx = kernels.ctx
    lo = j if run.lo is None else max(j, run.lo)
    yield from repeat((0, None), lo - j)  # the spheres below the run
    spheres = islice(count(lo), None if run.hi == math.inf else max(0, run.hi + 1 - lo))
    if isinstance(run, PowerRun):
        for _, s in zip(spheres, _running(run.coeff, run.degree + shift, lo, kernels)):
            yield s, None
    elif isinstance(run, ValueRun):
        values = islice(run.values, lo - run.lo, None)
        for _, v, s in zip(spheres, values, _running(run.coeff, shift, lo, kernels)):
            yield s * ctx.real(v), None
    else:
        terms = _log_terms(run, spheres, ctx.log_unit(), ctx)
        for t, s in zip(terms, _running(1, shift - run.beta, lo, kernels)):
            u = s * sum(t[1:], t[0])
            yield u, None if len(t) == 1 else s * sum(abs(x) for x in t)
    yield from repeat((0, None))  # the spheres above the run


def _running(c, e, lo: int, kernels: _RateKernels):
    """c * p**(i*e) for i = lo, lo + 1, ...; p**e is formed for the second."""
    s = c
    if e:  # a product by c = 1 is exact, and skipped
        s = kernels.p_pow(e * lo) if c == 1 else c * kernels.p_pow(e * lo)
    yield s
    up = kernels.p_pow(e) if e else 1
    while True:
        s *= up
        yield s


def _at(runs: list, j: int, kernels: _RateKernels) -> tuple:
    """(f(p**j), size): the first steps of the runs that cover j.

    ``size`` adds |u| of each run, or its size where it yields one; the
    rounding error of f(p**j) scales with it.
    """
    value = size = 0
    for run in runs:
        if (run.lo is None or run.lo <= j) and j <= run.hi:  # else it steps 0
            u, s = next(_steps(run, j, kernels, 0))
            value, size = value + u, size + (abs(u) if s is None else s)
    return value, size


def _scaled(run, c):
    if isinstance(run, LogRun):
        return replace(run, coeffs=tuple(c * a for a in run.coeffs))
    return replace(run, coeff=c * run.coeff)


def _merged(a, b):
    """a + b as one run when both have the same span and form, else None."""
    if type(a) is not type(b) or (a.lo, a.hi) != (b.lo, b.hi):
        return None
    if isinstance(a, PowerRun) and a.degree == b.degree:
        return replace(a, coeff=a.coeff + b.coeff)
    if isinstance(a, LogRun):
        form = _log_sum((a.beta, a.gamma, a.coeffs), (b.beta, b.gamma, b.coeffs))
        return None if form is None else LogRun(a.lo, a.hi, *form)
    return None


def _log_sum(u, v):
    """The sum of two log-power forms (beta, gamma, coeffs) as one form.

    None unless the betas are equal and the gammas differ by an integer;
    the coefficients align on the larger gamma, as in :class:`OuterTail`.
    """
    (b1, g1, a1), (b2, g2, a2) = sorted((u, v), key=lambda form: -form[1])
    shift = g1 - g2
    if b1 != b2 or shift != int(shift):
        return None
    shift = int(shift)
    coeffs = list(a1) + [a1[0] * 0] * max(0, shift + len(a2) - len(a1))
    for k, a in enumerate(a2):
        coeffs[shift + k] += a
    return b1, g1, tuple(coeffs)


def sphere_segments(f: RadialFunction, top, ctx: NumericContext) -> list:
    """The profile on the spheres j <= top as runs whose values add.

    ``top`` may be ``math.inf`` (every sphere; runs that reach infinity end
    at inf) or ``-math.inf`` (only the runs that reach the origin).  Runs
    on which the profile vanishes are left out.  A :class:`LinearCombo`
    scales each term's runs by its coefficient and merges runs of the same
    span: power runs of equal degree, and log-power runs of equal beta
    whose gammas differ by an integer.  Every scalar is exact: a context
    scalar, or the integers 1 and 0 for a unit coefficient and a constant,
    so exponents built from it (degree + 1, degree + alpha, ...) never
    round through float64.  Raises :class:`MissingTail` where a table
    declares no tail.
    """
    real = ctx.real
    if isinstance(f, Monomial):
        return [PowerRun(None, top, 1, real(f.degree))]
    if isinstance(f, Indicator):
        return [PowerRun(None, min(f.n, top), 1, 0)]
    if isinstance(f, LogPower):
        if f.gamma != 0:
            if top < 1:
                return []
            return [LogRun(1, top, real(f.beta), real(f.gamma), (1,))]
        runs = [PowerRun(1, top, 1, -real(f.beta))] if top >= 1 else []
        return runs + [PowerRun(None, min(top, 0), 1, 0)]
    if isinstance(f, Table):
        inner, outer = f.inner_tail, f.outer_tail
        if inner is None:
            raise MissingTail("table has no inner tail")
        runs = []
        if top > f.j_hi:
            if outer is None:
                raise MissingTail(
                    f"no outer tail declared above the table range (j={top})", f.j_hi
                )
            coeffs = tuple(real(a) for a in outer.coeffs)
            runs.append(
                LogRun(f.j_hi + 1, top, real(outer.beta), real(outer.gamma), coeffs)
            )
        if top >= f.j_lo:
            runs.append(ValueRun(f.j_lo, min(top, f.j_hi), f.values, 1))
        if isinstance(inner, PowerTail):
            hi = min(top, f.j_lo - 1)
            runs.append(PowerRun(None, hi, real(inner.coeff), real(inner.degree)))
        return runs
    if isinstance(f, LinearCombo):
        runs = []
        for c, g in f.terms:
            for run in sphere_segments(g, top, ctx):
                _add_run(runs, _scaled(run, real(c)))
        return runs
    raise TypeError(f"not a radial function: {f!r}")


def _add_run(runs: list, run):
    """Merge run into the first run of runs with its span and form, or append it."""
    for i, old in enumerate(runs):
        merged = _merged(old, run)
        if merged is not None:
            runs[i] = merged
            return
    runs.append(run)


def _whole_line(f: RadialFunction, ctx: NumericContext):
    """The runs on every sphere, or None when a table declares no tail."""
    try:
        return sphere_segments(f, math.inf, ctx)
    except MissingTail:
        return None


# ---------------------------------------------------------------------------
# Point evaluation
# ---------------------------------------------------------------------------

def eval_sphere(f: RadialFunction, j, ctx: NumericContext):
    """Value of the profile on the sphere |x| = p**j (j = ZERO: limit at 0).

    It is the sum of the first steps of the runs that cover j (:func:`_at`).
    """
    if j is ZERO:
        runs = sphere_segments(f, -math.inf, ctx)
        if any(run.degree < 0 for run in runs):
            raise UndefinedAtZero("a negative-degree power has no limit at 0")
        return ctx.real(sum(run.coeff for run in runs if run.degree == 0))
    j = _require_finite(j, "sphere exponent")
    return ctx.real(_at(sphere_segments(f, j, ctx), j, _RateKernels(ctx))[0])


# ---------------------------------------------------------------------------
# The sphere sum shared by ball integrals and operator values
# ---------------------------------------------------------------------------

class _RateKernels(dict):
    """:func:`_rate_kernel` by (m, rate), each formed on first use.

    One table serves every sum that its owner makes in one context: an
    operator's table serves all the radii of a scan, and so do the walks
    of its explicit runs (:meth:`walk`) and the powers of p (:meth:`p_pow`).
    A scan's expansion reads the same table.
    """

    def __init__(self, ctx: NumericContext):
        self.ctx, self.walks, self.powers = ctx, {}, {}  # dict.__new__ made the table

    def p_pow(self, exponent):
        """p**exponent, formed on the first request of the exponent's value.

        The key is that value: the raw mpf of an mpf, an int or a float,
        hashed in C, or in exact mode the exponent itself.
        """
        ctx = self.ctx
        key = getattr(exponent, "_mpf_", None)
        if key is None:
            if ctx.exact:
                key = exponent
            elif type(exponent) is int:  # as _raw converts it, without its dispatch
                key = libmp.from_int(exponent)
            else:
                key = _raw(exponent, ctx.precision_bits)
        power = self.powers.get(key)
        if power is None:
            power = self.powers[key] = ctx.p_pow(exponent)
        return power

    def at(self, m: int, rate):
        """The kernel of (m, rate), formed on the first request."""
        key = (m, getattr(rate, "_mpf_", rate))  # an mpf's exact value; hashed in C
        kernel = self.get(key)
        if kernel is None:
            kernel = self[key] = _rate_kernel(self.ctx, m, rate)
        return kernel

    def walk(self, run, c: int, a1, top: int) -> tuple:
        """The :class:`_Walk` sums of the run's spheres c ... top.

        One walk is kept per run apart from its top, c and a1: it walks the
        run extended to infinity (a value run still ends with its values).
        A top at or above the last one served continues that walk; a lower
        top replaces it with a fresh walk from c.
        """
        run = replace(run, hi=math.inf)
        w = self.walks.get((run, c, a1))
        if w is None or top + 1 < w.next:
            w = self.walks[run, c, a1] = _Walk(run, c, self, a1)
        return w.to(top)


class _Walk:
    """An explicit run summed from its start sphere c upward, with running powers.

    Its sums over c <= j <= top: A = sum u_j, B = sum u_j P_j, the sizes of
    u_j, sum |u_j| and sum |u_j| P_j, for u_j = f(p**j) * p**j and
    P_j = p**(j(alpha-1)) (B = 0 when a1 is None), their powers of p read
    from ``kernels``.  A higher top continues the same additions, so the
    sums at a top do not depend on the tops served before.
    """

    def __init__(self, run, c: int, kernels: _RateKernels, a1):
        self.next = c
        self.steps, self.P, self.up = _steps(run, c, kernels, 1), None, None
        # only a log run of several terms yields sizes; else size is sum |u_j|
        self.sized = isinstance(run, LogRun) and len(run.coeffs) > 1
        if a1 is not None:
            self.P, self.up = kernels.p_pow(a1 * c), kernels.p_pow(a1)
        self.sums = (kernels.ctx.real(0),) * 5

    def to(self, top: int) -> tuple:
        """The sums over c ... top, for a top not below one reached before."""
        A, B, size, ua, ub = self.sums
        P, up = self.P, self.up
        for u, s in islice(self.steps, top + 1 - self.next):
            A, ua = A + u, ua + abs(u)
            if s is not None:  # a sized run yields s on it, and u = 0 off it
                size += s
            if P is not None:
                uP = u * P  # P > 0, so |u P| rounds as |u| P would
                B, ub, P = B + uP, ub + abs(uP), P * up
        self.P, self.next = P, top + 1
        self.sums = (A, B, size if self.sized else ua, ua, ub)
        return self.sums


class SphereSum:
    """Sum over the spheres j <= top of f(p**j) * p**j * w(j).

    ``runs`` are the profile's runs (:func:`sphere_segments`), each cut at
    top: a run that starts above top is left out, one that reaches above
    it is summed to hi = min(hi, top).  The Haar factor 1 - 1/p is left to
    the caller.  Ball integrals take w = 1 (``a1`` None).  The operator at
    |x| = p**N passes its ``a1`` = alpha - 1 and its runs on j <= N, takes
    top = N - 1 and the kernel frozen on each inner sphere,
    w(j) = K - p**(j(alpha-1)) with K = p**(N(alpha-1)).
    A power run c p**(j*d), and each term a (jL)**m p**(-j*beta) of a
    log-power run with m a nonnegative integer, is summed in closed form (a
    log-power term on j >= 1, when the run is long enough; see
    ``_add_log``) as K S(rate) - S(rate + alpha - 1), with S the sum of
    j**m p**(j*rate), rate = d + 1 or 1 - beta, times its coefficient c
    once (not at all when c = 1, where the product is exact).  Table values
    and the other log-power terms form K A - B, A and B the sums of u_j and
    u_j p**(j(alpha-1)), u_j = f(p**j) * p**j, walked from a start sphere c
    up (``_add_explicit``).  Every closed part is summed before any run is
    walked; the walks follow the order of the runs.  Every run is summed
    once, so a linear combination walks its spheres once.  The parts of S
    that do not depend on the run's ends, and the walks, come from
    ``kernels``, whose context the sum is formed in; an operator passes the
    one table it keeps across the radii of a scan, so its rungs share each
    walk.

    ``total`` is the sum; ``magnitude`` bounds the size of what was added
    before any cancellation, which is what rounding errors scale with;
    ``remainder`` is the certified bound on the spheres below the start
    spheres; ``explicit`` counts the spheres walked and ``low`` is the
    lowest of them (top + 1 when there is none).  ``abs_total``, each
    closed part's |c * part| and each walk's K sum|u_j| - sum|u_j| P_j, is
    what a walked run's start test compares against: every closed part and
    the runs walked before it, in whatever order a combination lists them.
    """

    def __init__(self, runs: list, top: int, kernels: _RateKernels, a1=None):
        ctx = kernels.ctx
        self.ctx, self.top, self.kernels, self.a1 = ctx, top, kernels, a1
        self.K = ctx.real(1) if a1 is None else kernels.p_pow(a1 * (top + 1))
        self.total = self.magnitude = self.abs_total = self.remainder = ctx.real(0)
        self.explicit, self.low = 0, top + 1
        walked = []
        for run in runs:
            if run.lo is not None and run.lo > top:
                continue  # the run starts above the sum
            hi = min(run.hi, top)
            if isinstance(run, PowerRun):
                self._add_closed(run.coeff, 0, run.degree + 1, run.lo, hi)
            elif isinstance(run, ValueRun):
                walked.append((run, hi))
            else:
                walked += self._add_log(run, hi)
        for run, hi in walked:
            self._add_explicit(run, hi)

    def _add_closed(self, c, m: int, rate, lo, hi: int):
        """Add c * sum of j**m p**(j*rate) w(j) over lo <= j <= hi, in closed form."""
        s, size = _power_sum(self.kernels, m, rate, lo, hi)
        part, size = self.K * s, self.K * size
        if self.a1 is not None:
            s2, size2 = _power_sum(self.kernels, m, rate + self.a1, lo, hi)
            part, size = part - s2, size + size2
        if c != 1:  # a product by 1 is exact
            part, size = c * part, abs(c) * size
        self.total += part
        self.magnitude += size
        self.abs_total += abs(part)

    def _add_log(self, run: LogRun, hi: int) -> list:
        """Sum a log-power run's integer powers (jL)**m, m >= 0, in closed form.

        They cover the spheres 1 <= j <= hi, when there are at least
        (gamma + 1)**2 of them: the closed form costs about that many sphere
        terms (its kernels Phi_1 ... Phi_gamma), and when hi is below gamma
        its two ends cancel by more than its guard bits cover.  Returns the
        (run, hi) left to walk once every closed part is summed: the whole
        run when gamma is not an integer or the run is short, the negative
        powers on j >= 1, and every term on the spheres j <= 0.
        """
        gamma = run.gamma
        lo = max(run.lo, 1)
        n = int(gamma) + 1
        if gamma != n - 1 or n * n > hi - lo + 1:
            return [(run, hi)]
        L = self.ctx.log_unit()
        for k, a in enumerate(run.coeffs[:n]):
            m = n - 1 - k
            self._add_closed(a * L**m, m, 1 - run.beta, lo, hi)
        rest = []
        if run.coeffs[n:]:
            rest.append((replace(run, lo=lo, gamma=-1, coeffs=run.coeffs[n:]), hi))
        if run.lo <= 0:
            rest.append((run, 0))
        return rest

    def _add_explicit(self, run, hi: int):
        """Add K A - B over the run's spheres c ... hi, from the kernels' walk.

        Each factor K - p**(j(alpha-1)) is positive for j <= top.  Above lo,
        c must pass the test that K * :func:`_rest` falls below rel_tol of
        all that is summed: every closed part, the runs walked before this
        one, and this run from c.  It steps down until it does, and K * rest
        joins the remainder.
        """
        ctx, K, c = self.ctx, self.K, self._start(run, hi)
        while True:
            A, B, size, ua, ub = self.kernels.walk(run, c, self.a1, hi)
            rest = K * _rest(run, c, ctx) if c > run.lo else 0
            if c == run.lo or rest < ctx.real(ctx.rel_tol) * (self.abs_total + K * ua - ub):
                break
            c -= 1
        self.total += K * A - B
        self.magnitude += K * size
        self.abs_total += K * ua - ub
        self.remainder += rest
        self.explicit += hi - c + 1
        self.low = min(self.low, c)

    def _start(self, run, hi: int) -> int:
        """c for ``_add_explicit``: lo, or the highest sphere passing its test in doubles.

        Only log-power runs that decay toward the origin (1 - beta > 0,
        lo >= 1) are cut, not in exact mode nor where a double overflows.
        Every term is scaled by 1 / (K p**(hi(1-beta)) (hi L)**gamma).
        """
        ctx, decay = self.ctx, 1 - run.beta if isinstance(run, LogRun) else 0
        if ctx.exact or decay <= 0 or run.lo < 1:
            return run.lo
        lo, g, L = run.lo, float(run.gamma), ctx.log_unit()
        r = ctx.prime ** -float(decay)
        q = 0.0 if self.a1 is None else ctx.prime ** -float(self.a1)
        scale = self.K * ctx.p_pow(decay * hi) * general_power(ctx, hi * L, run.gamma)
        try:
            coeffs = [(k, float(a) * float(hi * L) ** -k) for k, a in enumerate(run.coeffs)]
            lows = [abs(a) * (lo / hi) ** (g - k) for k, a in coeffs]
            falling = sum(x for k, x in enumerate(lows) if k > g)
            summed = float(self.abs_total / scale)
            # E_j exceeds the sum of lows, and each scaled |u_j| stays below cap
            cap = sum(max(x, abs(a)) for x, (_, a) in zip(lows, coeffs))
            if sum(lows) * r ** (hi - lo) >= ctx.rel_tol * (summed * (1 - r) + cap):
                return lo  # too short to reach its cut
            s, Q = 1.0, q ** (self.top + 1 - hi)
            for j in range(hi, lo, -1):
                terms = [(k, a * (j / hi) ** (g - k)) for k, a in coeffs]
                summed += abs(sum(t for _, t in terms)) * s * (1 - Q)
                E = sum(abs(t) for k, t in terms if k <= g) + falling
                if E * s * r / (1 - r) < ctx.rel_tol * summed:
                    return j
                s, Q = s * r, Q * q
        except OverflowError:
            pass
        return lo


def _rest(run: LogRun, c: int, ctx: NumericContext):
    """E_c s_c rho >= sum of |u_j| over lo <= j < c, for s_j = p**(j(1-beta)).

    E_c bounds the log factor there: each power at c where it grows, at lo
    where it falls; rho = p**(-(1-beta)) / (1 - p**(-(1-beta))).
    """
    L, gamma = ctx.log_unit(), run.gamma
    (terms,) = _log_terms(run, (c,), L, ctx)
    E = sum(abs(t) for k, t in enumerate(terms) if k <= gamma) + sum(
        abs(a) * general_power(ctx, run.lo * L, gamma - k)
        for k, a in enumerate(run.coeffs)
        if k > gamma
    )
    down = ctx.p_pow(run.beta - 1)
    return E * ctx.p_pow((1 - run.beta) * c) * down / (1 - down)


# ---------------------------------------------------------------------------
# The operator
# ---------------------------------------------------------------------------

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


class _Operator:
    """The operator at one alpha in one context, for any profile and radius.

    What depends on neither the profile nor the radius is formed once:
    alpha's check, a1 = alpha - 1 and the prefactor C when it is made; the
    unit-sphere integral U, ``unit`` = 1 - 1/p and ``_sphere``, the factors
    U - unit, U + unit and |C| of the sphere |y| = |x| and of the bound,
    together on the first read of any of them (the Monte Carlo estimator
    reads none); and a table of the closed forms' rate kernels, the
    explicit runs' walks and the powers of p, which fills as sums need
    them.  A scan makes one operator, calls :meth:`at` per
    radius and builds its expansion from it; every expansion builder and
    the constants b(M), omega, omega_tilde and B_n read an operator.  A
    value does not depend on the values formed before.  The table dies with the operator.
    """

    def __init__(self, alpha, ctx: NumericContext):
        self.ctx = ctx
        self.alpha = a = _check_alpha(ctx, alpha)
        self.a1 = a - 1
        self.kernels = kernels = _RateKernels(ctx)
        self.C = _prefactor(ctx, kernels.p_pow(-a), kernels.p_pow(self.a1))

    def __getattr__(self, name):
        """U, ``unit`` = 1 - 1/p and ``_sphere``, the factors of the sphere
        |y| = |x| and of the bound, all formed on the first read of one."""
        if name not in ("U", "unit", "_sphere"):
            raise AttributeError(name)
        p_pow = self.kernels.p_pow
        self.U = U = _unit(self.ctx, p_pow(-self.alpha))  # C's p**(-alpha)
        self.unit = unit = 1 - p_pow(-1)
        self._sphere = U - unit, U + unit, abs(self.C)
        return getattr(self, name)

    def at(self, f: RadialFunction, N) -> OperatorValue:
        """The value at |x| = p**N for the profile f, as
        :func:`~padic_ialpha.ialpha.ialpha_eval` documents it."""
        ctx = self.ctx
        if N is ZERO:
            zero = ctx.real(0)
            return OperatorValue(zero, zero, ZERO)
        N = _require_finite(N, "radius exponent")
        runs = sphere_segments(f, N, ctx)
        inner = SphereSum(runs, N - 1, self.kernels, self.a1)
        ball = inner.K * self.kernels.p_pow(N)  # p**(N alpha)
        f_N, size_N = _at(runs, N, self.kernels)
        unit, (U_minus, U_plus, abs_C) = self.unit, self._sphere
        bracket = unit * inner.total + f_N * ball * U_minus
        magnitude = unit * inner.magnitude + size_N * ball * U_plus
        bound = abs_C * (
            magnitude * ctx.rounding_eps() * (inner.explicit + 16)
            + unit * inner.remainder
        )
        return OperatorValue(self.C * bracket, bound, inner.low)


def cumulative_ball_integral(f: RadialFunction, n, ctx: NumericContext):
    """Integral of f over the ball |y| <= p**n via sphere decomposition.

    Runs where the profile is exactly c * p**(j*d) (its declared inner model
    among them), and the terms of log-power runs whose log power is a
    nonnegative integer, are summed in closed form; table values and the
    other log-power terms are walked from a start sphere up (:class:`SphereSum`).
    Those that decay toward the origin start where their certified
    remainder falls below rel_tol of what is summed.
    """
    return _ball_integral(f, n, _RateKernels(ctx))


def _ball_integral(f: RadialFunction, n, kernels: _RateKernels):
    """:func:`cumulative_ball_integral` with the kernels and walks of ``kernels``."""
    ctx = kernels.ctx
    if n is ZERO:
        return ctx.real(0)
    n = _require_finite(n)
    runs = sphere_segments(f, n, ctx)
    return (ctx.real(1) - kernels.p_pow(-1)) * SphereSum(runs, n, kernels).total


# ---------------------------------------------------------------------------
# Declared expansions (used to match profiles against predictions)
# ---------------------------------------------------------------------------

def origin_expansion(f: RadialFunction, ctx: NumericContext):
    """Declared origin-side monomial expansion (coeffs, degrees), or None.

    A profile declares one when it is a sum of powers on every sphere, that
    is when each of its runs is a power run from the origin to infinity
    (monomials and their combinations, equal degrees merged).  Degrees
    ascend.  Tabulated profiles must be given their expansion explicitly.
    """
    runs = _whole_line(f, ctx)
    if runs is None or not all(
        isinstance(r, PowerRun) and r.lo is None and r.hi == math.inf for r in runs
    ):
        return None
    runs.sort(key=lambda r: r.degree)
    return tuple(r.coeff for r in runs), tuple(r.degree for r in runs)


def outer_expansion(f: RadialFunction, ctx: NumericContext):
    """Declared large-radius expansion (beta, gamma, coeffs), or None.

    Read from the runs that reach infinity: each must start at a finite
    sphere, and together they must form one log-power form (a power run of
    degree -beta is its log power 0).  The coefficient list aligns with log
    powers gamma, gamma-1, ... as in :class:`OuterTail`.  Every entry is
    exact: a context scalar, or the integer 1 for a unit coefficient.
    """
    far = [r for r in _whole_line(f, ctx) or () if r.hi == math.inf]
    if not far or any(r.lo is None for r in far):
        return None
    forms = [
        (r.beta, r.gamma, r.coeffs)
        if isinstance(r, LogRun)
        else (-r.degree, ctx.real(0), (r.coeff,))
        for r in far
    ]
    return reduce(lambda u, v: u and _log_sum(u, v), forms)
