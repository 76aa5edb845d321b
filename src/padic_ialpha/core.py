"""Numeric context, the closed-form constants C and U and the Haar depth sampler.

Everything downstream (radial profiles, the operator evaluator, the
asymptotic coefficient engines) funnels its arithmetic through a
:class:`NumericContext`.  The depth sampler returns Haar draws as counts
per (|y|, |x - y|) cell, drawn in O(log_p samples) work with no per-draw
arrays.  Two arithmetic backends are supported:

* extended-precision binary floats (mpmath, configurable mantissa), the
  default -- sphere sums reach magnitudes like p**(alpha*N) far beyond
  float64 range;
* exact rationals (``fractions.Fraction``), available when every exponent
  that occurs is an integer and no natural logarithm enters.  Used as the
  oracle side of regression tests.

Every power of p, ln p and 1 - p**x goes through one small kernel that
calls mpmath's ``libmp`` layer at the context's precision, passed
explicitly.  ln p comes from a cache keyed by (prime, precision).  Each
result is bit-for-bit what ``mp.power``, ``mp.log`` and ``mp.expm1``
return at that precision; the kernel only skips their dispatch and the
repeated ln p.

Every mpf the library makes is made here, in the mpmath context of its
precision.  An mpf carries its context and arithmetic rounds at the left
operand's, so no module reads or sets the global ``mp.prec`` or enters a
``workprec``.  These mpfs are not ``mp.mpf`` instances, though they
convert, compare and mix with ``mp`` values as any mpf does.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, total_ordering

from mpmath import libmp, mp
from mpmath.ctx_mp import MPContext
from mpmath.ctx_mp_python import _mpf as mpf_base  # the base of every context's mpf

__all__ = [
    "AlphaOutOfRange",
    "BetaOutOfRange",
    "DivergentInnerSum",
    "HypothesisMismatch",
    "LogBase",
    "LogDomain",
    "MissingTail",
    "NumericContext",
    "NumericModeError",
    "ParamOutOfRange",
    "ParseError",
    "QOutOfRange",
    "RandomStream",
    "TailMismatch",
    "UndefinedAtZero",
    "ZERO",
    "prefactor",
    "sample_kernel_exponents",
    "unit_kernel_integral",
]


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class AlphaOutOfRange(ValueError):
    """The integration order lies outside the operator's convergence regime."""


class BetaOutOfRange(ValueError):
    """The decay exponent makes the requested integral diverge."""


class QOutOfRange(ValueError):
    """Series argument outside (0, 1)."""


class ParamOutOfRange(ValueError):
    """A parameter violates its documented domain."""


class LogDomain(ValueError):
    """A non-integer power of a non-positive logarithm was requested."""


class UndefinedAtZero(ValueError):
    """The radial profile has no limit at the origin."""


class MissingTail(ValueError):
    """A tabulated profile was evaluated outside its range with no tail model.

    ``end`` is the last sphere of a table without an outer tail, where the
    profile stops being defined (None for a missing inner tail).
    """

    def __init__(self, message: str, end: int | None = None):
        super().__init__(message)
        self.end = end


class DivergentInnerSum(ValueError):
    """The declared inner tail is not integrable at the origin."""


class TailMismatch(ValueError):
    """The profile's declared tail disagrees with the expansion parameters."""


class HypothesisMismatch(ValueError):
    """The profile does not satisfy the hypotheses of the requested check."""


class NumericModeError(ValueError):
    """The requested value is not representable in exact-rational mode."""


class ParseError(ValueError):
    """A table file violated the expected format."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Ball exponents
# ---------------------------------------------------------------------------

@total_ordering
class _RadiusZero:
    """Distinguished exponent for the degenerate radius 0 (the point x = 0).

    Compares strictly below every finite exponent.
    """

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ZERO"

    def __lt__(self, other):
        if isinstance(other, int):
            return True
        if other is self:
            return False
        return NotImplemented


#: Radius-zero sentinel; ``n is ZERO`` marks the single point x = 0.
ZERO = _RadiusZero()


def _require_finite(n, what: str = "exponent") -> int:
    if n is ZERO:
        raise ParamOutOfRange(f"{what} must be finite, got ZERO")
    if not isinstance(n, bool):
        try:
            return operator.index(n)
        except TypeError:
            pass
    raise ParamOutOfRange(f"{what} must be an integer, got {n!r}")


def _require_count(n, what: str) -> int:
    """n as an integer >= 0, read as :func:`_require_finite` reads it."""
    n = _require_finite(n, what)
    if n < 0:
        raise ParamOutOfRange(f"{what} must be nonnegative, got {n}")
    return n


def _require_real(x, what: str = "parameter"):
    """x itself, if it is a finite real number; bools, NaN and inf are rejected."""
    # concrete types first: the abstract numbers.* checks are slow
    if isinstance(x, bool) or not isinstance(
        x, (int, float, Fraction, mpf_base, numbers.Real)
    ):
        raise ParamOutOfRange(f"{what} must be a real number, got {x!r}")
    if isinstance(x, float):
        finite = math.isfinite(x)
    elif isinstance(x, mpf_base):
        finite = mp.isfinite(x)
    else:
        finite = isinstance(x, (int, Fraction, numbers.Rational)) or math.isfinite(x)
    if not finite:
        raise ParamOutOfRange(f"{what} must be finite, got {x!r}")
    return x


# ---------------------------------------------------------------------------
# p-power kernel
# ---------------------------------------------------------------------------

_RND = libmp.round_nearest  # the rounding of mpmath's default context
_NON_FINITE = (libmp.finf, libmp.fninf, libmp.fnan)  # the raw mpfs of inf, -inf and NaN


@lru_cache(maxsize=64)  # a context holds about 40 kB; guard bits add precisions
def _mp_context(prec: int) -> MPContext:
    """The mpmath context that rounds at prec bits, made once per precision."""
    context = MPContext()
    context.prec = prec
    # its mpf class has no importable name: its mpfs pickle through _make_mpf
    context.mpf.__reduce__ = lambda x: (_make_mpf, (prec, x._mpf_))
    return context


def _make_mpf(prec: int, v):
    """The mpf of raw value v in the context of prec bits; every mpf is made here."""
    return _mp_context(prec).make_mpf(v)


def _raw(x, prec: int):
    """x as a raw mpf, converted as ``mp.convert`` converts it at prec bits.

    ints and floats are exact; a Fraction is rounded toward zero, as
    mpmath rounds it.
    """
    if isinstance(x, mpf_base):
        return x._mpf_
    if isinstance(x, int):
        return libmp.from_int(x)
    if isinstance(x, float):
        return libmp.from_float(x)
    if isinstance(x, Fraction):
        return libmp.from_rational(x.numerator, x.denominator, prec, libmp.round_down)
    return _mp_context(prec).convert(x)._mpf_  # other types: mpmath's own conversion


@lru_cache(maxsize=256)  # guard bits make a precision per rate; keep the cache bounded
def _ln(prime: int, prec: int):
    """ln p as a raw mpf rounded to prec bits, computed once per (prime, prec)."""
    return libmp.mpf_log(libmp.from_int(prime), prec, _RND)


def _expm1(t, prec: int):
    """exp(t) - 1 for a raw mpf t, rounded to prec bits as ``mp.expm1`` rounds it.

    It follows mpmath's schedule: 10 extra bits, then ``sum_accurately``'s
    15 more, widened by the measured cancellation until that is below the
    extra bits; below 2**-(prec + 10) the result is t + t**2/2.
    """
    _, man, exp, bc = t
    if not man:
        return libmp.fzero
    wp = prec + 10
    if exp + bc < -wp:
        half_square = libmp.mpf_mul(libmp.mpf_pow_int(t, 2, wp, _RND), libmp.fhalf, wp, _RND)
        return libmp.mpf_pos(libmp.mpf_add(t, half_square, wp, _RND), prec, _RND)
    extra = 10
    while True:
        sp = wp + extra + 5
        e = libmp.mpf_exp(t, sp, _RND)
        s = libmp.mpf_add(e, libmp.fnone, sp, _RND)
        # mpmath's mag, exponent + bit count, of the terms e and -1 and of the sum
        cancellation = max(e[2] + e[3], 1) - (s[2] + s[3] if s[1] else -math.inf)
        if cancellation < extra:
            return libmp.mpf_pos(s, prec, _RND)
        extra += min(sp, cancellation)


def _one_minus_p_pow(ctx: NumericContext, x):
    """1 - p**x, through expm1 so that no digits cancel when x is near 0."""
    if ctx.exact:
        return 1 - ctx.p_pow(x)
    prec = ctx.precision_bits
    t = libmp.mpf_mul(_raw(x, prec), _ln(ctx.prime, prec), prec, _RND)
    return _make_mpf(prec, libmp.mpf_neg(_expm1(t, prec)))


# ---------------------------------------------------------------------------
# Numeric context
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    """Deterministic trial division; the primes used here are small."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class LogBase(Enum):
    """Convention for log of a radius: natural log or log base p.

    Both are offered because every asymptotic statement implemented here is
    invariant under the choice; the natural log is the default.
    """

    NATURAL = "natural"
    BASE_P = "base_p"


@dataclass(frozen=True)
class NumericContext:
    """Prime, precision and conventions that govern every numeric operation.

    ``exact=True`` switches to rational arithmetic; it requires every power
    of p that occurs to have an integer exponent, and (unless
    ``log_base=BASE_P``) rejects any value into which a logarithm enters.
    """

    prime: int
    precision_bits: int = 256
    log_base: LogBase = LogBase.NATURAL
    rel_tol: float = 1e-30
    exact: bool = False

    def __post_init__(self):
        prime = _require_finite(self.prime, "prime")
        if not _is_prime(prime):
            raise ParamOutOfRange(f"prime must be prime, got {prime}")
        object.__setattr__(self, "prime", prime)
        bits = _require_finite(self.precision_bits, "precision_bits")
        object.__setattr__(self, "precision_bits", bits)
        if bits < 64:
            raise ParamOutOfRange("precision_bits must be at least 64")
        if not 0 < self.rel_tol < 1:
            raise ParamOutOfRange("rel_tol must lie in (0, 1)")
        if isinstance(self.log_base, str):
            object.__setattr__(self, "log_base", LogBase(self.log_base))

    # -- scalar backend ----------------------------------------------------

    def workprec(self):
        """mpmath's global precision set to this one, for a caller's own mpfs."""
        return mp.workprec(self.precision_bits)

    def real(self, x, what: str = "parameter"):
        """x as this context's scalar: a Fraction in exact mode, else an mpf.

        Every real parameter enters the arithmetic here, once, at its public
        entry: a float becomes the exact value of its double, and every
        exponent built from it (alpha - 1, M + alpha, ...) is then formed in
        the context arithmetic, never in float64.  Bools, NaN and inf are
        rejected here (:class:`ParamOutOfRange`, naming the parameter
        ``what``), before any range check sees them.  ints and floats
        convert exactly; a Fraction rounds to the context's precision,
        whatever ``mp.prec`` is.  An mpf of any context moves into this one
        unrounded.
        """
        prec = self.precision_bits
        if not self.exact:  # the common types by their type: the general checks are slow
            kind = type(x)
            if kind is float and math.isfinite(x):  # libmp.from_float's value, unrounded
                man, den = x.as_integer_ratio()  # den is a power of 2
                return _make_mpf(prec, libmp.from_man_exp(man, 1 - den.bit_length()))
            if kind is int:
                return _make_mpf(prec, libmp.from_int(x))
            if kind is _mp_context(prec).mpf and x._mpf_ not in _NON_FINITE:
                return x
        _require_real(x, what)
        if self.exact:
            if isinstance(x, (numbers.Rational, float)):
                return Fraction(x)
            raise NumericModeError(f"cannot represent {x!r} exactly")
        return _make_mpf(prec, _raw(x, prec))

    def p_pow(self, exponent):
        """p raised to a (real) exponent in the context arithmetic.

        Bit-for-bit ``mp.power(p, exponent)`` at the context's precision,
        formed by the kernel: an integer exponent by repeated squaring, a
        half-integer through the square root, any other as
        exp(exponent * ln p) with ln p from the cache.
        """
        if self.exact:
            e = _as_exact_int(exponent)
            return Fraction(self.prime) ** e
        prec = self.precision_bits
        t = _raw(exponent, prec)
        sign, man, exp, _ = t
        p = libmp.from_int(self.prime)
        if exp >= 0:  # an integer
            v = libmp.mpf_pow_int(p, (-man if sign else man) << exp, prec, _RND)
        elif exp == -1:  # a half-integer: mpmath's square-root path
            v = libmp.mpf_pow(p, t, prec, _RND)
        else:  # mpf_pow's general branch, minus its mpf_log
            v = libmp.mpf_exp(libmp.mpf_mul(t, _ln(self.prime, prec + 10)), prec, _RND)
        return _make_mpf(prec, v)

    def log_unit(self):
        """The factor L with log(p**j) = j * L under the chosen convention.

        The natural log is ln p at the context's precision, from the cache.
        """
        prec = self.precision_bits
        if self.log_base is LogBase.BASE_P:
            return Fraction(1) if self.exact else _make_mpf(prec, libmp.fone)
        if self.exact:
            raise NumericModeError(
                "natural log of the radius is irrational; use log_base=BASE_P "
                "for exact-rational work"
            )
        return _make_mpf(prec, _ln(self.prime, prec))

    def rounding_eps(self):
        """Unit 2**(6 - precision_bits) for certified rounding bounds (0 in exact mode)."""
        if self.exact:
            return Fraction(0)
        prec = self.precision_bits
        return _make_mpf(prec, libmp.from_man_exp(1, 6 - prec))


def _as_exact_int(exponent) -> int:
    if isinstance(exponent, Fraction) and exponent.denominator == 1:
        return int(exponent)
    if isinstance(exponent, float) and exponent.is_integer():
        return int(exponent)
    try:
        return operator.index(exponent)
    except TypeError:
        raise NumericModeError(
            f"exponent {exponent!r} is not an integer; exact-rational mode "
            "cannot represent this power"
        ) from None


def general_power(ctx: NumericContext, base, exponent):
    """base**exponent in the context arithmetic.

    Exact mode accepts only integer exponents, keeping Fractions closed.
    Otherwise the power is ``mpf_pow`` at the context's precision, passed
    explicitly.
    """
    if ctx.exact:
        return ctx.real(base) ** _as_exact_int(exponent)
    prec = ctx.precision_bits
    b, e = _raw(base, prec), _raw(exponent, prec)
    if b[0] and e[2] < 0:  # a negative base and a non-integer exponent
        raise LogDomain(f"non-integer power {exponent} of negative base {base}")
    if b == libmp.fzero and e[0]:
        raise LogDomain("negative power of zero")
    return _make_mpf(prec, libmp.mpf_pow(b, e, prec, _RND))  # 0**0 = 1, 0**e = 0


# ---------------------------------------------------------------------------
# Closed-form constants
# ---------------------------------------------------------------------------

def _prefactor(ctx: NumericContext, pa, pa1):
    """C = (1 - pa) / (1 - pa1) with pa = p**(-alpha) and pa1 = p**(alpha - 1).

    The callers check alpha.  Raises :class:`AlphaOutOfRange` when pa1
    rounds to 1 at the context's precision, as it does for an alpha within
    about 2**-precision_bits of 1 given at a higher precision.
    """
    gap = 1 - pa1
    if not gap:
        raise AlphaOutOfRange(
            f"alpha must exceed 1 by more than {ctx.precision_bits} bits resolve: "
            "p**(alpha-1) rounds to 1"
        )
    return (1 - pa) / gap


def _unit(ctx: NumericContext, pa):
    """U = (p - 2 + pa) / (p * (1 - pa)) with pa = p**(-alpha)."""
    p = ctx.prime
    return (p - 2 + pa) / (p * (1 - pa))


def unit_kernel_integral(ctx: NumericContext, alpha):
    """Integral of |1 - t|**(alpha-1) over the unit sphere |t| = 1.

    Closed form (p - 2 + p**(-alpha)) / (p * (1 - p**(-alpha))).  It needs
    no C, so it stays finite where C's denominator rounds to 0.
    """
    return _unit(ctx, ctx.p_pow(-_check_alpha(ctx, alpha)))


def _check_alpha(ctx: NumericContext, alpha):
    """alpha as a context scalar, by the library's one rule for alpha:
    AlphaOutOfRange unless it exceeds 1 by more than rel_tol."""
    a = ctx.real(alpha, "alpha")
    if a - 1 <= ctx.rel_tol:
        raise AlphaOutOfRange(
            f"alpha must exceed 1 by more than rel_tol, got {alpha}"
        )
    return a


def prefactor(ctx: NumericContext, alpha):
    """Normalising constant (1 - p**(-alpha)) / (1 - p**(alpha-1)).

    Negative for every alpha > 1 (the denominator changes sign at 1).
    """
    a = _check_alpha(ctx, alpha)
    return _prefactor(ctx, ctx.p_pow(-a), ctx.p_pow(a - 1))


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

class RandomStream:
    """Splittable randomness source; each stream is owned by one caller."""

    def __init__(self, seed):
        import numpy as np  # only the Monte Carlo path needs numpy

        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(seed)
        self.generator = np.random.default_rng(self._seq)

    def split(self, n: int) -> list["RandomStream"]:
        """Derive n independent child streams."""
        return [RandomStream(child) for child in self._seq.spawn(n)]


def sample_kernel_exponents(ctx: NumericContext, n, samples: int, stream: RandomStream):
    """Histogram of Haar draws y in the ball |y| <= p**n over (|y|, |x - y|) cells.

    For any x with |x| = p**n, returns equal-length integer arrays
    (j, e, counts): ``counts[i]`` of the ``samples`` draws have
    |y| = p**j[i] and |x - y| = p**e[i].  There is one entry per cell, in
    increasing e - j, from the deepest cell drawn on the sphere |y| = p**n
    to the deepest drawn inside it, so undrawn cells between them carry a
    count of 0.  No digits are drawn: Haar digits are i.i.d. uniform, so by
    ultrametricity each draw follows the depth law

    * P(j = n - z, e = n) = (1 - 1/p) p**(-z) for z >= 1;
    * P(j = e = n) = (p - 2) / p (the leading digits differ);
    * P(j = n, e = n - t) = (1 - 1/p) p**(-t) for t >= 1,

    where t is the number of leading digits y shares with x.  The law does
    not depend on which point x of the sphere is chosen.  One multinomial
    splits the draws into the three lines, and each depth histogram is a
    binomial chain: of the m draws of depth >= k, Bin(m, 1 - 1/p) stop at
    k, which by memorylessness is the law of the histogram of m i.i.d.
    geometric depths.  The work is O(log_p samples), with no per-draw
    arrays.
    """
    import numpy as np

    n = _require_finite(n)
    samples = _require_finite(samples, "samples")
    if not 1 <= samples < 2**63:  # numpy draws counts as int64
        raise ParamOutOfRange(f"samples must lie in [1, 2**63), got {samples}")
    p = ctx.prime
    rng = stream.generator
    inside, differ, match = rng.multinomial(samples, [1 / p, (p - 2) / p, 1 / p])

    def depths(m):
        """Counts of depth 1, 2, ... among m draws with P(depth = k) = (1 - 1/p) p**(1 - k)."""
        counts = []
        while m:
            stop = rng.binomial(m, 1.0 - 1.0 / p)
            counts.append(stop)
            m -= stop
        return counts

    on_sphere = depths(match)  # depth t of the cell e = n - t
    below = depths(inside)  # depth z of the cell j = n - z
    counts = np.array([*reversed(on_sphere), differ, *below], dtype=np.int64)
    d = np.arange(-len(on_sphere), len(below) + 1)  # the cell e - j
    return n - np.maximum(d, 0), n + np.minimum(d, 0), counts
