"""Numeric context, closed-form ball/sphere integrals and p-adic digit plumbing.

Everything downstream (radial profiles, the operator evaluator, the
asymptotic coefficient engines) funnels its arithmetic through a
:class:`NumericContext`.  Two arithmetic backends are supported:

* extended-precision binary floats (mpmath, configurable mantissa), the
  default -- sphere sums reach magnitudes like p**(alpha*N) far beyond
  float64 range;
* exact rationals (``fractions.Fraction``), available when every exponent
  that occurs is an integer and no natural logarithm enters.  Used as the
  oracle side of regression tests.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np
from mpmath import mp

__all__ = [
    "AlphaOutOfRange",
    "BetaOutOfRange",
    "DivergentInnerSum",
    "EXACT_ZERO",
    "HypothesisMismatch",
    "LogBase",
    "LogDomain",
    "MissingTail",
    "NumericContext",
    "NumericModeError",
    "PadicApprox",
    "ParamOutOfRange",
    "ParseError",
    "PrecisionExhausted",
    "QOutOfRange",
    "RandomStream",
    "TailMismatch",
    "UndefinedAtZero",
    "ZERO",
    "ball_power_integral",
    "haar_sample_ball",
    "padic_sub_abs",
    "prefactor",
    "sample_kernel_exponents",
    "sphere_measure",
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
    """A tabulated profile was evaluated outside its range with no tail model."""


class DivergentInnerSum(ValueError):
    """The declared inner tail is not integrable at the origin."""


class TailMismatch(ValueError):
    """The profile's declared tail disagrees with the expansion parameters."""


class HypothesisMismatch(ValueError):
    """The profile does not satisfy the hypotheses of the requested check."""


class PrecisionExhausted(ArithmeticError):
    """Every available digit cancelled in a finite-precision subtraction.

    Never downgraded to a silent zero: Monte Carlo kernels rely on the
    caller resampling or deepening the digit window.
    """


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

    def __le__(self, other):
        if isinstance(other, int) or other is self:
            return True
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, int) or other is self:
            return False
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, int):
            return False
        if other is self:
            return True
        return NotImplemented


#: Radius-zero sentinel; ``n is ZERO`` marks the single point x = 0.
ZERO = _RadiusZero()

#: A ball/sphere radius is p**n for an exact integer n, or ZERO.
BallExponent = "int | _RadiusZero"


def _require_finite(n, what: str = "exponent") -> int:
    if n is ZERO:
        raise ParamOutOfRange(f"{what} must be finite, got ZERO")
    if not isinstance(n, (int, np.integer)):
        raise ParamOutOfRange(f"{what} must be an integer, got {n!r}")
    return int(n)


def _require_real(x, what: str = "parameter"):
    """x itself, if it is a finite real number; bools, NaN and inf are rejected."""
    if isinstance(x, bool) or not isinstance(x, (numbers.Real, mp.mpf)):
        raise ParamOutOfRange(f"{what} must be a real number, got {x!r}")
    if not isinstance(x, numbers.Rational) and not mp.isfinite(x):
        raise ParamOutOfRange(f"{what} must be finite, got {x!r}")
    return x


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
        if not _is_prime(self.prime):
            raise ParamOutOfRange(f"prime must be prime, got {self.prime}")
        if self.precision_bits < 64:
            raise ParamOutOfRange("precision_bits must be at least 64")
        if not 0 < self.rel_tol < 1:
            raise ParamOutOfRange("rel_tol must lie in (0, 1)")
        if isinstance(self.log_base, str):
            object.__setattr__(self, "log_base", LogBase(self.log_base))

    # -- scalar backend ----------------------------------------------------

    def workprec(self):
        """mpmath working-precision context for this configuration."""
        return mp.workprec(self.precision_bits)

    def real(self, x):
        """Convert a Python number into this context's scalar type."""
        if self.exact:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, (int, np.integer)):
                return Fraction(int(x))
            if isinstance(x, float):
                return Fraction(x)
            raise NumericModeError(f"cannot represent {x!r} exactly")
        with self.workprec():
            return mp.convert(x)

    def p_pow(self, exponent):
        """p raised to a (real) exponent in the context arithmetic."""
        if self.exact:
            e = _as_exact_int(exponent)
            return Fraction(self.prime) ** e
        with self.workprec():
            return mp.power(self.prime, mp.convert(exponent))

    def log_unit(self):
        """The factor L with log(p**j) = j * L under the chosen convention."""
        if self.log_base is LogBase.BASE_P:
            return Fraction(1) if self.exact else mp.mpf(1)
        if self.exact:
            raise NumericModeError(
                "natural log of the radius is irrational; use log_base=BASE_P "
                "for exact-rational work"
            )
        with self.workprec():
            return mp.log(self.prime)

    def log_radius(self, x_exp: int):
        """log(p**x_exp) under the context convention."""
        x_exp = _require_finite(x_exp, "x_exp")
        with self.workprec():
            return x_exp * self.log_unit()

    def rounding_eps(self):
        """Unit used for certified rounding bounds (0 in exact mode)."""
        if self.exact:
            return Fraction(0)
        with self.workprec():
            return mp.mpf(2) ** (6 - self.precision_bits)


def _as_exact_int(exponent) -> int:
    if isinstance(exponent, (int, np.integer)):
        return int(exponent)
    if isinstance(exponent, Fraction) and exponent.denominator == 1:
        return int(exponent)
    if isinstance(exponent, float) and exponent.is_integer():
        return int(exponent)
    raise NumericModeError(
        f"exponent {exponent!r} is not an integer; exact-rational mode "
        "cannot represent this power"
    )


def general_power(ctx: NumericContext, base, exponent):
    """base**exponent in the context arithmetic.

    Exact mode accepts only integer exponents, keeping Fractions closed.
    """
    if ctx.exact:
        return ctx.real(base) ** _as_exact_int(exponent)
    with ctx.workprec():
        b = mp.convert(base)
        e = mp.convert(exponent)
        if b < 0 and not mp.isint(e):
            raise LogDomain(f"non-integer power {exponent} of negative base {base}")
        if b == 0:
            if e == 0:
                return mp.mpf(1)
            if e < 0:
                raise LogDomain("negative power of zero")
            return mp.mpf(0)
        return mp.power(b, e)


# ---------------------------------------------------------------------------
# Closed-form integrals
# ---------------------------------------------------------------------------

def ball_power_integral(ctx: NumericContext, alpha, n):
    """Integral of |x|**(alpha-1) over the ball |x| <= p**n.

    Equals (1 - 1/p) / (1 - p**(-alpha)) * p**(alpha*n); alpha = 1 collapses
    to the ball measure p**n.
    """
    if float(alpha) <= 0:
        raise AlphaOutOfRange(f"alpha must be positive, got {alpha}")
    n = _require_finite(n)
    with ctx.workprec():
        one = ctx.real(1)
        return (
            (one - ctx.p_pow(-1))
            / (one - ctx.p_pow(_negate(alpha)))
            * ctx.p_pow(_scale_exp(alpha, n))
        )


def sphere_measure(ctx: NumericContext, n):
    """Haar measure (1 - 1/p) * p**n of the sphere |x| = p**n."""
    n = _require_finite(n)
    with ctx.workprec():
        return (ctx.real(1) - ctx.p_pow(-1)) * ctx.p_pow(n)


def unit_kernel_integral(ctx: NumericContext, alpha):
    """Integral of |1 - t|**(alpha-1) over the unit sphere |t| = 1.

    Closed form (p - 2 + p**(-alpha)) / (p * (1 - p**(-alpha))).
    """
    if float(alpha) <= 1:
        raise AlphaOutOfRange(f"alpha must exceed 1, got {alpha}")
    with ctx.workprec():
        p = ctx.real(ctx.prime)
        pa = ctx.p_pow(_negate(alpha))
        return (p - 2 + pa) / (p * (ctx.real(1) - pa))


def prefactor(ctx: NumericContext, alpha):
    """Normalising constant (1 - p**(-alpha)) / (1 - p**(alpha-1)).

    Negative for every alpha > 1 (the denominator changes sign at 1).
    """
    _require_real(alpha, "alpha")
    if float(alpha) <= 1 + ctx.rel_tol:
        raise AlphaOutOfRange(
            f"alpha must exceed 1 by more than rel_tol, got {alpha}"
        )
    with ctx.workprec():
        one = ctx.real(1)
        return (one - ctx.p_pow(_negate(alpha))) / (
            one - ctx.p_pow(_shift(alpha, -1))
        )


# small exponent helpers: keep ints/Fractions exact, floats as floats
def _negate(x):
    return -x


def _scale_exp(alpha, n: int):
    if isinstance(alpha, (int, np.integer)):
        return int(alpha) * n
    if isinstance(alpha, Fraction):
        return alpha * n
    return float(alpha) * n


def _shift(alpha, d: int):
    if isinstance(alpha, (int, np.integer)):
        return int(alpha) + d
    if isinstance(alpha, Fraction):
        return alpha + d
    return float(alpha) + d


# ---------------------------------------------------------------------------
# Truncated p-adic numbers
# ---------------------------------------------------------------------------

class _ExactZero:
    """Valuation marker for the exact p-adic zero."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EXACT_ZERO"


EXACT_ZERO = _ExactZero()


@dataclass(frozen=True)
class PadicApprox:
    """A p-adic number to finite digit precision.

    ``digits[i]`` is the coefficient of p**(valuation + i); the leading digit
    is nonzero unless the value is the exact zero, so the absolute value is
    exactly p**(-valuation).
    """

    prime: int
    valuation: "int | _ExactZero"
    digits: tuple[int, ...]

    def __post_init__(self):
        if not _is_prime(self.prime):
            raise ParamOutOfRange(f"prime must be prime, got {self.prime}")
        if len(self.digits) < 1:
            raise ParamOutOfRange("at least one digit is required")
        if any(not 0 <= d < self.prime for d in self.digits):
            raise ParamOutOfRange("digits must lie in [0, prime)")
        if self.valuation is EXACT_ZERO:
            if any(self.digits):
                raise ParamOutOfRange("the exact zero has all-zero digits")
        elif self.digits[0] == 0:
            raise ParamOutOfRange("leading digit must be nonzero")

    @property
    def digit_precision(self) -> int:
        return len(self.digits)

    @property
    def is_zero(self) -> bool:
        return self.valuation is EXACT_ZERO

    @property
    def abs_exponent(self) -> int:
        """e with |self| = p**e."""
        if self.is_zero:
            raise UndefinedAtZero("the exact zero has absolute value 0")
        return -self.valuation

    @classmethod
    def exact_zero(cls, prime: int, digit_precision: int = 8) -> "PadicApprox":
        return cls(prime, EXACT_ZERO, (0,) * digit_precision)

    @classmethod
    def from_int(cls, value: int, prime: int, digit_precision: int = 8) -> "PadicApprox":
        """Digit expansion of an integer (negative values wrap modularly)."""
        if value == 0:
            return cls.exact_zero(prime, digit_precision)
        v = 0
        u = value
        while u % prime == 0:
            u //= prime
            v += 1
        m = u % prime ** digit_precision
        digits = []
        for _ in range(digit_precision):
            m, d = divmod(m, prime)
            digits.append(d)
        return cls(prime, v, tuple(digits))


def padic_sub_abs(x: PadicApprox, y: PadicApprox) -> int:
    """Exponent e with |x - y| = p**e, by digitwise subtraction with borrow.

    Raises :class:`PrecisionExhausted` when every available digit cancels;
    distinct inputs are never reported as an exact zero.
    """
    if x.prime != y.prime:
        raise ParamOutOfRange("operands must share a prime")
    if x.digit_precision != y.digit_precision:
        raise ParamOutOfRange("operands must share digit precision")
    if x.is_zero and y.is_zero:
        raise PrecisionExhausted("both operands are the exact zero")
    if x.is_zero:
        return y.abs_exponent
    if y.is_zero:
        return x.abs_exponent
    if x.valuation != y.valuation:
        # ultrametric equality: |x - y| = max(|x|, |y|)
        return max(x.abs_exponent, y.abs_exponent)
    p = x.prime
    borrow = 0
    for i, (a, b) in enumerate(zip(x.digits, y.digits)):
        d = a - b - borrow
        if d < 0:
            d += p
            borrow = 1
        else:
            borrow = 0
        if d != 0:
            return -(x.valuation + i)
    raise PrecisionExhausted(
        f"all {x.digit_precision} digits cancelled; resample or deepen precision"
    )


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

class RandomStream:
    """Splittable randomness source; each stream is owned by one caller."""

    def __init__(self, seed):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(seed)
        self.generator = np.random.default_rng(self._seq)

    def split(self, n: int) -> list["RandomStream"]:
        """Derive n independent child streams."""
        return [RandomStream(child) for child in self._seq.spawn(n)]


def haar_sample_ball(
    ctx: NumericContext,
    n,
    digit_precision: int = 16,
    stream: RandomStream | None = None,
) -> PadicApprox:
    """Draw from the normalised Haar measure on the ball |y| <= p**n.

    Digits are i.i.d. uniform starting at the p**(-n) coefficient, so the
    valuation offset is geometric: P(|y| = p**j) = (1 - 1/p) * p**(j - n)
    for j <= n.
    """
    if digit_precision < 8:
        raise ParamOutOfRange("digit_precision must be at least 8")
    n = _require_finite(n)
    if stream is None:
        raise ParamOutOfRange("a RandomStream is required")
    rng = stream.generator
    p = ctx.prime
    zeros = 0
    while True:
        d = int(rng.integers(0, p))
        if d:
            break
        zeros += 1
    rest = rng.integers(0, p, size=digit_precision - 1)
    return PadicApprox(p, -n + zeros, (d, *(int(r) for r in rest)))


def sample_kernel_exponents(
    ctx: NumericContext,
    n,
    samples: int,
    stream: RandomStream,
    digit_window: int = 16,
    max_escalations: int = 3,
    representative_digits: tuple[int, ...] = (1,),
):
    """Vectorised Haar draws paired with distances to a fixed sphere point.

    Draws y_1..y_samples from the Haar measure on the ball |y| <= p**n and,
    for the representative x with |x| = p**n whose digit string is
    ``representative_digits`` (zero-padded), returns integer arrays (j, e)
    with |y_i| = p**j[i] and |x - y_i| = p**e[i].

    Digit agreement beyond the current window is resolved by widening the
    window (doubled digit precision); after ``max_escalations`` widenings a
    still-cancelling sample raises :class:`PrecisionExhausted`.
    """
    n = _require_finite(n)
    if representative_digits[0] % ctx.prime == 0:
        raise ParamOutOfRange("representative leading digit must be nonzero")
    rng = stream.generator
    p = ctx.prime
    zeros = rng.geometric(1.0 - 1.0 / p, size=samples) - 1
    j = n - zeros.astype(np.int64)

    t = np.zeros(samples, dtype=np.int64)  # digit agreement depth with x
    idx = np.flatnonzero(zeros == 0)
    if idx.size:
        lead = rng.integers(1, p, size=idx.size)
        idx = idx[lead == representative_digits[0]]
    depth = 1
    windows = [max(digit_window - 1, 1)]
    windows += [digit_window * (1 << k) for k in range(max_escalations)]
    for window in windows:
        if idx.size == 0:
            break
        draw = rng.integers(0, p, size=(idx.size, window))
        ref = np.zeros(window, dtype=np.int64)
        for k in range(window):
            if depth + k < len(representative_digits):
                ref[k] = representative_digits[depth + k]
        differs = draw != ref
        hit = differs.any(axis=1)
        first = differs.argmax(axis=1)
        t[idx[hit]] = depth + first[hit]
        idx = idx[~hit]
        depth += window
    if idx.size:
        raise PrecisionExhausted(
            f"{idx.size} draws still cancel after {max_escalations} escalations"
        )
    return j, n - t
