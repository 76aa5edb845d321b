"""Literal p-adic digit arithmetic: the oracle for the Haar depth sampler.

A :class:`PadicApprox` holds a p-adic number to finite digit precision;
:func:`padic_sub_abs` finds |x - y| by digitwise subtraction with borrow and
:func:`haar_sample_ball` draws Haar digits one by one.  The library's
sampler draws the sizes |y| and |x - y| from their ultrametric law instead;
tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from padic_ialpha import (
    NumericContext,
    ParamOutOfRange,
    RandomStream,
    UndefinedAtZero,
)
from padic_ialpha.core import _is_prime, _require_finite


class TotalCancellation(ArithmeticError):
    """Every available digit of x - y cancelled, so |x - y| is unknown."""


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

    Raises :class:`TotalCancellation` when every available digit cancels;
    distinct inputs are never reported as an exact zero.
    """
    if x.prime != y.prime:
        raise ParamOutOfRange("operands must share a prime")
    if x.digit_precision != y.digit_precision:
        raise ParamOutOfRange("operands must share digit precision")
    if x.is_zero and y.is_zero:
        raise TotalCancellation("both operands are the exact zero")
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
    raise TotalCancellation(
        f"all {x.digit_precision} digits cancelled; resample or deepen precision"
    )


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

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

