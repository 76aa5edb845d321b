"""Literal sphere sums: the oracle for the sphere-sum engine.

Every sphere from a deep cut up to the top is summed one by one, each power
of p computed afresh, at 512 bits (or with Fractions in exact mode).  Every
real parameter enters as ``Fraction(x)``, the exact value of the double the
library receives.  Profile values come from the profile definitions here,
not from the library.

Below the cut every profile is exactly c * p**(j*d).  In float mode the
spheres below the cut are not summed; ``slack`` bounds them.  In exact mode
their geometric sum is added in closed form and ``slack`` is 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp

from padic_ialpha import Indicator, LinearCombo, LogPower, Monomial, Table, ZeroTail


class Arith:
    """Scalars of the oracle: Fractions, or mpf at a fixed precision."""

    def __init__(self, p: int, exact: bool, log_base_p: bool):
        self.p, self.exact, self.log_base_p = p, exact, log_base_p

    def num(self, x):
        x = Fraction(x)
        if self.exact:
            return x
        return mp.mpf(x.numerator) / x.denominator

    def power(self, base, e):
        if self.exact:
            e = Fraction(e)
            assert e.denominator == 1, "exact mode needs integer exponents"
            return Fraction(base) ** int(e)
        return mp.power(base, e)

    def p_pow(self, e):
        return self.power(self.p, e)

    def log_radius(self, j: int):
        if self.log_base_p:
            return self.num(j)
        return j * mp.log(self.p)


def value(f, j: int, A: Arith):
    """f(p**j) from the profile's definition."""
    if isinstance(f, Monomial):
        return A.p_pow(A.num(f.degree) * j)
    if isinstance(f, Indicator):
        return A.num(1 if j <= f.n else 0)
    if isinstance(f, LogPower):
        if j <= 0:
            return A.num(1 if f.gamma == 0 else 0)
        out = A.p_pow(-A.num(f.beta) * j)
        if f.gamma != 0:
            out *= A.power(A.log_radius(j), A.num(f.gamma))
        return out
    if isinstance(f, Table):
        if j < f.j_lo:
            tail = f.inner_tail
            if isinstance(tail, ZeroTail):
                return A.num(0)
            return A.num(tail.coeff) * A.p_pow(A.num(tail.degree) * j)
        if j <= f.j_hi:
            return A.num(f.values[j - f.j_lo])
        tail = f.outer_tail
        logs = sum(
            A.num(a) * A.power(A.log_radius(j), A.num(tail.gamma) - k)
            for k, a in enumerate(tail.coeffs)
        )
        return A.p_pow(-A.num(tail.beta) * j) * logs
    if isinstance(f, LinearCombo):
        return sum((A.num(c) * value(g, j, A) for c, g in f.terms), A.num(0))
    raise TypeError(f)


def inner_pieces(f, A: Arith):
    """(j0, [(c, d), ...]): f(p**j) = sum of c * p**(j*d) for every j <= j0."""
    if isinstance(f, Monomial):
        return math.inf, [(A.num(1), A.num(f.degree))]
    if isinstance(f, Indicator):
        return f.n, [(A.num(1), A.num(0))]
    if isinstance(f, LogPower):
        return 0, [(A.num(1), A.num(0))] if f.gamma == 0 else []
    if isinstance(f, Table):
        tail = f.inner_tail
        if isinstance(tail, ZeroTail):
            return f.j_lo - 1, []
        return f.j_lo - 1, [(A.num(tail.coeff), A.num(tail.degree))]
    if isinstance(f, LinearCombo):
        j0, pieces = math.inf, []
        for c, g in f.terms:
            jg, pg = inner_pieces(g, A)
            j0 = min(j0, jg)
            pieces += [(A.num(c) * a, d) for a, d in pg]
        return j0, pieces
    raise TypeError(f)


def _geometric_below(A: Arith, rate, cut: int):
    """Sum of p**(j*rate) over j < cut (rate > 0)."""
    return A.p_pow(rate * (cut - 1)) / (1 - A.p_pow(-rate))


def literal_sum(f, top: int, A: Arith, alpha=None, rel: float = 1e-80):
    """Sum over j <= top of f(p**j) * (1 - 1/p) * p**j * w(j), sphere by sphere.

    w = 1, or w(j) = p**(N(alpha-1)) - p**(j(alpha-1)) with N = top + 1.
    Returns (total, slack, size): slack bounds what lies below the cut
    (0 in exact mode) and size is the sum of |term|.
    """
    p = A.p
    unit = 1 - A.num(1) / p
    a1 = None if alpha is None else A.num(alpha) - 1
    K = A.num(1) if a1 is None else A.p_pow(a1 * (top + 1))
    j0, pieces = inner_pieces(f, A)
    cut = min(j0 + 1, top + 1)
    rates = [float(d) + 1 for _, d in pieces]
    if A.exact:
        cut -= 8  # the tail is added exactly; a few literal spheres suffice
    elif rates:
        r = min(rates)
        cut -= math.ceil(math.log(1 / (rel * (1 - p ** -r))) / (r * math.log(p)))
    total = size = A.num(0)
    for j in range(cut, top + 1):
        w = K if a1 is None else K - A.p_pow(a1 * j)
        term = value(f, j, A) * unit * A.p_pow(j) * w
        total += term
        size += abs(term)
    slack = A.num(0)
    for c, d in pieces:
        head = _geometric_below(A, d + 1, cut)
        if A.exact:
            tail = K * head
            if a1 is not None:
                tail -= _geometric_below(A, d + 1 + a1, cut)
            total += c * unit * tail
        else:
            slack += abs(c) * unit * K * head
    return total, slack, size


def oracle_ialpha(f, N: int, alpha, p: int, *, exact=False, bits=512, log_base_p=False):
    """(value, slack) of the operator at |x| = p**N, summed sphere by sphere."""
    A = Arith(p, exact, log_base_p)
    with mp.workprec(bits):
        a = A.num(alpha)
        inner, slack, size = literal_sum(f, N - 1, A, alpha)
        unit = 1 - A.num(1) / p
        pa = A.p_pow(-a)
        U = (p - 2 + pa) / (p * (1 - pa))
        C = (1 - pa) / (1 - A.p_pow(a - 1))
        outer = value(f, N, A) * A.p_pow(a * N) * (U - unit)
        rounding = 0 if exact else mp.mpf(2) ** (40 - bits) * (size + abs(outer))
        return C * (inner + outer), abs(C) * (slack + rounding)


def oracle_ball(f, n: int, p: int, *, exact=False, bits=512, log_base_p=False):
    """(value, slack, size) of the integral of f over |y| <= p**n."""
    A = Arith(p, exact, log_base_p)
    with mp.workprec(bits):
        total, slack, size = literal_sum(f, n, A)
        rounding = 0 if exact else mp.mpf(2) ** (40 - bits) * size
        return total, slack + rounding, size
