"""Direct series sums: the oracles for the closed-form coefficient engines.

Each series is summed term by term at 512 bits until a geometric bound on
what is left falls below ``rel`` of the sum.  Every real parameter enters as ``Fraction(x)``, the exact value
of the double the library receives.  Nothing here calls the library.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp

BITS = 512
REL = 1e-80


def _num(x):
    x = Fraction(x)
    return mp.mpf(x.numerator) / x.denominator


def gen_binomial_float(gamma, k: int) -> float:
    """gamma (gamma-1) ... (gamma-k+1) / k! in doubles."""
    acc = 1.0
    for i in range(k):
        acc *= float(gamma) - i
    return acc / math.factorial(k)


def phi_sum_direct(k: int, q, rel=REL):
    """Phi_k(q) = sum_{m>=1} m**k q**m, 0 < q < 1."""
    with mp.workprec(BITS):
        qv = _num(q)
        total = mp.mpf(0)
        m = 1
        while True:
            term = mp.mpf(m) ** k * qv**m
            total += term
            # later terms shrink by at most ratio each
            ratio = qv * (mp.mpf(m + 1) / m) ** k
            if ratio < 1 and term * ratio / (1 - ratio) < rel * total:
                return total
            m += 1


def b_coefficient_series(M, alpha, p: int, rel=REL):
    """b(M) from its defining series over the spheres |s| = p**(-k), k >= 1."""
    with mp.workprec(BITS):
        m, a = _num(M), _num(alpha)
        bterm = (mp.power(p, 1 - a) - 1) / ((1 - mp.power(p, -a)) * p)
        r = mp.power(p, -(m + 1))
        total = mp.mpf(0)
        k = 1
        while True:
            term = (1 - mp.power(p, (1 - a) * k)) * mp.power(p, -(m + 1) * k)
            total += term
            # the remaining terms are below sum_{k' > k} r**k'
            if mp.power(p, -(m + 1) * (k + 1)) / (1 - r) < rel * abs(total):
                return bterm + (1 - mp.mpf(1) / p) * total
            k += 1


def smallball_direct(k: int, beta, R: int, alpha, p: int, rel=REL):
    """Small-ball kernel integral, summed sphere by sphere.

    (1 - 1/p) * sum_{m>=R} (p**(m(beta-1)) - p**(m(beta-alpha))) (m log p)**k,
    with the two powers of p carried as running products.
    """
    with mp.workprec(BITS):
        b, a = _num(beta), _num(alpha)
        L = mp.log(p)
        r1, r2 = mp.power(p, b - 1), mp.power(p, b - a)
        q1, q2 = r1**R, r2**R
        total = mp.mpf(0)
        m = R
        while True:
            logs = (m * L) ** k
            total += (q1 - q2) * logs
            # each later term is below q1 * logs, whose ratio falls with m
            ratio = r1 * (mp.mpf(m + 1) / m) ** k
            if ratio < 1 and q1 * logs * ratio / (1 - ratio) < rel * total:
                return (1 - mp.mpf(1) / p) * total
            q1 *= r1
            q2 *= r2
            m += 1
