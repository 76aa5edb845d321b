"""The moments read Phi_k from the operator's guarded kernels: no prediction
may be less accurate than when each moment formed Phi_k at working precision.

Each prediction is compared with a 512-bit evaluation of the same expansion
that takes the prefactor C, the unit-sphere integral U and 1 - 1/p at the
prediction's own precision, as the prediction and its operator share them.
At alpha = 1.001 those three alone carry hundreds of ulps (1 - p**(alpha-1)
and U - (1 - 1/p) cancel about ten bits), which would hide the error of the
kernels this check is about.
"""

from __future__ import annotations

import pytest
from mpmath import mp

from padic_ialpha import LogPower, NumericContext, predict_infinity, predict_infinity_beta1
from expansion_oracle import constants, oracle_prediction

X = 24
CASES = [("T3", g, n) for g in (1, 2, 3) for n in range(4)] + [
    ("T4", g, n) for g in (0, 1, 2) for n in range(4)
]


def _prediction(kind, gamma, order, alpha, ctx):
    if kind == "T3":
        return predict_infinity([1.0], 0.5, gamma, order, X, alpha, ctx)
    return predict_infinity_beta1([1.0], gamma, order, X, LogPower(1.0, gamma), alpha, ctx)


@pytest.mark.parametrize("kind, gamma, order", CASES)
def test_shared_kernels_lose_no_accuracy(kind, gamma, order):
    for alpha in (1.001, 1.7, 3.0):
        for p in (2, 3, 5):
            reference = NumericContext(p, precision_bits=512)
            for bits in (64, 256):
                ctx = NumericContext(p, precision_bits=bits)
                want = oracle_prediction(kind, gamma, order, X, alpha, reference,
                                         shared=constants(alpha, ctx))
                got = _prediction(kind, gamma, order, alpha, ctx)
                before = oracle_prediction(kind, gamma, order, X, alpha, ctx)
                with mp.workprec(1024):
                    ulp = abs(want) * mp.mpf(2) ** (1 - bits)
                    assert abs(got - want) <= abs(before - want) + 4 * ulp, (alpha, p, bits)
