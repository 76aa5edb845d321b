"""Results do not depend on mpmath's global precision.

Every public entry works at its context's precision: each mpf the library
makes belongs to the mpmath context of that precision, and arithmetic
rounds at the precision of its left operand's context.  A scalar made in
mpmath's global context instead would round to ``mp.prec``, which shows as
a different result once that setting changes.  The parameters are
non-dyadic so that such a rounding is visible.
"""

from dataclasses import fields, is_dataclass
from fractions import Fraction

import pytest
from mpmath import mp

from padic_ialpha import (
    Indicator,
    LinearCombo,
    LogPower,
    Monomial,
    NumericContext,
    cumulative_ball_integral,
    ialpha_eval,
    lemma_decay_check,
    omega,
    outer_expansion,
    predict_infinity,
    predict_infinity_beta1,
    predict_origin,
    ratio_bound_check,
    residual_scan,
    series_B,
)

CTX = NumericContext(3)
ALPHA, BETA, GAMMA = 1.7, 0.3, 1.7
# beta = 1 with a non-dyadic gamma, given exactly
ALPHA_1, GAMMA_1 = Fraction(17, 10), Fraction(1, 3)
F_T3 = LogPower(BETA, GAMMA)
F_T4 = LogPower(1, GAMMA_1)

ENTRIES = {
    "ialpha_eval": lambda: ialpha_eval(F_T3, 7, ALPHA, CTX),
    # an integer log power: the guarded closed form and the expm1 kernel
    "ialpha_eval_integer_gamma": lambda: ialpha_eval(LogPower(BETA, 2), 40, ALPHA, CTX),
    "ialpha_eval_combo": lambda: ialpha_eval(
        LinearCombo(((0.3, Indicator(2)), (1.1, Monomial(0.7)))), -3, ALPHA, CTX
    ),
    "cumulative_ball_integral": lambda: cumulative_ball_integral(F_T3, 7, CTX),
    "predict_origin": lambda: predict_origin(
        [1.0, -0.3], [0.3, 1.7], 1, -7, ALPHA, CTX
    ),
    "predict_infinity": lambda: predict_infinity(
        [1.0, 0.3], BETA, GAMMA, 2, 40, ALPHA, CTX
    ),
    "predict_infinity_beta1": lambda: predict_infinity_beta1(
        [1], GAMMA_1, 1, 9, F_T4, ALPHA_1, CTX
    ),
    "residual_scan_T1": lambda: residual_scan(
        "T1", Monomial(0.3), 0, range(-40, -3, 4), ALPHA, CTX
    ),
    "residual_scan_T3": lambda: residual_scan("T3", F_T3, 2, [8, 12, 20], ALPHA, CTX),
    "residual_scan_T4": lambda: residual_scan("T4", F_T4, 1, [4, 8, 12], ALPHA_1, CTX),
    "residual_scan_T4_printed": lambda: residual_scan(
        "T4", F_T4, 1, [4, 8, 12], ALPHA_1, CTX, printed_form=True
    ),
    "ratio_bound_check": lambda: ratio_bound_check(
        LogPower(1.3, 0), [2, 5, 9], ALPHA, CTX
    ),
    "lemma_decay_check_L1": lambda: lemma_decay_check(
        "L1", {"lam": 0.3, "lam_prime": 0.7}, [2, 6, 10], CTX
    ),
    "lemma_decay_check_L2": lambda: lemma_decay_check(
        "L2", {"k": 1, "beta": BETA, "eps": 0.2, "alpha": ALPHA}, [2, 5], CTX
    ),
    "series_B": lambda: series_B([1.0, 0.3], GAMMA, 2, "omega", ALPHA, CTX, beta=BETA),
    "omega": lambda: omega(2, ALPHA, BETA, CTX),
    "outer_expansion": lambda: outer_expansion(
        LinearCombo(((0.7, LogPower(BETA, GAMMA)), (1.3, LogPower(BETA, 0.7)))), CTX
    ),
}


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_result_does_not_depend_on_global_precision(name):
    entry = ENTRIES[name]
    saved = mp.prec
    try:
        at_default = entry()
        mp.prec = 24
        at_low = entry()
    finally:
        mp.prec = saved
    # repr after restoring: an mpf's repr shows as many digits as mp.prec allows
    assert repr(at_low) == repr(at_default)


def _raw(x):
    """x with every mpf replaced by its raw _mpf_ tuple, recursively."""
    if hasattr(x, "_mpf_"):
        return ("mpf", x._mpf_)
    if is_dataclass(x):
        return (type(x).__name__, *(_raw(getattr(x, f.name)) for f in fields(x)))
    if isinstance(x, (list, tuple)):
        return tuple(_raw(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _raw(v)) for k, v in x.items()))
    return x


def _raw_at(entry, precs) -> list:
    """_raw(entry()) at each global mp.prec in precs; mp.prec is restored."""
    saved = mp.prec
    try:
        out = []
        for prec in precs:
            mp.prec = prec
            out.append(_raw(entry()))
        return out
    finally:
        mp.prec = saved


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_raw_values_do_not_depend_on_global_precision(name):
    entry = ENTRIES[name]
    want = _raw(entry())
    assert _raw_at(entry, (20, 53, 2000)) == [want] * 3
    with mp.workprec(30):  # a caller's own working precision
        assert _raw(entry()) == want


def test_a_callers_parameters_round_at_the_contexts_precision():
    # ctx.real moves a caller's mpf into the context, unrounded, and rounds
    # a Fraction there, so arithmetic on either rounds at the context's
    # precision too, also where a profile's runs are read outside a sum
    with mp.workprec(512):
        alpha, beta = mp.mpf(17) / 10, mp.mpf(3) / 10
    entries = (
        lambda: ialpha_eval(LogPower(beta, GAMMA), 7, alpha, CTX),
        lambda: residual_scan("T3", LogPower(beta, 2), 1, [8, 12], alpha, CTX),
        lambda: outer_expansion(LogPower(Fraction(1, 3), 0), CTX),
        lambda: residual_scan("T3", LogPower(Fraction(1, 3), 0), 1, [8, 16], ALPHA, CTX),
    )
    for entry in entries:
        assert _raw_at(entry, (20, 2000)) == [_raw(entry())] * 2
