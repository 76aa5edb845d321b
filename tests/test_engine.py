"""The sphere-sum engine against literal sphere sums (tests/sphere_oracle.py)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from padic_ialpha import (
    Indicator,
    LinearCombo,
    LogPower,
    Monomial,
    NumericContext,
    OuterTail,
    PowerTail,
    Table,
    ZeroTail,
    cumulative_ball_integral,
    ialpha_eval,
)
from sphere_oracle import oracle_ball, oracle_ialpha

VALUES = (0.75, 1.25, 0.5, 2.0, 1.5, 0.875)

# (id, profile, N, alpha, p)
FLOAT_CASES = [
    ("mono-0.99", Monomial(-0.99), 3, 2.3, 5),
    ("mono-0.5", Monomial(-0.5), -3, 1.7, 2),
    ("mono0", Monomial(0.0), 4, 2.3, 3),
    ("mono1.5", Monomial(1.5), 6, 1.1, 2),
    ("ind-below", Indicator(-2), 3, 2.3, 2),
    ("ind-above", Indicator(7), 3, 1.6, 3),
    ("table-power", Table(-4, VALUES, PowerTail(1.3, 0.7)), -1, 2.3, 2),
    ("table-zero", Table(-4, VALUES, ZeroTail()), 1, 1.9, 3),
    ("table-outer", Table(-4, VALUES, PowerTail(0.9, 0.25),
                          OuterTail(0.5, 0.25, (0.01, 5.0))), 300, 2.3, 2),
    ("combo", LinearCombo(((1.5, Monomial(0.5)), (-0.7, Indicator(1)),
                           (0.3, LogPower(0.5, 0.0)))), 5, 2.3, 2),
    ("logp-b0.5", LogPower(0.5, 0.0), 9, 2.3, 2),
    ("logp-b1", LogPower(1.0, 0.0), 9, 1.8, 3),
    ("logp-b3", LogPower(3.0, 0.0), 9, 2.3, 2),
    ("logp-g2", LogPower(0.5, 2.0), 250, 2.3, 2),
    ("logp-g0.5", LogPower(1.0, 0.5), 40, 1.4, 3),
]

# (id, profile, N, alpha, p), every exponent an integer; logs base p
EXACT_CASES = [
    ("mono2", Monomial(2), 3, 3, 2),
    ("ind-below", Indicator(-1), 2, 2, 3),
    ("ind-above", Indicator(5), 2, 3, 2),
    ("table-power", Table(-3, (1, 3, 2, 5), PowerTail(2, 1)), 0, 2, 2),
    ("table-outer", Table(-3, (1, 3, 2, 5), ZeroTail(), OuterTail(1, 2, (1, -1))),
     6, 3, 2),
    ("combo", LinearCombo(((2, Monomial(1)), (-3, Indicator(0)))), 4, 2, 3),
    ("logp-b1", LogPower(1, 0), 7, 2, 2),
    ("logp-b3", LogPower(3, 0), 5, 2, 3),
    ("logp-g2", LogPower(0, 2), 6, 3, 2),
]


def _ids(cases):
    return [c[0] for c in cases]


@pytest.mark.parametrize("name,f,N,alpha,p", FLOAT_CASES, ids=_ids(FLOAT_CASES))
def test_operator_within_bound_of_literal_sum(name, f, N, alpha, p):
    ov = ialpha_eval(f, N, alpha, NumericContext(p))
    want, slack = oracle_ialpha(f, N, alpha, p)
    with mp.workprec(512):
        assert abs(mp.mpf(ov.value) - want) <= ov.truncation_bound + slack


@pytest.mark.parametrize("name,f,N,alpha,p", FLOAT_CASES, ids=_ids(FLOAT_CASES))
def test_ball_integral_near_literal_sum(name, f, N, alpha, p):
    # a decaying log-power run may stop early; what it leaves out is below
    # rel_tol of what was summed
    ctx = NumericContext(p)
    got = cumulative_ball_integral(f, N, ctx)
    want, slack, size = oracle_ball(f, N, p)
    with mp.workprec(512):
        assert abs(mp.mpf(got) - want) <= ctx.rel_tol * size + slack


@pytest.mark.parametrize("name,f,N,alpha,p", EXACT_CASES, ids=_ids(EXACT_CASES))
def test_exact_mode_equals_literal_sum(name, f, N, alpha, p):
    ctx = NumericContext(p, exact=True, log_base="base_p")
    ov = ialpha_eval(f, N, alpha, ctx)
    assert ov.value == oracle_ialpha(f, N, alpha, p, exact=True, log_base_p=True)[0]
    assert ov.truncation_bound == 0
    got = cumulative_ball_integral(f, N, ctx)
    assert got == oracle_ball(f, N, p, exact=True, log_base_p=True)[0]


def test_exact_power_model_sums_no_sphere(ctx2):
    for f in (Monomial(-0.9999), Monomial(2.5), Indicator(-3), LogPower(0.25, 0.0)):
        for N in (0, 12):
            assert ialpha_eval(f, N, 2.0, ctx2).j_cut == N


def test_only_table_values_are_explicit(ctx2):
    tab = Table(-4, VALUES, PowerTail(1.3, 0.7))
    assert ialpha_eval(tab, 1, 2.0, ctx2).j_cut == -4


def test_near_critical_alpha_keeps_double_accuracy(ctx2):
    # C ~ 1/(alpha - 1) amplifies any rounding of the exponents 1 + alpha
    # and alpha - 1 a millionfold; float64 exponents lose 1.7e-10 here
    alpha = 1.000001
    got = ialpha_eval(Monomial(1.0), 5, alpha, ctx2).value
    want, _ = oracle_ialpha(Monomial(1.0), 5, alpha, 2, bits=1024)
    with mp.workprec(1024):
        assert abs((mp.mpf(got) - want) / want) <= 1e-14


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    alpha=st.floats(1.05, 3.5),
    degree=st.floats(-0.75, 3.0),
    beta=st.floats(0.0, 3.0),
    gamma=st.floats(0.0, 3.0),
    N=st.integers(-8, 24),
    p=st.sampled_from([2, 3, 5]),
)
def test_float_parameters_within_bound(alpha, degree, beta, gamma, N, p):
    # any double is a valid parameter: the certified bound must hold at its
    # exact value, not only at the dyadic values above
    ctx = NumericContext(p)
    for f in (Monomial(degree), LogPower(beta, gamma)):
        ov = ialpha_eval(f, N, alpha, ctx)
        want, slack = oracle_ialpha(f, N, alpha, p)
        with mp.workprec(512):
            assert abs(mp.mpf(ov.value) - want) <= ov.truncation_bound + slack
