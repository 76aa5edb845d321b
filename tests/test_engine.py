"""The sphere-sum engine against literal sphere sums (tests/sphere_oracle.py)."""

from fractions import Fraction

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
    outer_expansion,
    residual_scan,
)
from padic_ialpha.asymptotics import _beta1_prediction, _infinity_prediction
from padic_ialpha import radial
from padic_ialpha.radial import SphereSum, _Operator, _RateKernels, sphere_segments
from sphere_oracle import oracle_ball, oracle_ialpha, whole_ball_ialpha

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
    ("combo-mixed", LinearCombo((
        (0.5, Monomial(0.5)), (-0.7, Indicator(1)), (0.3, LogPower(0.5, 2.0)),
        (1.25, Table(-4, VALUES, PowerTail(0.9, 0.25),
                     OuterTail(0.5, 0.25, (0.01, 5.0)))),
    )), 60, 2.3, 2),
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
    ("logp-b1-g2", LogPower(1, 2), 10, 2, 2),
    ("logp-b2-g3", LogPower(2, 3), 17, 3, 3),
    ("logp-balpha-g1", LogPower(3, 1), 5, 3, 2),
    ("table-outer-below-1", Table(-3, (1, 3), ZeroTail(), OuterTail(1, 2, (1, -1))),
     12, 2, 2),
    ("table-extra-coeffs", Table(0, (1, 3), ZeroTail(), OuterTail(1, 1, (1, 2, 3))),
     6, 3, 2),
    ("combo-mixed", LinearCombo((
        (2, Monomial(1)), (-3, Indicator(0)), (1, LogPower(0, 2)),
        (Fraction(1, 2), Table(-3, (1, 3, 2, 5), PowerTail(2, 1),
                               OuterTail(1, 2, (1, -1)))),
    )), 6, 3, 2),
]


# profiles whose log-power terms have nonnegative integer powers: beta near
# the critical rates 1 and alpha = 2.3, a power too high for the run's
# length, an integer-gamma outer tail that starts below j = 1, and one with
# more coefficients than gamma + 1
CLOSED_CASES = [
    (f"logp-b{beta}-g{gamma}", LogPower(beta, gamma))
    for beta in (0.5, 1 - 1e-8, 1.0, 1 + 1e-8, 1.5, 2.3)
    for gamma in (0, 1, 2, 3)
] + [
    ("logp-b0.5-g20", LogPower(0.5, 20)),
    ("table-int-outer-below-1", Table(-6, VALUES[:3], PowerTail(0.9, 0.25),
                                      OuterTail(0.5, 2.0, (1.0, -0.5)))),
    ("table-extra-coeffs", Table(-4, VALUES, PowerTail(0.9, 0.25),
                                 OuterTail(1.0, 1.0, (1.0, 0.5, 0.25)))),
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


@pytest.mark.parametrize("name,f", CLOSED_CASES, ids=_ids(CLOSED_CASES))
def test_closed_log_powers_within_bound(name, f):
    # near rate 0 the two ends of the closed form cancel by up to
    # (1 - p**-|rate|)**-(m+1); its guard bits keep the context's accuracy.
    # At N = 5 only gamma <= 1 has the (gamma + 1)**2 spheres it needs.
    # rel_tol at the precision keeps truncated runs as accurate
    for N in (2, 5, 17, 40):
        want, slack = oracle_ialpha(f, N, 2.3, 2)
        for bits in (64, 256):
            ctx = NumericContext(2, precision_bits=bits, rel_tol=2.0**-bits)
            ov = ialpha_eval(f, N, 2.3, ctx)
            with mp.workprec(512):
                err = abs(mp.mpf(ov.value) - want)
                assert err <= ov.truncation_bound + slack
                assert err <= 2 ** (16 - bits) * abs(want)


def test_exact_power_model_sums_no_sphere(ctx2):
    for f in (Monomial(-0.9999), Monomial(2.5), Indicator(-3), LogPower(0.25, 0.0)):
        for N in (0, 12):
            assert ialpha_eval(f, N, 2.0, ctx2).j_cut == N
    for f in (LogPower(1, 2), LogPower(1.5, 2)):
        for N in (60, 3000):
            assert ialpha_eval(f, N, 2.0, ctx2).j_cut == N


def test_only_table_values_are_explicit(ctx2):
    tab = Table(-4, VALUES, PowerTail(1.3, 0.7))
    assert ialpha_eval(tab, 1, 2.0, ctx2).j_cut == -4


def test_combo_cut_is_its_lowest_explicit_sphere(ctx2):
    # the table's values are summed before the truncated log run
    tab = Table(-4, VALUES, PowerTail(1.3, 0.7), OuterTail(0.5, 1.0, (1.0,)))
    combo = LinearCombo(((1.0, tab), (1.0, LogPower(0.5, 2.0))))
    assert ialpha_eval(combo, 300, 2.0, ctx2).j_cut == -4


def test_combo_walks_its_spheres_once(ctx2):
    # the gamma = 2.5, 1.5, 0.5 log runs merge into one run, which has no
    # closed form and does not decay toward the origin at beta = 1
    combo = LinearCombo(tuple(
        (c, LogPower(1, 2.5 - n)) for n, c in enumerate((1.0, -0.5, 0.25))
    ))

    def explicit(f):
        return SphereSum(sphere_segments(f, 599, ctx2), 599, _RateKernels(ctx2), 1.0).explicit

    assert explicit(combo) == explicit(LogPower(1, 2.5)) == 599


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
    beta=st.one_of(st.floats(0.0, 3.0), st.sampled_from([1 - 1e-8, 1.0, 1 + 1e-8])),
    gamma=st.one_of(st.floats(0.0, 3.0), st.integers(0, 3)),
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


# ---------------------------------------------------------------------------
# Whole-ball power runs: one factored closed form, no sphere sum
# ---------------------------------------------------------------------------

def _wide(x):
    """x plus an offset that no context below 1024 bits holds exactly."""
    with mp.workprec(1024):
        return mp.mpf(x) + mp.sqrt(2) * mp.mpf(2) ** -70


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    alpha=st.one_of(st.floats(1.0, 4.0, exclude_min=True),
                    st.sampled_from([1 + 1e-6, 1 + 1e-11])),
    degree=st.one_of(st.floats(-1.0, 3.0, exclude_min=True),
                     st.sampled_from([0.0, 1e-9, -0.999])),
    N=st.integers(-40, 600),
    bits=st.sampled_from([64, 256]),
    wide=st.booleans(),
    indicator=st.one_of(st.none(), st.tuples(st.floats(-4.0, 4.0), st.integers(0, 30))),
)
def test_whole_ball_profiles_match_the_closed_sphere_sums(
    p, alpha, degree, N, bits, wide, indicator
):
    # monomials, and their sums with indicators whose ball holds |x|, take
    # the factored form: within its bound of the sphere decomposition at
    # 1024 bits, and with every digit that the rounded exponents leave
    f = Monomial(degree)
    if indicator is not None:
        c, k = indicator
        f = LinearCombo(((1.0, f), (c, Indicator(N + k))))
    a = _wide(alpha) if wide else alpha
    ov = ialpha_eval(f, N, a, NumericContext(p, precision_bits=bits))
    want, slack = whole_ball_ialpha(f, N, a, p)
    with mp.workprec(1024):
        err = abs(mp.mpf(ov.value) - want)
        assert err <= ov.truncation_bound + slack
        lost = mp.mpf(2) ** (16 - bits) * (1 + abs(N) * (degree + alpha))
        assert err <= lost * abs(want) + slack


def test_found_case_is_cut_against_the_operator():
    # the constant's inner sum no longer enters the log run's start test:
    # in either order the value keeps its digits and the cut stays high
    g, m = LogPower(0.5, 2.5), Monomial(0.0)
    want, slack = oracle_ialpha(LinearCombo(((1.0, g), (-0.7, m))), 200, 1.5, 3, bits=1024)
    for terms in (((1.0, g), (-0.7, m)), ((-0.7, m), (1.0, g))):
        ov = ialpha_eval(LinearCombo(terms), 200, 1.5, NumericContext(3))
        with mp.workprec(1024):
            assert abs(mp.mpf(ov.value) - want) <= ov.truncation_bound + slack
            assert ov.truncation_bound <= 1e-28 * abs(want)


@pytest.mark.parametrize("f", [
    Monomial(0.0), Indicator(7), LinearCombo(((2.0, Monomial(0.0)), (-1.0, Indicator(9)))),
])
def test_constants_on_the_whole_ball_are_exactly_zero(f):
    ov = ialpha_eval(f, 5, 2.3, NumericContext(3))
    assert ov.value == 0 and ov.truncation_bound == 0 and ov.j_cut == 5


def test_whole_ball_keeps_its_digits_near_alpha_one():
    # alpha = 1 + 1e-11 at 256 bits, read by a 64-bit context: C's pole
    # cancels in C b(1) analytically, so no bits go to it
    ctx = NumericContext(2, precision_bits=64)
    with mp.workprec(256):
        alpha = 1 + mp.mpf(10) ** -11
    ov = ialpha_eval(Monomial(1.0), 5, alpha, ctx)
    want, _ = whole_ball_ialpha(Monomial(1.0), 5, alpha, 2)
    with mp.workprec(1024):
        assert abs(mp.mpf(ov.value) - want) <= mp.mpf(2) ** -58 * abs(want)
        assert abs(mp.mpf(ov.value) - want) <= ov.truncation_bound


# ---------------------------------------------------------------------------
# Explicit runs: K A - B from walks that an operator's rungs share
# ---------------------------------------------------------------------------

TAILED = Table(-4, VALUES, PowerTail(0.9, 0.25), OuterTail(0.5, 0.25, (0.01, 5.0)))

# (id, profile, p, bits, alpha, rungs): tables with both tails, non-integer
# gamma at beta 0.3, 1 and 1.5, negative log powers, log-power runs from
# j <= 0, long truncated runs and alpha near 1
BOUND_GRID = [
    ("table-tails", TAILED, 2, 256, 2.3, (-6, -2, 1, 9, 40)),
    ("table-tails-p5-64", TAILED, 5, 64, 1.7, (-3, 0, 2, 12)),
    ("g1.5-b0.3", LogPower(0.3, 1.5), 3, 256, 2.1, (2, 20, 40, 80)),
    ("g1.5-b0.3-64", LogPower(0.3, 1.5), 2, 64, 2.1, (20, 80)),
    ("g2.5-b1", LogPower(1.0, 2.5), 5, 256, 1.5, (3, 30)),
    ("g0.5-b1.5", LogPower(1.5, 0.5), 2, 64, 2.7, (4, 25)),
    ("negative-powers", Table(-4, VALUES, ZeroTail(), OuterTail(0.5, 1.0, (1.0, 2.0, -0.5))),
     3, 256, 2.3, (12, 30)),
    ("outer-from-j<=0", Table(-6, VALUES[:3], PowerTail(0.9, 0.25),
                              OuterTail(0.5, 2.0, (1.0, -0.5))), 2, 256, 1.9, (-1, 0, 20)),
    ("long-cut", LogPower(0.5, 2.5), 2, 256, 2.0, (600,)),
    ("long-cut-p3-64", LogPower(0.25, 0.5), 3, 64, 2.0, (600,)),
    ("long-cut-high-gamma", LogPower(0.5, 300.5), 2, 256, 2.0, (600,)),
    ("alpha-near-1", LogPower(0.3, 1.5), 2, 256, 1.000001, (10, 60)),
    ("combo", LinearCombo(((1.0, LogPower(0.3, 1.5)), (-0.5, TAILED))), 2, 256, 2.3, (5, 30)),
]


@pytest.mark.parametrize("name,f,p,bits,alpha,rungs", BOUND_GRID, ids=_ids(BOUND_GRID))
def test_explicit_runs_within_bound(name, f, p, bits, alpha, rungs):
    # against the untruncated literal sum at 700 bits; the rungs run as a
    # scan does, highest first, so lower ones read the shared walks
    ctx = NumericContext(p, precision_bits=bits)
    op = _Operator(alpha, ctx)
    for N in sorted(rungs, reverse=True):
        ov = op.at(f, N)
        want, slack = oracle_ialpha(f, N, alpha, p, bits=700)
        with mp.workprec(700):
            assert abs(mp.mpf(ov.value) - want) <= ov.truncation_bound + slack


@pytest.mark.parametrize("gamma", [2.5, 300.5])
def test_long_run_starts_above_its_lowest_sphere(ctx2, gamma):
    # (jL)**300.5 overflows a double; the start search scales it first
    ov = ialpha_eval(LogPower(0.5, gamma), 600, 2.0, ctx2)
    assert 400 < ov.j_cut < 600 and ov.truncation_bound > 0


def _raw(ov):
    return ov.value._mpf_, ov.truncation_bound._mpf_, ov.j_cut


@pytest.mark.parametrize("f", [
    LogPower(0.3, 1.5), TAILED, LogPower(0.5, 2.5),
    LinearCombo(((1.0, LogPower(0.3, 1.5)), (-0.5, TAILED))),
    # two value runs of one start and coefficient: one walk cannot serve both
    LinearCombo(tuple((1.0, Table(-4, v, ZeroTail(), OuterTail(1.0, 0.5, (1.0,))))
                      for v in (VALUES, VALUES[::-1]))),
], ids=["logp", "table", "long-cut", "combo", "two-tables"])
def test_rung_values_do_not_depend_on_history(f):
    ctx = NumericContext(3)
    rungs = [-3, 1, 0, 40, 7, 200, 8, 40, -3]
    fresh = {N: _raw(ialpha_eval(f, N, 2.3, ctx)) for N in rungs}
    for order in (rungs, sorted(rungs), sorted(rungs, reverse=True)):
        op = _Operator(2.3, ctx)
        assert {N: _raw(op.at(f, N)) for N in order} == fresh
    # an expansion built first, from the operator's table, forms kernels at
    # order 3 and powers of p that the operator reads after it
    declared = outer_expansion(f, ctx)
    if declared is not None:
        op = _Operator(2.3, ctx)
        beta, gamma, coeffs = declared
        if beta == 1:
            at, _ = _beta1_prediction(coeffs, gamma, 3, f, declared, op, False)
        else:
            at, _ = _infinity_prediction(coeffs, beta, gamma, 3, op)
        for N in (40, 7, 200):
            at(N)
        assert {N: _raw(op.at(f, N)) for N in rungs} == fresh


def test_exact_scan_equals_literal_sums():
    ctx = NumericContext(2, exact=True, log_base="base_p")
    f = Table(-3, (1, 3, 2, 5), PowerTail(2, 1), OuterTail(0, 1, (1, -1)))
    op = _Operator(2, ctx)
    for N in (9, 2, -1, 5, 9):
        want = oracle_ialpha(f, N, 2, 2, exact=True, log_base_p=True)[0]
        assert op.at(f, N).value == ialpha_eval(f, N, 2, ctx).value == want


def counted_steps(monkeypatch) -> list:
    """Every sphere that the operator's walks step through, as (run, j).

    Only the walks of the sums (shift 1) count; a point value at |y| = |x|
    is the first step of a walk at shift 0.
    """
    formed, steps = [], radial._steps

    def counted(run, j, kernels, shift):
        for i, step in enumerate(steps(run, j, kernels, shift), j):
            if shift == 1:
                formed.append((run, i))
            yield step

    monkeypatch.setattr(radial, "_steps", counted)
    return formed


def test_scan_walks_each_sphere_once(ctx2, monkeypatch):
    # a 61-rung scan forms the terms of one walk from j = 1 up to its top
    formed = counted_steps(monkeypatch)
    rungs = list(range(20, 81))
    residual_scan("T3", LogPower(0.3, 1.5), 0, rungs, 2.1, ctx2)
    assert 0 < len(formed) <= max(rungs) - 1 + 1
    assert len(set(formed)) == len(formed)


def test_t1_scan_walks_each_table_value_once(ctx2, monkeypatch):
    # the rungs of an origin-side scan of a table share one walk of its
    # values: each value sphere below the top rung is stepped once
    formed = counted_steps(monkeypatch)
    f = Table(-40, tuple(2.0**j / (1 + 2.0**j) for j in range(-40, 1)), PowerTail(1.0, 1.0))
    rungs = list(range(-24, -5, 2))
    residual_scan("T1", f, 0, rungs, 2.0, ctx2, coeffs=[1.0], scales=[1.0])
    assert sorted(j for _, j in formed) == list(range(f.j_lo, max(rungs)))
