"""Radial profile evaluation and cumulative ball integrals."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from padic_ialpha import (
    ZERO,
    Indicator,
    LinearCombo,
    LogPower,
    MissingTail,
    Monomial,
    NumericContext,
    OuterTail,
    ParamOutOfRange,
    PowerTail,
    Table,
    UndefinedAtZero,
    ZeroTail,
    cumulative_ball_integral,
    eval_sphere,
    origin_expansion,
    outer_expansion,
)
from padic_ialpha.radial import (
    LogRun,
    ValueRun,
    _RateKernels,
    _sphere_parts,
    _steps,
    sphere_segments,
)
from padic_ialpha.series import _power_count


class TestEvalSphere:
    def test_monomial(self, exact2):
        assert eval_sphere(Monomial(2), -3, exact2) == Fraction(1, 64)

    def test_indicator(self, exact2):
        f = Indicator(0)
        assert eval_sphere(f, 1, exact2) == 0
        assert eval_sphere(f, -5, exact2) == 1
        assert eval_sphere(f, 0, exact2) == 1

    def test_log_power_value(self, ctx3):
        # 3**-2 * (4 ln 3)**2, evaluated independently
        f = LogPower(0.5, 2.0)
        with ctx3.workprec():
            oracle = mp.mpf(3) ** -2 * (4 * mp.log(3)) ** 2
        got = eval_sphere(f, 4, ctx3)
        assert abs(float(got - oracle)) < 1e-50
        assert float(got) == pytest.approx(2.14568704144, rel=1e-11)

    def test_log_power_cap_values(self, ctx2):
        assert float(eval_sphere(LogPower(0.5, 2.0), 0, ctx2)) == 0.0
        assert float(eval_sphere(LogPower(0.5, 2.0), -4, ctx2)) == 0.0
        assert float(eval_sphere(LogPower(2.0, 0.0), 0, ctx2)) == 1.0
        assert float(eval_sphere(LogPower(2.0, 0.0), -4, ctx2)) == 1.0
        assert float(eval_sphere(LogPower(2.0, 0.0), 3, ctx2)) == 2.0 ** -6

    def test_limits_at_zero(self, ctx2):
        assert float(eval_sphere(Monomial(2), ZERO, ctx2)) == 0.0
        assert float(eval_sphere(Monomial(0), ZERO, ctx2)) == 1.0
        with pytest.raises(UndefinedAtZero):
            eval_sphere(Monomial(-0.5), ZERO, ctx2)
        assert float(eval_sphere(LogPower(1.0, 1.0), ZERO, ctx2)) == 0.0
        assert float(eval_sphere(Indicator(0), ZERO, ctx2)) == 1.0

    def test_table_lookup_and_tails(self, ctx2):
        tab = Table.from_values(
            {-1: 0.25, 0: 0.5, 1: 0.125},
            PowerTail(1.0, 1.0),
            OuterTail(1.0, 0.0, (1.0,)),
        )
        assert float(eval_sphere(tab, 0, ctx2)) == 0.5
        assert float(eval_sphere(tab, -3, ctx2)) == 0.125  # inner model 2**j
        assert float(eval_sphere(tab, 3, ctx2)) == 0.125  # outer model 2**-j

    def test_table_missing_tails(self, ctx2):
        tab = Table.from_values({0: 1.0}, None)
        with pytest.raises(MissingTail):
            eval_sphere(tab, -1, ctx2)
        tab2 = Table.from_values({0: 1.0}, ZeroTail())
        assert float(eval_sphere(tab2, -1, ctx2)) == 0.0
        with pytest.raises(MissingTail):
            eval_sphere(tab2, 1, ctx2)

    def test_table_contiguity_enforced(self):
        with pytest.raises(ParamOutOfRange):
            Table.from_values({0: 1.0, 2: 1.0}, ZeroTail())

    @pytest.mark.parametrize("values", [{}, {1.5: 1.0}, {0: 1.0, 1.5: 2.0}],
                             ids=["empty", "half", "half-after-int"])
    def test_table_from_values_rejects_malformed_maps(self, values):
        # as every other malformed table, not with IndexError or TypeError
        with pytest.raises(ParamOutOfRange):
            Table.from_values(values, ZeroTail())

    def test_linear_combo(self, exact2):
        f = LinearCombo(((2, Monomial(1)), (-1, Indicator(0))))
        assert eval_sphere(f, -1, exact2) == Fraction(2, 2) - 1


class TestParameterValidation:
    BAD = (math.nan, math.inf, -math.inf, True)

    def test_monomial(self):
        for x in self.BAD:
            with pytest.raises(ParamOutOfRange):
                Monomial(x)

    def test_log_power(self):
        for x in self.BAD:
            with pytest.raises(ParamOutOfRange):
                LogPower(x, 0.0)
            with pytest.raises(ParamOutOfRange):
                LogPower(0.5, x)

    def test_power_tail(self):
        for x in self.BAD:
            with pytest.raises(ParamOutOfRange):
                PowerTail(x, 1.0)
            with pytest.raises(ParamOutOfRange):
                PowerTail(1.0, x)

    def test_outer_tail(self):
        for x in self.BAD:
            with pytest.raises(ParamOutOfRange):
                OuterTail(x, 1.0, (1.0,))
            with pytest.raises(ParamOutOfRange):
                OuterTail(0.5, x, (1.0,))
            with pytest.raises(ParamOutOfRange):
                OuterTail(0.5, 1.0, (1.0, x))

    def test_table_values(self):
        for x in self.BAD:
            with pytest.raises(ParamOutOfRange):
                Table(0, (1.0, x), ZeroTail())

    def test_indicator_exponent(self):
        for x in self.BAD + (2.5, Fraction(1, 2)):
            with pytest.raises(ParamOutOfRange):
                Indicator(x)

    def test_table_start_exponent(self):
        for x in self.BAD + (0.5,):
            with pytest.raises(ParamOutOfRange):
                Table(x, (1.0,), ZeroTail())

    def test_linear_combo_coefficients(self):
        for x in self.BAD:
            with pytest.raises(ParamOutOfRange):
                LinearCombo(((1.0, Monomial(1.0)), (x, Indicator(0))))


class TestCumulativeBallIntegral:
    def test_constant_profile_gives_ball_measure(self):
        ctx = NumericContext(3, exact=True)
        assert cumulative_ball_integral(Indicator(10**6), 2, ctx) == 9

    def test_monomial_matches_ball_power_integral(self, ctx2, ctx3):
        for ctx, alpha in [(ctx2, 2.0), (ctx2, 1.5), (ctx3, 3.0)]:
            for n in (-3, 0, 4):
                got = cumulative_ball_integral(Monomial(alpha - 1), n, ctx)
                # (1 - 1/p) p**(alpha n) / (1 - p**-alpha)
                want = (1 - ctx.p_pow(-1)) * ctx.p_pow(alpha * n) / (1 - ctx.p_pow(-alpha))
                assert abs(float(got - want)) <= 1e-40 * abs(float(want))

    def test_geometric_closed_form(self, ctx2):
        # (1 - 1/p) / (1 - p**-(M+1)) * p**(n(M+1)) at M=1, n=0, p=2
        got = cumulative_ball_integral(Monomial(1), 0, ctx2)
        assert float(got) == pytest.approx(2.0 / 3.0, rel=1e-30)

    def test_zero_radius(self, ctx2):
        assert float(cumulative_ball_integral(Monomial(1), ZERO, ctx2)) == 0.0

    def test_divergent_inner_sum_rejected(self, ctx2):
        tab = Table.from_values({0: 1.0}, PowerTail(1.0, -0.9))
        # integrable: fine
        cumulative_ball_integral(tab, 0, ctx2)
        with pytest.raises(ParamOutOfRange):
            PowerTail(1.0, -1.0)

    def test_missing_tail_propagates(self, ctx2):
        tab = Table.from_values({0: 1.0}, None)
        with pytest.raises(MissingTail):
            cumulative_ball_integral(tab, 0, ctx2)

    @given(
        a=st.floats(-4, 4, allow_nan=False).map(lambda c: round(c, 3)),
        b=st.floats(-4, 4, allow_nan=False).map(lambda c: round(c, 3)),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, a, b):
        ctx = NumericContext(2)
        f, g = Monomial(1.0), Indicator(0)
        combo = LinearCombo(((a, f), (b, g)))
        lhs = cumulative_ball_integral(combo, 3, ctx)
        with ctx.workprec():
            rhs = (
                ctx.real(a) * cumulative_ball_integral(f, 3, ctx)
                + ctx.real(b) * cumulative_ball_integral(g, 3, ctx)
            )
            assert abs(float(lhs - rhs)) <= 1e-40 * (1 + abs(float(rhs)))

    def test_monotone_in_radius_for_nonnegative(self, ctx2):
        f = LogPower(0.7, 0.0)
        values = [float(cumulative_ball_integral(f, n, ctx2)) for n in range(-5, 20)]
        assert all(x <= y for x, y in zip(values, values[1:]))

    def test_power_tail_decay_normalisation(self, ctx2):
        # G(p**m) p**(-m(1-lam)) decreases strictly for a profile decaying
        # faster than |y|**-lam (lam = 0.5 against true decay 0.7)
        f = LogPower(0.7, 0.0)
        rows = []
        for m in range(10, 41):
            g = cumulative_ball_integral(f, m, ctx2)
            rows.append(float(g * ctx2.p_pow(-0.5 * m)))
        assert all(a > b for a, b in zip(rows, rows[1:]))
        assert rows[-1] < rows[0] / 10


class TestDeclaredExpansions:
    def test_origin_expansion_monomial(self, ctx2):
        assert origin_expansion(Monomial(1.5), ctx2) == ((1.0,), (1.5,))

    def test_origin_expansion_combo_sorted(self, ctx2):
        f = LinearCombo(((2.0, Monomial(2.0)), (1.0, Monomial(1.0))))
        coeffs, degrees = origin_expansion(f, ctx2)
        assert degrees == (1.0, 2.0)
        assert coeffs == (1.0, 2.0)

    def test_origin_expansion_none_for_table(self, ctx2):
        assert origin_expansion(Table.from_values({0: 1.0}, ZeroTail()), ctx2) is None

    def test_outer_expansion_log_power(self, ctx2):
        assert outer_expansion(LogPower(0.5, 2.0), ctx2) == (0.5, 2.0, (1.0,))

    def test_outer_expansion_combo(self, ctx2):
        f = LinearCombo(
            ((1.0, LogPower(1.0, 2.0)), (-0.5, LogPower(1.0, 1.0)))
        )
        beta, gamma, coeffs = outer_expansion(f, ctx2)
        assert beta == 1.0 and gamma == 2.0
        assert coeffs == (1.0, -0.5)

    def test_outer_expansion_mixed_betas_rejected(self, ctx2):
        f = LinearCombo(((1.0, LogPower(1.0, 1.0)), (1.0, LogPower(0.5, 1.0))))
        assert outer_expansion(f, ctx2) is None

    def test_outer_expansion_sums_coefficients_in_the_context(self, ctx2):
        # float64 gives 0.30000000000000004, which is not 0.1 + 0.2 exactly
        f = LinearCombo(((0.1, LogPower(0.5, 2)), (0.2, LogPower(0.5, 2))))
        beta, gamma, coeffs = outer_expansion(f, ctx2)
        with ctx2.workprec():
            assert coeffs == (ctx2.real(0.1) + ctx2.real(0.2),)
        assert coeffs[0] != 0.1 + 0.2

    def test_outer_expansion_keeps_an_exact_beta(self):
        ctx = NumericContext(2, exact=True, log_base="base_p")
        beta, gamma, coeffs = outer_expansion(LogPower(Fraction(1, 3), 2), ctx)
        assert beta == Fraction(1, 3) and isinstance(beta, Fraction)
        assert (gamma, coeffs) == (2, (1,))

    def test_outer_expansion_joins_the_power_run_of_gamma_zero(self, ctx2):
        # the gamma = 0 term of an integer-gamma combination is a power run
        f = LinearCombo(tuple(
            (c, LogPower(1.0, 2.0 - n)) for n, c in enumerate((1.0, 0.5, 0.25))
        ))
        assert outer_expansion(f, ctx2) == (1.0, 2.0, (1.0, 0.5, 0.25))

    def test_equal_degree_monomials_merge(self, ctx2):
        # equal degrees merge into one power run, which declares an expansion
        f = LinearCombo(((2.0, Monomial(1.0)), (1.0, Monomial(1.0))))
        assert origin_expansion(f, ctx2) == ((3.0,), (1.0,))

    def test_outer_expansion_reads_the_runs_at_infinity(self, ctx2):
        # only runs that reach infinity count: an Indicator has none, and a
        # table's outer run of the same beta joins the series
        f = LinearCombo(((1.0, LogPower(0.5, 2.0)), (3.0, Indicator(4))))
        assert outer_expansion(f, ctx2) == (0.5, 2.0, (1.0,))
        assert origin_expansion(f, ctx2) is None
        tab = Table(0, (1.0,), ZeroTail(), OuterTail(0.5, 1.0, (1.0,)))
        g = LinearCombo(((1.0, LogPower(0.5, 2.0)), (2.0, tab)))
        assert outer_expansion(g, ctx2) == (0.5, 2.0, (1.0, 2.0))

    def test_no_expansion_without_the_tails(self, ctx2):
        outer = OuterTail(0.5, 1.0, (1.0,))
        assert outer_expansion(Table.from_values({0: 1.0}, ZeroTail()), ctx2) is None
        assert outer_expansion(Table.from_values({0: 1.0}, None, outer), ctx2) is None
        assert outer_expansion(Monomial(-0.5), ctx2) is None
        assert origin_expansion(Indicator(3), ctx2) is None


class TestRuns:
    def test_combo_merges_runs_of_one_span(self, ctx2):
        f = LinearCombo((
            (1.0, LogPower(0.5, 2.5)), (2.0, LogPower(0.5, 1.5)),
            (3.0, Monomial(1.0)), (4.0, Monomial(1.0)), (5.0, Indicator(2)),
        ))
        runs = sphere_segments(f, 10, ctx2)
        assert [type(r).__name__ for r in runs] == ["LogRun", "PowerRun", "PowerRun"]
        log, mono, ind = runs
        assert (log.lo, log.hi, log.gamma, log.coeffs) == (1, 10, 2.5, (1.0, 2.0))
        assert (mono.lo, mono.hi, mono.coeff, mono.degree) == (None, 10, 7.0, 1.0)
        assert (ind.hi, ind.coeff) == (2, 5.0)

    def test_gammas_off_an_integer_do_not_merge(self, ctx2):
        f = LinearCombo(((1.0, LogPower(0.5, 2.5)), (1.0, LogPower(0.5, 1.0))))
        assert len(sphere_segments(f, 10, ctx2)) == 2

    def test_gammas_are_compared_exactly(self, ctx2):
        # the doubles 1.3 and 0.3 differ by 1 + 5.6e-17, which a tolerance
        # would take for 1; 1.3 - 1 is exact
        apart = LinearCombo(((1.0, LogPower(0.5, 1.3)), (1.0, LogPower(0.5, 0.3))))
        assert outer_expansion(apart, ctx2) is None
        shifted = LinearCombo(
            ((1.0, LogPower(0.5, 1.3)), (1.0, LogPower(0.5, 1.3 - 1)))
        )
        assert outer_expansion(shifted, ctx2) == (0.5, 1.3, (1.0, 1.0))

    def test_point_value_sums_the_covering_runs(self, exact2):
        f = LinearCombo(((2, Monomial(1)), (-1, Indicator(0)), (3, Monomial(1))))
        assert eval_sphere(f, -1, exact2) == Fraction(5, 2) - 1
        assert eval_sphere(f, 2, exact2) == 20
        assert eval_sphere(f, ZERO, exact2) == -1

    def test_sphere_size_adds_over_runs(self, ctx2):
        # the two runs cancel at j = 4; their sizes, what rounding scales
        # with, still add
        f = LinearCombo(((1.0, LogPower(0.5, 0.0)), (-1.0, Monomial(-0.5))))
        parts = _sphere_parts(f, 4, ctx2)
        assert (sum(parts), sum(abs(x) for x in parts)) == (0, 0.5)

    def test_table_values_stay_as_given(self, ctx2):
        tab = Table(0, (0.1, 0.2), ZeroTail())
        (run,) = sphere_segments(tab, 1, ctx2)
        assert run.values is tab.values


def _faulhaber_fraction(m: int, n: int) -> Fraction:
    """(1/(m+1)) sum_k C(m+1, k) B_k n**(m+1-k), B_1 = +1/2, in Fractions."""
    bernoulli = [Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(0), Fraction(-1, 30),
                 Fraction(0), Fraction(1, 42), Fraction(0), Fraction(-1, 30)]
    return sum(
        math.comb(m + 1, k) * bernoulli[k] * Fraction(n) ** (m + 1 - k) for k in range(m + 1)
    ) / (m + 1)


def test_power_count_is_faulhaber_in_integers():
    for m in range(9):
        for lo in range(-7, 8):
            for hi in range(lo - 1, 9):
                got = _power_count(m, lo, hi)
                assert type(got) is int
                assert got == _faulhaber_fraction(m, hi) - _faulhaber_fraction(m, lo - 1)
                assert got == sum(j**m for j in range(lo, hi + 1))
    assert _power_count(0, -3, 10**30) == 10**30 + 4


STEP_PROFILES = [
    # a power run from the origin; the walk runs past its top
    (Monomial(0.5), 5, -4),
    # a value run cut below its table's end, over an inner power run
    (Table(-3, (0.5, 1.5, -2.0, 0.25, 3.0, 1.0, 0.75, 2.5), PowerTail(0.5, 1.0),
           OuterTail(0.5, 1.0, (1.0, 0.25))), 2, -6),
    # a log run of several terms above the table, and the table's whole values
    (Table(-3, (0.5, 1.5, -2.0, 0.25), ZeroTail(), OuterTail(0.5, 1.5, (1.0, 0.25, -2.0))),
     9, -5),
    (LogPower(0.5, 1.5), 8, -2),
]


@pytest.mark.parametrize("f, top, j", STEP_PROFILES)
@pytest.mark.parametrize("shift", [0, 1])
def test_steps_match_point_values(ctx3, f, top, j, shift):
    # u_i = f(p**i) p**(i shift) on each run's spheres, 0 below and above it
    runs = sphere_segments(f, top, ctx3)
    for run in runs:
        steps = _steps(run, j, _RateKernels(ctx3), shift)
        for i in range(j, top + 4):
            u, size = next(steps)
            covered = (run.lo is None or run.lo <= i) and i <= run.hi
            if not covered:
                assert (u, size) == (0, None)
                continue
            parts = [x * ctx3.p_pow(i * shift) for x in run.at(i, ctx3)]
            want = sum(parts)
            assert abs(u - want) <= 2.0**-240 * abs(want)
            if isinstance(run, LogRun) and len(run.coeffs) > 1:
                want_size = sum(abs(x) for x in parts)
                assert abs(size - want_size) <= 2.0**-240 * want_size
            else:
                assert size is None


@pytest.mark.parametrize("f, top, j", STEP_PROFILES)
def test_steps_at_shift_zero_sum_to_the_profile(ctx3, f, top, j):
    runs = sphere_segments(f, top, ctx3)
    kernels = _RateKernels(ctx3)
    walks = [_steps(run, j, kernels, 0) for run in runs]
    for i in range(j, top + 1):
        got = sum(next(w)[0] for w in walks)
        want = eval_sphere(f, i, ctx3)
        assert abs(got - want) <= 2.0**-240 * abs(want)


def test_a_cut_value_run_keeps_its_table(ctx3):
    f = STEP_PROFILES[1][0]
    (run,) = [r for r in sphere_segments(f, 2, ctx3) if isinstance(r, ValueRun)]
    assert (run.lo, run.hi, run.values) == (-3, 2, f.values)
