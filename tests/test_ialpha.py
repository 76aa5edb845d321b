"""Operator evaluation: worked values, invariants, small-ball integral, MC."""

import math
from fractions import Fraction

import pytest
from mpmath import mp
from mc_oracle import mc_reference
from series_oracle import smallball_direct

from padic_ialpha import (
    ZERO,
    AlphaOutOfRange,
    BetaOutOfRange,
    Indicator,
    LinearCombo,
    LogPower,
    Monomial,
    NumericContext,
    OuterTail,
    ParamOutOfRange,
    PowerTail,
    Table,
    ZeroTail,
    ialpha_eval,
    ialpha_monomial_exact,
    mc_ialpha_eval,
    omega,
    phi_sum,
    prefactor,
    smallball_kernel_integral,
    unit_kernel_integral,
)
from padic_ialpha import core, radial, series


def brute_sphere_sum(f_at, N, alpha, ctx, j_floor):
    """Oracle: raw truncated sphere sum, no tail model, no shortcuts."""
    with ctx.workprec():
        p = ctx.real(ctx.prime)
        total = mp.mpf(0)
        for j in range(j_floor, N):
            total += (
                (1 - 1 / p)
                * f_at(j)
                * ctx.p_pow(j)
                * (ctx.p_pow(N * (alpha - 1)) - ctx.p_pow(j * (alpha - 1)))
            )
        total += (
            f_at(N)
            * ctx.p_pow(N * alpha)
            * (unit_kernel_integral(ctx, alpha) - (1 - 1 / p))
        )
        return prefactor(ctx, alpha) * total


class TestWorkedValues:
    def test_monomial_unit_radius(self, ctx2):
        # oracle first: brute-force sphere sum truncated at j >= -60
        with ctx2.workprec():
            oracle = brute_sphere_sum(
                lambda j: ctx2.p_pow(j), 0, 2.0, ctx2, -60
            )
            assert abs(float(oracle - Fraction(5, 28))) < 1e-30
        got = ialpha_eval(Monomial(1.0), 0, 2.0, ctx2)
        assert abs(float(got.value) - 5 / 28) < 1e-12
        assert float(got) == float(got.value)
        assert float(got.truncation_bound) < 1e-12 * abs(float(got.value))

    def test_monomial_equals_coefficient_route(self, exact2):
        # C * b(1) = (-3/4)(-5/21) = 5/28
        assert prefactor(exact2, 2) * Fraction(-5, 21) == Fraction(5, 28)

    def test_indicator_worked_value(self, ctx2, exact2):
        # oracle: geometric tails give C * (1/2) * (sum 2**j (8 - 2**j)) = -11/2
        s = sum(Fraction(2) ** j * (8 - Fraction(2) ** j) for j in range(-150, 1))
        closed = prefactor(exact2, 2) * Fraction(1, 2) * s
        assert abs(closed - Fraction(-11, 2)) < Fraction(1, 10**40)
        got = ialpha_eval(Indicator(0), 3, 2.0, ctx2)
        assert abs(float(got.value) + 5.5) < 1e-12
        exact = ialpha_eval(Indicator(0), 3, 2, exact2)
        assert exact.value == Fraction(-11, 2)
        assert exact.truncation_bound == 0

    def test_zero_profile(self, ctx2):
        got = ialpha_eval(LinearCombo(()), 5, 2.0, ctx2)
        assert float(got.value) == 0.0
        assert float(got.truncation_bound) == 0.0

    def test_zero_radius_point(self, ctx2):
        got = ialpha_eval(Monomial(1.0), ZERO, 2.0, ctx2)
        assert float(got.value) == 0.0
        assert got.j_cut is ZERO


class TestMonomialExact:
    def test_agreement_with_sphere_sum(self, ctx2):
        a = ialpha_eval(Monomial(1.0), 0, 2.0, ctx2)
        b = ialpha_monomial_exact(1.0, 0, 2.0, ctx2)
        assert abs(float(a.value - b)) <= float(a.truncation_bound)

    def test_homogeneity(self, ctx2):
        # value scales by p**(N(M+alpha)): (5/28) * 2**6 at N = 2
        got = ialpha_monomial_exact(1.0, 2, 2.0, ctx2)
        assert float(got) == pytest.approx(80 / 7, rel=1e-30)

    def test_constants_annihilated(self, exact2, ctx2):
        assert ialpha_monomial_exact(0, 5, 2, exact2) == 0
        got = ialpha_eval(Monomial(0.0), 5, 2.0, ctx2)
        assert abs(float(got.value)) < 1e-60
        # near-zero values still carry a bound under the absolute floor
        assert float(got.truncation_bound) < 1e-20

    def test_truncation_bound_stays_relative(self, ctx2):
        for M, N in [(0.5, -4), (1.0, 0), (2.0, 6)]:
            ov = ialpha_eval(Monomial(M), N, 2.0, ctx2)
            assert float(ov.truncation_bound) < ctx2.rel_tol * abs(float(ov.value))

    def test_grid_agreement(self):
        for p in (2, 3):
            ctx = NumericContext(p)
            for alpha in (1.5, 2.0, 3.0):
                for M in (0.5, 1.0, 2.0):
                    for N in (-6, -1, 0, 2, 7):
                        ov = ialpha_eval(Monomial(M), N, alpha, ctx)
                        ex = ialpha_monomial_exact(M, N, alpha, ctx)
                        assert abs(float(ov.value - ex)) <= float(ov.truncation_bound)


class TestOperatorInvariants:
    def test_linearity(self, ctx2):
        f, g = Monomial(1.0), Indicator(0)
        combo = LinearCombo(((2.0, f), (-3.0, g)))
        lhs = ialpha_eval(combo, 4, 2.0, ctx2)
        with ctx2.workprec():
            rhs = 2 * ialpha_eval(f, 4, 2.0, ctx2).value - 3 * ialpha_eval(
                g, 4, 2.0, ctx2
            ).value
            assert abs(float(lhs.value - rhs)) <= float(lhs.truncation_bound) + 1e-50

    def test_annihilation_of_constants_exact(self, exact2):
        # inside a huge indicator cap the profile is constant: value is 0
        cap = 100
        for N in (-5, 0, 40):
            got = ialpha_eval(Indicator(cap), N, 2, exact2)
            assert got.value == 0

    def test_scaling_law_indicator(self, ctx2):
        # rescaling the argument by |c| = p**s shifts both the profile cap
        # and the evaluation radius
        alpha, s = 2.0, 2
        for N in (1, 3):
            lhs = ialpha_eval(Indicator(0 - s), N, alpha, ctx2).value
            rhs = ctx2.p_pow(-s * alpha) * ialpha_eval(
                Indicator(0), N + s, alpha, ctx2
            ).value
            with ctx2.workprec():
                assert abs(float(lhs - rhs)) <= 1e-40 * max(1.0, abs(float(rhs)))

    def test_scaling_law_monomial(self, ctx2):
        # f(cy) = |c|**M f(y): both routes agree
        alpha, s, M = 2.0, 3, 1.0
        N = 2
        lhs = ctx2.p_pow(s * M) * ialpha_eval(Monomial(M), N, alpha, ctx2).value
        rhs = ctx2.p_pow(-s * alpha) * ialpha_eval(Monomial(M), N + s, alpha, ctx2).value
        with ctx2.workprec():
            assert abs(float(lhs - rhs)) <= 1e-40 * max(1.0, abs(float(rhs)))

    def test_kernel_factor_bound(self, ctx2):
        # |p**(N(a-1)) - p**(j(a-1))| <= p**(N(a-1)) for j <= N, and the
        # unit-sphere factor obeys |U - (1-1/p)| p**(N(a-1)) <= max(1, U) p**(N(a-1))
        alpha = 2.0
        with ctx2.workprec():
            for N in (-3, 0, 5):
                top = float(ctx2.p_pow(N * (alpha - 1)))
                for j in range(N - 30, N):
                    diff = top - float(ctx2.p_pow(j * (alpha - 1)))
                    assert 0 <= diff <= top
                u = float(unit_kernel_integral(ctx2, alpha))
                unit = 0.5
                assert abs(u - unit) * top <= max(1.0, u) * top

    def test_recentred_kernel_factor_bound(self, ctx2):
        # |p**(e(a-1)) - p**(j(a-1)) - p**(N(a-1))| <= 2 p**(j(a-1)) on the
        # sphere-constant reductions (e = N for j < N; e <= N on j = N)
        alpha, N = 2.0, 4
        p = 2.0
        top = p ** (N * (alpha - 1))
        for j in range(N - 20, N):
            val = abs(top - p ** (j * (alpha - 1)) - top)
            assert val <= 2 * p ** (j * (alpha - 1))
        for e in range(-20, N + 1):
            val = abs(p ** (e * (alpha - 1)) - 2 * top)
            assert val <= 2 * top

    def test_truncation_honesty(self, ctx2):
        # deepening the top-down cut must move the value by less than the
        # bound; LogPower(0.5, 2.5) decays toward the origin and its log
        # power is not an integer, so its explicit run stops at a cut that
        # moves with rel_tol
        deep = NumericContext(2, rel_tol=1e-45)
        f = LogPower(0.5, 2.5)
        a = ialpha_eval(f, 600, 2.0, ctx2)
        b = ialpha_eval(f, 600, 2.0, deep)
        assert b.j_cut < a.j_cut - 10
        assert abs(float(a.value - b.value)) <= float(a.truncation_bound)

    def test_closed_parts_summed_first_count_in_the_cut(self, ctx2):
        # a walked run starts where its remainder falls below rel_tol of all
        # that is summed, every closed part included: beside a monomial
        # whose part dwarfs it, LogPower(0.5, 2.5) is cut far higher
        g = LogPower(0.5, 2.5)
        alone = ialpha_eval(g, 300, 2.0, ctx2)
        mono = ialpha_eval(Monomial(0.5), 300, 2.0, ctx2)
        combo = ialpha_eval(LinearCombo(((1.0, Monomial(0.5)), (1.0, g))), 300, 2.0, ctx2)
        assert combo.j_cut > alone.j_cut + 100
        err = abs(combo.value - mono.value - alone.value)
        assert err <= combo.truncation_bound + mono.truncation_bound + alone.truncation_bound

    def test_term_order_does_not_move_the_cut(self, ctx2):
        # every closed part is summed before any run is walked, so a walked
        # run's start test sees the same closed parts in either term order
        g, m = LogPower(0.5, 2.5), Monomial(0.5)
        first, second = (ialpha_eval(LinearCombo(terms), 300, 2.0, ctx2)
                         for terms in (((1.0, m), (1.0, g)), ((1.0, g), (1.0, m))))
        assert first.j_cut == second.j_cut == 299
        assert first.value._mpf_ == second.value._mpf_
        assert first.truncation_bound._mpf_ == second.truncation_bound._mpf_

    def test_alpha_validation(self, ctx2):
        with pytest.raises(AlphaOutOfRange):
            ialpha_eval(Monomial(1.0), 0, 1.0, ctx2)

    # the calls that run mpmath's exp per fresh value (p**x with x not an
    # integer, and 1 - p**x), counted at N = 40, alpha = 2.3, p = 2: an
    # upper bound that a change may lower but not raise
    TRANSCENDENTAL_BUDGET = {
        "monomial": (Monomial(0.5), 7),
        "indicator": (Indicator(2), 6),
        "logpower": (LogPower(1.5, 0.0), 11),
        "logpower_closed": (LogPower(0.5, 2.0), 9),
        "logpower_walked": (LogPower(0.3, 1.5), 6),
        "table": (Table(-3, (0.5, 1.5, 1.0, 2.0), PowerTail(1.0, 0.5),
                        OuterTail(0.5, 1.0, (1.0, 0.5))), 19),
        "combo": (LinearCombo(((0.5, Monomial(1.0)), (-1.5, Indicator(0)))), 8),
    }

    @pytest.mark.parametrize("kind", sorted(TRANSCENDENTAL_BUDGET))
    def test_transcendentals_per_value_stay_within_budget(self, kind, monkeypatch):
        calls = []
        p_pow, one_minus_p_pow = NumericContext.p_pow, core._one_minus_p_pow

        def counted(self, exponent):
            if int(exponent) != exponent:
                calls.append(exponent)
            return p_pow(self, exponent)

        def counted_gap(ctx, x):
            calls.append(x)
            return one_minus_p_pow(ctx, x)

        monkeypatch.setattr(NumericContext, "p_pow", counted)
        for module in (core, series):
            monkeypatch.setattr(module, "_one_minus_p_pow", counted_gap)
        f, budget = self.TRANSCENDENTAL_BUDGET[kind]
        ialpha_eval(f, 40, 2.3, NumericContext(2))
        assert 0 < len(calls) <= budget


class TestSmallBallKernelIntegral:
    def test_worked_value(self, ctx2):
        # oracle: (1/2)(sum 2**-m - sum 4**-m) = (1/2)(1 - 1/3) = 1/3
        got = smallball_kernel_integral(0, 0.0, 1, 2.0, ctx2)
        assert float(got) == pytest.approx(1 / 3, rel=1e-25)

    def test_exact_mode_value(self, exact2):
        assert smallball_kernel_integral(0, 0, 1, 2, exact2) == Fraction(1, 3)
        # R > 1: the kernel series minus its explicit head
        ctx = NumericContext(2, exact=True, log_base="base_p")
        q1, q2 = Fraction(1, 2), Fraction(1, 4)
        for k in (0, 1, 2):
            head = sum(Fraction(m) ** k * (q1**m - q2**m) for m in range(1, 5))
            want = (phi_sum(k, q1, ctx) - phi_sum(k, q2, ctx) - head) / 2
            assert smallball_kernel_integral(k, 0, 5, 2, ctx) == want

    def test_decay_bound(self, ctx2):
        # value * p**(R(1 - beta - eps)) stays bounded as R grows
        eps = 0.05
        rows = []
        for R in (1, 5, 10, 20, 30, 40):
            v = float(smallball_kernel_integral(0, 0.0, R, 2.0, ctx2))
            rows.append(v * 2.0 ** (R * (1 - 0.0 - eps)))
        assert max(rows) < 1.0
        assert rows[-1] < rows[0] * 2

    def test_omega_decomposition(self):
        # unit-sphere term plus the small-ball series reassembles the full
        # moment; odd k flips sign because the moment carries (log|t|)**k
        # while the small-ball integral carries |log|t||**k
        for p in (2, 3):
            ctx = NumericContext(p)
            for alpha in (1.5, 2.0):
                for beta in (0.0, 0.5):
                    for k in range(4):
                        full = omega(k, alpha, beta, ctx)
                        small = smallball_kernel_integral(k, beta, 1, alpha, ctx)
                        with ctx.workprec():
                            expected = (-1) ** k * small
                            if k == 0:
                                expected += unit_kernel_integral(ctx, alpha) - (
                                    1 - ctx.real(1) / p
                                )
                            assert abs(float(full - expected)) <= 10 * ctx.rel_tol * max(
                                1.0, abs(float(full))
                            )

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.3, 0.75])
    @pytest.mark.parametrize("R", [1, 7, 30])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_closed_form_matches_direct_sum(self, k, R, beta, p):
        got = smallball_kernel_integral(k, beta, R, 1.7, NumericContext(p))
        want = smallball_direct(k, beta, R, 1.7, p)
        with mp.workprec(512):
            assert abs(got - want) <= 1e-60 * want

    def test_beta_domain(self, ctx2):
        with pytest.raises(BetaOutOfRange):
            smallball_kernel_integral(0, 1.0, 1, 2.0, ctx2)
        with pytest.raises(ParamOutOfRange):
            smallball_kernel_integral(0, 0.0, 0, 2.0, ctx2)

    @pytest.mark.parametrize("R", [1.5, 2.0, True, 0, -2], ids=repr)
    def test_radius_is_an_integer_of_at_least_one(self, ctx2, R):
        with pytest.raises(ParamOutOfRange):
            smallball_kernel_integral(0, 0.0, R, 2.0, ctx2)


class TestMonteCarlo:
    def test_monomial_within_four_sigma(self, ctx2):
        est, se = mc_ialpha_eval(Monomial(1.0), 0, 2.0, 200_000, 77, ctx2)
        assert abs(est - 5 / 28) < 4 * se

    def test_indicator_within_four_sigma(self, ctx2):
        est, se = mc_ialpha_eval(Indicator(0), 3, 2.0, 200_000, 78, ctx2)
        assert abs(est + 5.5) < 4 * se

    def test_zero_profile(self, ctx2):
        est, se = mc_ialpha_eval(LinearCombo(()), 2, 2.0, 50_000, 79, ctx2)
        assert est == 0.0 and se == 0.0

    def test_sample_floor(self, ctx2):
        with pytest.raises(ParamOutOfRange):
            mc_ialpha_eval(Monomial(1.0), 0, 2.0, 100, 80, ctx2)

    def test_sample_floor_is_checked_before_alpha(self, ctx2):
        with pytest.raises(ParamOutOfRange, match="samples"):
            mc_ialpha_eval(Monomial(1.0), 0, 0.5, 100, 80, ctx2)

    @pytest.mark.parametrize("samples", [True, 1e6, 1.5e6 + 0.5, "1000000"], ids=repr)
    def test_sample_count_must_be_an_integer(self, ctx2, samples):
        with pytest.raises(ParamOutOfRange):
            mc_ialpha_eval(Monomial(1.0), 0, 2.0, samples, 80, ctx2)

    def test_numpy_sample_count(self, ctx2):
        import numpy as np

        est, se = mc_ialpha_eval(Monomial(1.0), 0, 2.0, np.int64(10**6), 81, ctx2)
        assert abs(est - 5 / 28) < 4 * se

    def test_tabulated_profile_round_trip(self, ctx2):
        # MC also certifies table-backed profiles
        tab = Table.from_values(
            {j: float(2.0**j / (1 + 2.0**j)) for j in range(-30, 1)},
            PowerTail(1.0, 1.0),
        )
        est, se = mc_ialpha_eval(tab, 0, 2.0, 200_000, 83, ctx2)
        exact = float(ialpha_eval(tab, 0, 2.0, ctx2).value)
        assert abs(est - exact) < 4 * se

    def test_zero_radius(self, ctx2):
        assert mc_ialpha_eval(Monomial(1.0), ZERO, 2.0, 50_000, 84, ctx2) == (0.0, 0.0)

    @pytest.mark.parametrize("f, N", [(Indicator(0), 400), (Monomial(1.0), 300)])
    def test_overflow_raises(self, ctx2, f, N):
        # C p**(N alpha) or a term beyond a double: an error naming the
        # estimate and the radius, never (nan, nan) or inf
        with pytest.raises(ArithmeticError, match=f"estimate.*x_exp={N}"):
            mc_ialpha_eval(f, N, 3.0, 10_000, 86, ctx2)

    def test_large_finite_scale_is_estimated(self, ctx2):
        # terms near 1e248, whose squares overflow a double, still give a
        # finite, honest estimate and error
        est, se = mc_ialpha_eval(Monomial(-0.5), 330, 3.0, 200_000, 87, ctx2)
        exact = float(ialpha_eval(Monomial(-0.5), 330, 3.0, ctx2).value)
        assert math.isfinite(se) and abs(est - exact) < 4 * se


class TestMonteCarloCells:
    """The run walk of mc_ialpha_eval against per-cell terms (mc_oracle)."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("f, alpha", [
        (Monomial(0.5), 1.5), (Monomial(1.0), 2.0), (Monomial(2.0), 3.0),
        (Indicator(0), 1.5), (Indicator(1), 2.0), (Indicator(2), 3.0),
    ], ids=repr)
    def test_bench_grid_matches_per_cell_terms(self, p, f, alpha):
        ctx = NumericContext(p)
        for N, seed in [(-1, 1), (0, 2), (1, 3), (3, 4)]:
            args = (f, N, alpha, 10**6, seed, ctx)
            assert mc_ialpha_eval(*args) == mc_reference(*args)

    @pytest.mark.parametrize("f, N", [
        (LogPower(0.5, 2.0), 6),
        (LogPower(0.5, 2.5), 5),
        (LogPower(1.0, 1.0), 3),
        (Table.from_values(
            {j: 2.0**j / (1 + 2.0**j) for j in range(-6, 3)},
            PowerTail(0.5, 1.0), OuterTail(0.5, 1.0, (1.0, 0.25)),
        ), 6),
        (Table.from_values(
            {j: 1 / (1 + j * j) for j in range(-4, 2)},
            ZeroTail(), OuterTail(1.0, 0.0, (2.0,)),
        ), 4),
        (LinearCombo(((0.3, Indicator(-3)), (0.7, Indicator(-5)))), 0),
        (LinearCombo(((0.3, Indicator(-3)), (0.5, Monomial(1.0)))), 2),
        (Monomial(-0.5), -3),
    ], ids=repr)
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_run_form_matches_per_cell_terms(self, f, N, p):
        ctx = NumericContext(p)
        for alpha, seed in [(1.5, 5), (2.0, 6), (3.0, 7)]:
            args = (f, N, alpha, 10**5, seed, ctx)
            assert mc_ialpha_eval(*args) == mc_reference(*args)

    def test_exact_mode_matches_per_cell_terms(self, exact2):
        args = (Monomial(1), 2, 2, 10**5, 8, exact2)
        assert mc_ialpha_eval(*args) == mc_reference(*args)

    def test_power_count_does_not_grow_with_samples(self, monkeypatch, ctx2):
        calls = []
        p_pow = NumericContext.p_pow

        def counted(self, exponent):
            calls.append(exponent)
            return p_pow(self, exponent)

        def explode(*args):
            raise AssertionError("mc_ialpha_eval evaluated a sphere afresh")

        monkeypatch.setattr(NumericContext, "p_pow", counted)
        monkeypatch.setattr(radial, "eval_sphere", explode)
        counts = []
        for samples in (10**4, 10**12):
            calls.clear()
            mc_ialpha_eval(Monomial(1), 0, 2.0, samples, 9, ctx2)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 10
