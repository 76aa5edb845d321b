"""Coefficient engines: series kernels, expansion coefficients, predictors."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from padic_ialpha import (
    AlphaOutOfRange,
    BetaOutOfRange,
    LinearCombo,
    LogPower,
    NumericContext,
    OuterTail,
    ParamOutOfRange,
    PowerTail,
    QOutOfRange,
    RandomStream,
    Table,
    TailMismatch,
    b_coefficient,
    cumulative_ball_integral,
    gen_binomial,
    ialpha_monomial_exact,
    omega,
    omega_tilde,
    phi_sum,
    predict_infinity,
    predict_infinity_beta1,
    predict_origin,
    prefactor,
    residual_scan,
    series_B,
    unit_kernel_integral,
)
from padic_ialpha import radial
from padic_ialpha.asymptotics import (
    _beta1_prediction,
    _infinity_prediction,
    _origin_prediction,
)
from padic_ialpha.core import sample_kernel_exponents
from series_oracle import (
    b_coefficient_series,
    gen_binomial_float,
    phi_sum_direct,
    smallball_direct,
)


# ---------------------------------------------------------------------------
# Oracles: direct sphere-series summation of the kernel moments
# ---------------------------------------------------------------------------

def omega_series_oracle(k, alpha, beta, ctx, m_max=600):
    """Sphere-by-sphere summation of the unit-ball kernel moment."""
    with ctx.workprec():
        p = ctx.real(ctx.prime)
        L = mp.log(ctx.prime)
        total = mp.mpf(0)
        if k == 0:
            total += unit_kernel_integral(ctx, alpha) - (1 - 1 / p)
        for m in range(1, m_max):
            sphere = (1 - 1 / p) * ctx.p_pow(-m)
            integrand = (1 - ctx.p_pow(-m * (alpha - 1))) * ctx.p_pow(m * beta)
            if k:
                integrand *= (-m * L) ** k
            total += sphere * integrand
        return total


def omega_tilde_series_oracle(k, alpha, ctx, m_max=600):
    with ctx.workprec():
        p = ctx.real(ctx.prime)
        L = mp.log(ctx.prime)
        total = mp.mpf(0)
        if k == 0:
            total += unit_kernel_integral(ctx, alpha) - 2 * (1 - 1 / p)
        for m in range(1, m_max):
            sphere = (1 - 1 / p) * ctx.p_pow(-m)
            integrand = -ctx.p_pow(-m * (alpha - 1)) * ctx.p_pow(m)
            if k:
                integrand *= (-m * L) ** k
            total += sphere * integrand
        return total


# ---------------------------------------------------------------------------
# Generalized binomials
# ---------------------------------------------------------------------------

class TestGenBinomial:
    def test_k_zero(self, ctx2):
        assert gen_binomial(17.3, 0, ctx2) == gen_binomial_float(17.3, 0) == 1.0
        assert gen_binomial(Fraction(5, 2), 0) == 1

    def test_half_integer(self, ctx2):
        assert gen_binomial(2.5, 2, ctx2) == gen_binomial_float(2.5, 2) == 1.875
        assert gen_binomial(Fraction(5, 2), 2) == Fraction(15, 8)

    def test_terminates_at_integer_gamma(self, ctx2):
        assert gen_binomial(3, 5) == 0
        assert gen_binomial(3.0, 5, ctx2) == gen_binomial_float(3.0, 5) == 0.0

    def test_without_context_only_int_and_fraction(self):
        # a float, NaN or bool gamma needs a context to convert it
        for gamma in (2.5, 3.0, math.nan, math.inf, True, mp.mpf(2)):
            with pytest.raises(ParamOutOfRange):
                gen_binomial(gamma, 2)

    def test_context_converts_float_gamma(self, exact2, ctx2):
        # a float gamma enters the context arithmetic as its exact double
        got = gen_binomial(2.5, 2, exact2)
        assert isinstance(got, Fraction) and got == Fraction(15, 8)
        assert gen_binomial(0.1, 3, NumericContext(3, exact=True)) == (
            Fraction(0.1) * (Fraction(0.1) - 1) * (Fraction(0.1) - 2) / 6
        )
        with mp.workprec(ctx2.precision_bits):
            want = mp.mpf(0.1) * (mp.mpf(0.1) - 1) * (mp.mpf(0.1) - 2) / 6
        assert gen_binomial(0.1, 3, ctx2) == want

    @given(
        gamma=st.fractions(
            min_value=-10, max_value=10, max_denominator=16
        ),
        k=st.integers(1, 12),
    )
    @settings(max_examples=200)
    def test_recurrence_exact(self, gamma, k):
        lhs = gen_binomial(gamma, k)
        rhs = gen_binomial(gamma, k - 1) * (gamma - k + 1) / k
        assert lhs == rhs

    def test_negative_k_rejected(self):
        with pytest.raises(ParamOutOfRange):
            gen_binomial(1.0, -1)


# ---------------------------------------------------------------------------
# Series kernel
# ---------------------------------------------------------------------------

class TestPhiSum:
    def test_geometric(self, exact2):
        assert phi_sum(0, Fraction(1, 2), exact2) == 1

    def test_first_moment_closed_form(self, exact2):
        # q / (1 - q)**2 at q = 1/2
        q = Fraction(1, 2)
        assert phi_sum(1, q, exact2) == q / (1 - q) ** 2 == 2

    def test_second_moment_closed_form(self, exact3):
        # q (1 + q) / (1 - q)**3 at q = 1/3
        q = Fraction(1, 3)
        assert phi_sum(2, q, exact3) == q * (1 + q) / (1 - q) ** 3 == Fraction(3, 2)

    def test_q_domain(self, ctx2):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(QOutOfRange):
                phi_sum(0, bad, ctx2)

    def test_closed_form_agrees_with_direct_summation(self):
        for p in (2, 3):
            ctx = NumericContext(p)
            for k in range(7):
                for q_exp in (0.5, 1.0, 2.0):
                    q = float(p) ** -q_exp
                    a = phi_sum(k, q, ctx)
                    b = phi_sum_direct(k, q)
                    assert abs(float(a - b)) <= 10 * ctx.rel_tol * abs(float(a))


# ---------------------------------------------------------------------------
# Expansion coefficients
# ---------------------------------------------------------------------------

class TestBCoefficient:
    def test_worked_value(self, exact2):
        assert b_coefficient(1, 2, exact2) == Fraction(-5, 21)

    def test_next_scale_value(self, exact2):
        # -1/3 + (1/2)(1/7 - 1/15)
        assert b_coefficient(2, 2, exact2) == Fraction(-1, 3) + Fraction(1, 2) * (
            Fraction(1, 7) - Fraction(1, 15)
        )

    def test_constant_annihilation_exact(self):
        for p in (2, 3, 5):
            for alpha in (2, 3):
                assert b_coefficient(0, alpha, NumericContext(p, exact=True)) == 0

    def test_closed_form_vs_series_grid(self):
        for p in (2, 3, 5):
            ctx = NumericContext(p)
            for alpha in (1.5, 2.0, 3.0):
                for M in (0.5, 1.0, 2.0):
                    a = b_coefficient(M, alpha, ctx)
                    b = b_coefficient_series(M, alpha, p)
                    assert abs(float(a - b)) <= 10 * ctx.rel_tol * max(
                        abs(float(a)), 1e-30
                    )

    def test_domain_checks(self, ctx2):
        with pytest.raises(ParamOutOfRange):
            b_coefficient(-1.0, 2, ctx2)
        with pytest.raises(AlphaOutOfRange):
            b_coefficient(1.0, 1.0, ctx2)


class TestOmega:
    def test_symmetry_zero_exact(self):
        # the t -> 1 - t substitution preserves Haar measure on the unit
        # ball, so the two kernel halves integrate identically at beta = 0
        for p in (2, 3, 5):
            for alpha in (2, 3):
                assert omega(0, alpha, 0, NumericContext(p, exact=True)) == 0

    def test_frozen_value_beta_half(self, ctx2):
        got = omega(0, 2, 0.5, ctx2)
        oracle = omega_series_oracle(0, 2, 0.5, ctx2)
        assert abs(float(got - oracle)) < 1e-40
        assert float(got) == pytest.approx(0.600314367514201, rel=1e-14)

    def test_frozen_value_k1(self, ctx2):
        got = omega(1, 2, 0.0, ctx2)
        oracle = omega_series_oracle(1, 2, 0.0, ctx2)
        assert abs(float(got - oracle)) < 1e-40
        assert float(got) == pytest.approx(-0.5391144737688464, rel=1e-14)

    def test_series_oracle_grid(self):
        for p in (2, 3):
            ctx = NumericContext(p)
            for alpha in (1.5, 2.0):
                for beta in (0.0, 0.5):
                    for k in range(4):
                        got = omega(k, alpha, beta, ctx)
                        oracle = omega_series_oracle(k, alpha, beta, ctx)
                        assert abs(float(got - oracle)) <= 1e-35 * max(
                            1.0, abs(float(got))
                        )

    def test_beta_domain(self, ctx2):
        with pytest.raises(BetaOutOfRange):
            omega(0, 2, 1.0, ctx2)
        with pytest.raises(BetaOutOfRange):
            omega(0, 2, -0.1, ctx2)

    def test_monte_carlo_cross_check(self):
        # Haar sampling of the unit-ball integrand agrees within 4 sigma
        for p, alpha, beta, seed in [(2, 2.0, 0.0, 21), (3, 1.5, 0.25, 22)]:
            ctx = NumericContext(p)
            ln_p = math.log(p)
            j, e, counts = sample_kernel_exponents(
                ctx, 0, 400_000, RandomStream(seed)
            )
            n = int(counts.sum())
            jf = j.astype(float)
            kernel = np.power(float(p), (alpha - 1) * e) - np.power(
                float(p), (alpha - 1) * jf
            )
            weight = np.power(float(p), -beta * jf)
            for k in range(3):
                vals = kernel * weight * (jf * ln_p) ** k
                est = float(counts @ vals) / n
                se = math.sqrt(float(counts @ (vals - est) ** 2) / (n - 1) / n)
                target = float(omega(k, alpha, beta, ctx))
                assert abs(est - target) < 4 * se + 1e-12


class TestOmegaTilde:
    def test_exact_value(self, exact2):
        assert omega_tilde(0, 2, exact2) == Fraction(-4, 3)

    def test_log_value(self, ctx2):
        got = omega_tilde(1, 2, ctx2)
        with ctx2.workprec():
            assert abs(float(got - mp.log(2))) < 1e-60

    def test_series_oracle_grid(self):
        for p in (2, 3):
            ctx = NumericContext(p)
            for alpha in (1.5, 2.0):
                for k in range(4):
                    got = omega_tilde(k, alpha, ctx)
                    oracle = omega_tilde_series_oracle(k, alpha, ctx)
                    assert abs(float(got - oracle)) <= 1e-35 * max(1.0, abs(float(got)))

    def test_no_unit_sphere_term_beyond_k0(self, exact2):
        # for k >= 1 the value is a pure sphere series: rational in base-p
        # log mode, with no unit-sphere offset
        ctx = NumericContext(2, exact=True, log_base="base_p")
        p0 = phi_sum(1, Fraction(1, 2), ctx)
        assert omega_tilde(1, 2, ctx) == -Fraction(1, 2) * (-1) * p0


class TestSeriesB:
    def test_single_term(self, ctx2):
        B = series_B([1.0], 2.0, 0, "omega", 2.0, ctx2, beta=0.5)
        assert float(B[0]) == pytest.approx(float(omega(0, 2, 0.5, ctx2)), rel=1e-30)

    def test_binomial_weighting(self, ctx2):
        B = series_B([1.0], 2.0, 1, "omega", 2.0, ctx2, beta=0.5)
        assert float(B[1]) == pytest.approx(2 * float(omega(1, 2, 0.5, ctx2)), rel=1e-25)

    def test_two_coefficients(self, ctx2):
        B = series_B([1.0, 1.0], 1.0, 1, "omega", 2.0, ctx2, beta=0.0)
        want = float(omega(0, 2, 0.0, ctx2)) + float(omega(1, 2, 0.0, ctx2))
        assert float(B[1]) == pytest.approx(want, rel=1e-25)

    def test_kind_validation(self, ctx2):
        with pytest.raises(ParamOutOfRange):
            series_B([1.0], 1.0, 0, "omega", 2.0, ctx2)  # missing beta
        with pytest.raises(ParamOutOfRange):
            series_B([], 1.0, 0, "omega_tilde", 2.0, ctx2)


# ---------------------------------------------------------------------------
# Predictors
# ---------------------------------------------------------------------------

class TestPredictOrigin:
    def test_single_monomial_equals_exact_value(self, ctx2):
        for x in (-8, -3, 0, 2):
            a = predict_origin([1.0], [1.0], 0, x, 2.0, ctx2)
            b = ialpha_monomial_exact(1.0, x, 2.0, ctx2)
            assert float(a) == pytest.approx(float(b), rel=1e-60, abs=1e-70)

    def test_two_term_composition(self, ctx2):
        # C (b(1) 2**-15 - b(2) 2**-20) at x = -5, independent composition
        got = predict_origin([1.0, -1.0], [1.0, 2.0], 1, -5, 2.0, ctx2)
        with ctx2.workprec():
            want = prefactor(ctx2, 2.0) * (
                b_coefficient(1.0, 2.0, ctx2) * mp.mpf(2) ** -15
                - b_coefficient(2.0, 2.0, ctx2) * mp.mpf(2) ** -20
            )
            assert abs(float(got - want)) < 1e-40

    def test_minimum_one_term(self, ctx2):
        with pytest.raises(ParamOutOfRange):
            predict_origin([], [], -1, -5, 2.0, ctx2)

    def test_scales_must_increase(self, ctx2):
        with pytest.raises(ParamOutOfRange):
            predict_origin([1.0, 1.0], [2.0, 1.0], 1, -5, 2.0, ctx2)


class TestPredictInfinity:
    def test_symmetry_collapse(self, ctx2):
        # gamma = beta = 0 at order 0 multiplies by omega(0, alpha, 0) = 0
        assert float(predict_infinity([1.0], 0.0, 0.0, 0, 10, 2.0, ctx2)) == 0.0

    def test_composed_value(self, ctx2):
        got = predict_infinity([1.0], 0.5, 2.0, 0, 10, 2.0, ctx2)
        with ctx2.workprec():
            want = (
                prefactor(ctx2, 2.0)
                * mp.mpf(2) ** 15
                * omega(0, 2.0, 0.5, ctx2)
                * (10 * mp.log(2)) ** 2
            )
            assert abs(float(got - want)) <= 1e-30 * abs(float(want))

    def test_order_step_telescopes(self, ctx2):
        # P(N+1) - P(N) is exactly the next expansion term
        a, beta, gamma, alpha = [1.0], 0.5, 2.0, 2.0
        x = 12
        p0 = predict_infinity(a, beta, gamma, 1, x, alpha, ctx2)
        p1 = predict_infinity(a, beta, gamma, 2, x, alpha, ctx2)
        B = series_B(a, gamma, 2, "omega", alpha, ctx2, beta=beta)
        with ctx2.workprec():
            step = (
                prefactor(ctx2, alpha)
                * ctx2.p_pow(x * (alpha - beta))
                * B[2]
                * (x * mp.log(2)) ** (gamma - 2)
            )
            assert abs(float((p1 - p0) - step)) <= 1e-30 * max(1.0, abs(float(step)))

    def test_regime_check(self, ctx2):
        with pytest.raises(ParamOutOfRange):
            predict_infinity([1.0], 0.5, 2.0, 0, 1, 2.0, ctx2)


class TestBuiltExpansionRadii:
    """A built expansion reads its radius exponent as the predictors do."""

    def built(self, ctx):
        op, f = radial._Operator(2.0, ctx), LogPower(1.0, 0.0)
        return {
            "T3": _infinity_prediction([1.0], ctx.real(0.5), ctx.real(2.0), 1, op)[0],
            "T4": _beta1_prediction([1.0], ctx.real(0.0), 0, f,
                                    radial.outer_expansion(f, ctx), op, False)[0],
            "T1": _origin_prediction([1.0], [1.0], 0, op)[0],
        }

    @pytest.mark.parametrize("x", [2.5, -2.5, True, 5.0], ids=repr)
    def test_non_integer_and_bool_radii_raise(self, ctx2, x):
        for at in self.built(ctx2).values():
            with pytest.raises(ParamOutOfRange):
                at(x)

    def test_large_radius_forms_need_two(self, ctx2):
        built = self.built(ctx2)
        for name in ("T3", "T4"):
            with pytest.raises(ParamOutOfRange):
                built[name](1)
        built["T1"](1)

    def test_numpy_integers_read_as_ints(self, ctx2):
        for name, at in self.built(ctx2).items():
            x = 7 if name != "T1" else -7
            assert at(np.int64(x))._mpf_ == at(x)._mpf_


def test_builders_return_their_first_omitted_term(ctx2):
    # T1: the next listed scale, or the last + 1 when the list is exhausted;
    # T3 and T4: the next log power times the radius power (none when printed)
    op, f, x = radial._Operator(2.5, ctx2), LogPower(1.0, 1.5), 9
    declared, g = radial.outer_expansion(f, ctx2), ctx2.real(1.5)
    omitted = [
        _origin_prediction([1.0, 2.0], [0.5, 1.5], 0, op)[1](-x),
        _origin_prediction([1.0, 2.0], [0.5, 1.5], 1, op)[1](-x),
        _infinity_prediction([1.0], ctx2.real(0.5), ctx2.real(3.0), 1, op)[1](x),
        _beta1_prediction([1.0], g, 0, f, declared, op, False)[1](x),
        _beta1_prediction([1.0], g, 0, f, declared, op, True)[1](x),
    ]
    with mp.workprec(512):
        two, log_r = mp.mpf(2), x * mp.log(2)
        want = [two ** (-4 * x), two ** (-5 * x), two ** (2 * x) * log_r,
                two ** (1.5 * x) * mp.sqrt(log_r), mp.sqrt(log_r)]
        for got, w in zip(omitted, want):
            assert abs(got - w) <= 1e-70 * w


class TestPredictInfinityCritical:
    def test_composed_value(self, ctx2):
        f = LogPower(1.0, 0.0)
        got = predict_infinity_beta1([1.0], 0.0, 0, 20, f, 2.0, ctx2)
        with ctx2.workprec():
            g1 = cumulative_ball_integral(f, 20, ctx2)
            want = (
                prefactor(ctx2, 2.0)
                * mp.mpf(2) ** 20
                * (g1 + omega_tilde(0, 2.0, ctx2))
            )
            assert abs(float(got - want)) <= 1e-30 * abs(float(want))

    def test_rate_kernels_formed_once_per_build(self, ctx2, monkeypatch):
        # G at every rung comes from one operator's kernel table, and each
        # value equals the one the predictor, with an operator of its own, gives
        f = Table(-4, (0.75, 1.25, 0.5, 2.0, 1.5, 0.875), PowerTail(1.3, 0.7),
                  OuterTail(1.0, 0.0, (1.0,)))
        rungs = (4, 8, 16)
        want = [predict_infinity_beta1([1.0], 0.0, 0, x, f, 2.0, ctx2) for x in rungs]
        formed, kernel = [], radial._rate_kernel
        monkeypatch.setattr(radial, "_rate_kernel",
                            lambda *args: formed.append(args[1:]) or kernel(*args))
        at, _ = _beta1_prediction([1.0], ctx2.real(0.0), 0, f,
                                  radial.outer_expansion(f, ctx2),
                                  radial._Operator(2.0, ctx2), False)
        assert [at(x)._mpf_ for x in rungs] == [w._mpf_ for w in want]
        assert formed and len(formed) == len(set(formed))

    def test_cumulative_term_dominates(self, ctx2):
        # the ball-integral term grows linearly in the exponent while the
        # log-sum stays bounded, so their ratio tends to 0
        f = LogPower(1.0, 0.0)
        ratios = []
        for x in (8, 16, 32, 64):
            with ctx2.workprec():
                g1 = float(cumulative_ball_integral(f, x, ctx2))
                log_sum = abs(float(omega_tilde(0, 2.0, ctx2)))
                ratios.append(log_sum / g1)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 0.05

    def test_integer_gamma_terminates_binomials(self, ctx2):
        # orders beyond gamma stay defined through vanishing binomials
        f = LinearCombo(((1.0, LogPower(1.0, 1.0)),))
        v1 = predict_infinity_beta1([1.0], 1.0, 1, 8, f, 2.0, ctx2)
        v3 = predict_infinity_beta1([1.0], 1.0, 3, 8, f, 2.0, ctx2)
        B = series_B([1.0], 1.0, 3, "omega_tilde", 2.0, ctx2)
        assert float(B[2]) == 0.0 and float(B[3]) == 0.0
        assert float(v1) == pytest.approx(float(v3), rel=1e-30)

    def test_tail_mismatch(self, ctx2):
        with pytest.raises(TailMismatch):
            predict_infinity_beta1([1.0], 0.0, 0, 8, LogPower(0.5, 0.0), 2.0, ctx2)
        with pytest.raises(TailMismatch):
            predict_infinity_beta1([1.0], 2.0, 0, 8, LogPower(1.0, 0.0), 2.0, ctx2)

    def test_declared_tail_is_compared_exactly(self, ctx2):
        # a tolerance of 1e-9 would accept each of these
        f = LogPower(1.0, 1.0)
        with pytest.raises(TailMismatch):
            predict_infinity_beta1([1.0 + 1e-12], 1.0, 0, 8, f, 2.0, ctx2)
        with pytest.raises(TailMismatch):
            predict_infinity_beta1([1.0], 1.0 + 1e-12, 0, 8, f, 2.0, ctx2)
        with pytest.raises(TailMismatch):
            predict_infinity_beta1([1.0], 1.0, 0, 8, LogPower(1.0 + 1e-12, 1.0),
                                   2.0, ctx2)
        predict_infinity_beta1([1.0], 1.0, 0, 8, f, 2.0, ctx2)

    def test_declared_tail_longer_than_coeffs_is_compared(self, ctx2):
        # the tail declares (1, 5); coeffs=[1] omits the 5 and must not pass
        f = LinearCombo(((1.0, LogPower(1, 2)), (5.0, LogPower(1, 1))))
        with pytest.raises(TailMismatch):
            predict_infinity_beta1([1.0], 2.0, 0, 8, f, 2.0, ctx2)
        with pytest.raises(TailMismatch):
            residual_scan("T4", f, 0, [8], 2.0, ctx2, coeffs=[1.0])
        predict_infinity_beta1([1.0, 5.0, 0.0], 2.0, 0, 8, f, 2.0, ctx2)

    def test_printed_variant_differs_by_power_factor_on_logs(self, ctx2):
        f = LogPower(1.0, 0.0)
        x, alpha = 12, 2.0
        proof = predict_infinity_beta1([1.0], 0.0, 0, x, f, alpha, ctx2)
        printed = predict_infinity_beta1(
            [1.0], 0.0, 0, x, f, alpha, ctx2, printed_form=True
        )
        with ctx2.workprec():
            gap = prefactor(ctx2, alpha) * (ctx2.p_pow(x * (alpha - 1)) - 1) * omega_tilde(
                0, alpha, ctx2
            )
            assert abs(float((proof - printed) - gap)) < 1e-30 * abs(float(gap))


class TestFloatParameters:
    # a float parameter means the exact value of its double, so every engine
    # must agree with the same call at Fraction(x); exponents such as M + alpha
    # rounded in float64 were off by 8.5e-17 to 1.4e-15
    @pytest.mark.parametrize("p", [2, 3])
    def test_float_equals_fraction_of_float(self, p):
        ctx = NumericContext(p)
        M, alpha, beta, gamma = 0.3, 2.1, 0.3, 1.7
        F = Fraction
        pairs = [
            (b_coefficient(M, alpha, ctx), b_coefficient(F(M), F(alpha), ctx)),
            *[(omega(k, alpha, beta, ctx), omega(k, F(alpha), F(beta), ctx))
              for k in range(3)],
            (predict_origin([1.0, -0.5], [M, 1.7], 1, -7, alpha, ctx),
             predict_origin([1, F(-0.5)], [F(M), F(1.7)], 1, -7, F(alpha), ctx)),
            (predict_infinity([1.0], beta, gamma, 2, 13, alpha, ctx),
             predict_infinity([1], F(beta), F(gamma), 2, 13, F(alpha), ctx)),
        ]
        with mp.workprec(512):
            for got, want in pairs:
                assert abs(got - want) <= 1e-60 * abs(want)

    @pytest.mark.parametrize("p", [2, 3])
    def test_float_parameters_match_direct_series(self, p):
        # omega(k) is (-1)**k times the small-ball integral at R = 1, plus
        # U - (1 - 1/p) at k = 0
        ctx = NumericContext(p)
        M, alpha, beta = 0.3, 2.1, 0.3
        pairs = [(b_coefficient(M, alpha, ctx), b_coefficient_series(M, alpha, p))]
        with mp.workprec(512):
            for k in range(3):
                want = (-1) ** k * smallball_direct(k, beta, 1, alpha, p)
                if k == 0:
                    want += unit_kernel_integral(ctx, alpha) - (1 - mp.mpf(1) / p)
                pairs.append((omega(k, alpha, beta, ctx), want))
            for got, want in pairs:
                assert abs(got - want) <= 1e-60 * abs(want)

