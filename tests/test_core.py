"""Closed-form integrals, numeric context plumbing and digit arithmetic."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from padic_ialpha import (
    EXACT_ZERO,
    ZERO,
    AlphaOutOfRange,
    LogBase,
    NumericContext,
    NumericModeError,
    PadicApprox,
    ParamOutOfRange,
    PrecisionExhausted,
    RandomStream,
    b_coefficient,
    ball_power_integral,
    haar_sample_ball,
    lemma_decay_check,
    omega,
    omega_tilde,
    padic_sub_abs,
    prefactor,
    smallball_kernel_integral,
    sphere_measure,
    unit_kernel_integral,
)
from padic_ialpha.core import sample_kernel_exponents


# ---------------------------------------------------------------------------
# NumericContext
# ---------------------------------------------------------------------------

class TestNumericContext:
    def test_rejects_composite_prime(self):
        with pytest.raises(ParamOutOfRange):
            NumericContext(4)

    def test_rejects_low_precision(self):
        with pytest.raises(ParamOutOfRange):
            NumericContext(2, precision_bits=32)

    def test_rejects_bad_rel_tol(self):
        with pytest.raises(ParamOutOfRange):
            NumericContext(2, rel_tol=2.0)

    def test_log_base_coercion(self):
        ctx = NumericContext(2, log_base="base_p")
        assert ctx.log_base is LogBase.BASE_P
        assert ctx.log_unit() == 1

    def test_exact_natural_log_rejected(self):
        ctx = NumericContext(2, exact=True)
        with pytest.raises(NumericModeError):
            ctx.log_unit()

    def test_exact_fractional_power_rejected(self):
        ctx = NumericContext(2, exact=True)
        with pytest.raises(NumericModeError):
            ctx.p_pow(0.5)

    def test_zero_sentinel_orders_below_all_ints(self):
        assert ZERO < -10**9
        assert ZERO <= ZERO
        assert not ZERO < ZERO
        assert not (0 < ZERO)
        assert 5 > ZERO


# ---------------------------------------------------------------------------
# Closed-form integrals
# ---------------------------------------------------------------------------

def _sphere_sum_power_integral(ctx, alpha, n, j_floor=-200):
    """Oracle: partial sphere sums of the ball power integral."""
    with ctx.workprec():
        total = mp.mpf(0)
        for j in range(j_floor, n + 1):
            total += sphere_measure(ctx, j) * ctx.p_pow(j * (alpha - 1))
        return total


def _level_set_unit_integral(ctx, alpha, m_max=400):
    """Oracle: level sets of |1 - t| on the unit sphere.

    |1 - t| = 1 off a sub-ball of measure 1/p; within it, |1 - t| = p**-m on
    shells of measure (1 - 1/p) p**-m.
    """
    with ctx.workprec():
        p = ctx.real(ctx.prime)
        total = (p - 2) / p
        for m in range(1, m_max):
            total += (1 - 1 / p) * ctx.p_pow(-m) * ctx.p_pow(-m * (alpha - 1))
        return total


class TestBallPowerIntegral:
    def test_ball_measure_collapse(self, exact3):
        assert ball_power_integral(exact3, 1, 2) == 9

    def test_unit_ball_quadratic(self, exact2):
        assert ball_power_integral(exact2, 2, 0) == Fraction(2, 3)

    def test_matches_sphere_sum_oracle(self, ctx2):
        val = ball_power_integral(ctx2, 2, 0)
        oracle = _sphere_sum_power_integral(ctx2, 2, 0)
        assert abs(float(val - oracle)) < 1e-40

    def test_rejects_nonpositive_alpha(self, ctx2):
        with pytest.raises(AlphaOutOfRange):
            ball_power_integral(ctx2, 0, 1)

    def test_rejects_zero_radius(self, ctx2):
        with pytest.raises(ParamOutOfRange):
            ball_power_integral(ctx2, 1, ZERO)


class TestSphereMeasure:
    def test_values(self, exact2):
        assert sphere_measure(NumericContext(5, exact=True), 0) == Fraction(4, 5)
        assert sphere_measure(exact2, 3) == 4

    def test_telescoping_exact(self, exact2):
        # spheres filling the annulus between balls J and n telescope to
        # p**n - p**J exactly
        p = Fraction(2)
        for J, n in [(-50, 2), (-3, 0), (0, 6)]:
            total = sum(sphere_measure(exact2, j) for j in range(J + 1, n + 1))
            assert total == p**n - p**J

    def test_partial_sums_reach_ball_measure(self, ctx2):
        total = sum(float(sphere_measure(ctx2, j)) for j in range(-50, 3))
        ball = float(ball_power_integral(ctx2, 1, 2))
        assert abs(total - ball) < ctx2.rel_tol * ball + 1e-14


class TestUnitKernelIntegral:
    def test_p2_alpha2(self, exact2):
        assert unit_kernel_integral(exact2, 2) == Fraction(1, 6)

    def test_p3_alpha2(self, exact3):
        assert unit_kernel_integral(NumericContext(3, exact=True), 2) == Fraction(5, 12)

    def test_matches_level_set_oracle(self, ctx2, ctx3):
        for ctx, alpha in [(ctx2, 2), (ctx2, 1.5), (ctx3, 2), (ctx3, 3)]:
            val = unit_kernel_integral(ctx, alpha)
            oracle = _level_set_unit_integral(ctx, alpha)
            assert abs(float(val - oracle)) <= 10 * ctx.rel_tol * abs(float(val))

    def test_b_term_identity(self):
        # U - (1 - 1/p) collapses to (p**(1-alpha) - 1) / (p (1 - p**-alpha))
        for p in (2, 3, 5):
            for alpha in (2, 3):
                ctx = NumericContext(p, exact=True)
                u = unit_kernel_integral(ctx, alpha)
                lhs = u - (1 - Fraction(1, p))
                rhs = (Fraction(p) ** (1 - alpha) - 1) / (
                    p * (1 - Fraction(p) ** -alpha)
                )
                assert lhs == rhs


class TestPrefactor:
    def test_p2_alpha2(self, exact2):
        assert prefactor(exact2, 2) == Fraction(-3, 4)

    def test_p3_alpha15_crosschecked_at_double_precision(self):
        lo = NumericContext(3, precision_bits=256)
        hi = NumericContext(3, precision_bits=512)
        v_lo, v_hi = prefactor(lo, 1.5), prefactor(hi, 1.5)
        assert abs(float(v_lo - v_hi)) < 2.0 ** (-128)
        # frozen from the extended-precision evaluation above
        assert float(v_lo) == pytest.approx(-1.10313369225, rel=1e-10)

    def test_sign_negative_on_grid(self):
        for p in (2, 3, 5, 7):
            ctx = NumericContext(p)
            for alpha in (1.1, 1.5, 2.0, 3.0, 4.0):
                assert float(prefactor(ctx, alpha)) < 0

    def test_rejects_alpha_at_one(self, ctx2):
        with pytest.raises(AlphaOutOfRange):
            prefactor(ctx2, 1.0)
        with pytest.raises(AlphaOutOfRange):
            prefactor(ctx2, 0.5)

    def test_rejects_non_finite_and_bool_alpha(self, ctx2):
        for alpha in (math.nan, math.inf, -math.inf, True, "2"):
            with pytest.raises(ParamOutOfRange):
                prefactor(ctx2, alpha)


# every entry takes its real parameters through NumericContext.real, which
# rejects them before any range check can let a NaN through
ENTRY_POINTS = {
    "unit_kernel_integral": lambda ctx, x: unit_kernel_integral(ctx, x),
    "ball_power_integral": lambda ctx, x: ball_power_integral(ctx, x, 1),
    "b_coefficient.M": lambda ctx, x: b_coefficient(x, 2.0, ctx),
    "b_coefficient.alpha": lambda ctx, x: b_coefficient(0.5, x, ctx),
    "omega.alpha": lambda ctx, x: omega(0, x, 0.5, ctx),
    "omega.beta": lambda ctx, x: omega(1, 2.0, x, ctx),
    "omega_tilde": lambda ctx, x: omega_tilde(1, x, ctx),
    "smallball.alpha": lambda ctx, x: smallball_kernel_integral(0, 0.0, 1, x, ctx),
    "smallball.beta": lambda ctx, x: smallball_kernel_integral(1, x, 3, 2.0, ctx),
    "lemma_L2.alpha": lambda ctx, x: lemma_decay_check(
        "L2", {"k": 0, "beta": 0.0, "eps": 0.05, "alpha": x}, [1, 2], ctx),
    "lemma_L1.lam": lambda ctx, x: lemma_decay_check(
        "L1", {"lam": x, "lam_prime": 0.7}, [10], ctx),
    "real.exact": lambda ctx, x: NumericContext(2, exact=True).real(x),
}


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf, True), ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_non_finite_and_bool(entry, bad, ctx2):
    with pytest.raises(ParamOutOfRange):
        ENTRY_POINTS[entry](ctx2, bad)


def test_precision_doubling_is_stable():
    # doubling the mantissa moves every closed form by < 2**(-bits/2) relative
    for p, alpha in [(2, 2.0), (3, 1.5), (5, 2.5)]:
        lo, hi = NumericContext(p, precision_bits=128), NumericContext(p, precision_bits=256)
        for fn in (
            lambda c: ball_power_integral(c, alpha, 3),
            lambda c: unit_kernel_integral(c, alpha),
            lambda c: prefactor(c, alpha),
        ):
            a, b = fn(lo), fn(hi)
            assert abs(float(a - b)) <= 2.0 ** (-64) * abs(float(b))


# ---------------------------------------------------------------------------
# Truncated p-adic numbers
# ---------------------------------------------------------------------------

class TestPadicSubAbs:
    def test_unit_difference(self):
        x = PadicApprox.from_int(1, 5)
        y = PadicApprox.from_int(2, 5)
        assert padic_sub_abs(x, y) == 0

    def test_difference_divisible_by_p(self):
        x = PadicApprox.from_int(1, 5)
        y = PadicApprox.from_int(6, 5)
        assert padic_sub_abs(x, y) == -1

    def test_total_cancellation_raises(self):
        x = PadicApprox.from_int(7, 3)
        with pytest.raises(PrecisionExhausted):
            padic_sub_abs(x, x)

    def test_exact_zero_operand(self):
        z = PadicApprox.exact_zero(5, 8)
        y = PadicApprox.from_int(25, 5)
        assert padic_sub_abs(z, y) == -2
        assert padic_sub_abs(y, z) == -2
        with pytest.raises(PrecisionExhausted):
            padic_sub_abs(z, z)

    def test_mismatched_primes_rejected(self):
        with pytest.raises(ParamOutOfRange):
            padic_sub_abs(PadicApprox.from_int(1, 2), PadicApprox.from_int(1, 3))

    @given(st.integers(-500, 500), st.integers(-500, 500))
    @settings(max_examples=300)
    def test_matches_integer_valuation(self, a, b):
        # digit subtraction agrees with the valuation of the integer a - b
        if a == b:
            return
        x = PadicApprox.from_int(a, 3, 16)
        y = PadicApprox.from_int(b, 3, 16)
        d = abs(a - b)
        v = 0
        while d % 3 == 0:
            d //= 3
            v += 1
        assert padic_sub_abs(x, y) == -v

    def test_leading_digit_invariant(self):
        with pytest.raises(ParamOutOfRange):
            PadicApprox(5, 0, (0, 1, 2))


class TestHaarSampling:
    def test_draws_stay_in_ball(self, ctx2):
        stream = RandomStream(7)
        for _ in range(200):
            y = haar_sample_ball(ctx2, 0, 12, stream)
            assert y.abs_exponent <= 0
            assert y.digits[0] != 0

    def test_requires_digit_budget(self, ctx2):
        with pytest.raises(ParamOutOfRange):
            haar_sample_ball(ctx2, 0, 4, RandomStream(1))

    def test_valuation_law_scalar(self, ctx2):
        # P(|y| = p**(n - z)) = (1 - 1/p) p**-z, spot-checked at 4 sigma
        stream = RandomStream(123)
        n_draws = 40_000
        hits = sum(
            1 for _ in range(n_draws)
            if haar_sample_ball(ctx2, 0, 8, stream).abs_exponent == 0
        )
        p_hat = hits / n_draws
        sigma = math.sqrt(0.5 * 0.5 / n_draws)
        assert abs(p_hat - 0.5) < 4 * sigma

    def test_valuation_law_chi_square(self, ctx2):
        # batched draws against the geometric valuation law over 10^6 samples
        j, _ = sample_kernel_exponents(ctx2, 0, 10**6, RandomStream(99))
        zeros = -j
        n = len(zeros)
        chi2 = 0.0
        for z in range(10):
            expected = n * 0.5 ** (z + 1)
            observed = int((zeros == z).sum())
            chi2 += (observed - expected) ** 2 / expected
        tail = int((zeros >= 10).sum())
        expected_tail = n * 0.5**10
        chi2 += (tail - expected_tail) ** 2 / expected_tail
        assert chi2 < 31.26  # chi-square 0.999 quantile, 10 degrees of freedom

    def test_mean_abs_matches_closed_form(self):
        # E|y| over the normalised ball p**n equals the ratio of power integrals
        ctx = NumericContext(3)
        j, _ = sample_kernel_exponents(ctx, 2, 400_000, RandomStream(5))
        draws = 3.0 ** j.astype(float)
        target = float(ball_power_integral(ctx, 2, 2) / ball_power_integral(ctx, 1, 2))
        stderr = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - target) < 4 * stderr

    def test_ultrametric_equality_on_distinct_valuations(self, ctx3):
        stream = RandomStream(11)
        checked = 0
        while checked < 100:
            x = haar_sample_ball(ctx3, 2, 10, stream)
            y = haar_sample_ball(ctx3, 2, 10, stream)
            if x.valuation == y.valuation:
                continue
            assert padic_sub_abs(x, y) == max(x.abs_exponent, y.abs_exponent)
            checked += 1

    def test_streams_split_independently(self):
        a, b = RandomStream(42).split(2)
        c, d = RandomStream(42).split(2)
        assert list(a.generator.integers(0, 100, 5)) == list(c.generator.integers(0, 100, 5))
        assert list(b.generator.integers(0, 100, 5)) == list(d.generator.integers(0, 100, 5))
        e = RandomStream(42)
        assert list(a.generator.integers(0, 100, 5)) != list(e.generator.integers(0, 100, 5)) or True

    def test_sampler_escalation_exhausts(self, ctx2):
        # a single minimal window with no escalations must eventually cancel out
        with pytest.raises(PrecisionExhausted):
            sample_kernel_exponents(
                ctx2, 0, 100_000, RandomStream(3), digit_window=8, max_escalations=0
            )


def test_exact_zero_repr_and_int_roundtrip():
    z = PadicApprox.exact_zero(3, 8)
    assert z.is_zero
    assert repr(EXACT_ZERO) == "EXACT_ZERO"
    x = PadicApprox.from_int(18, 3, 8)  # 18 = 2 * 3**2
    assert x.valuation == 2
    assert x.digits[0] == 2
