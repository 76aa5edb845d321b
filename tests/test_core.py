"""Closed-form integrals, numeric context plumbing, digit arithmetic and the depth sampler."""

import copy
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from padic_ialpha import (
    ZERO,
    AlphaOutOfRange,
    LogBase,
    LogDomain,
    LogPower,
    Monomial,
    NumericContext,
    NumericModeError,
    ParamOutOfRange,
    RandomStream,
    b_coefficient,
    gen_binomial,
    ialpha_eval,
    lemma_decay_check,
    mc_ialpha_eval,
    omega,
    omega_tilde,
    phi_sum,
    predict_infinity,
    predict_origin,
    prefactor,
    residual_scan,
    series_B,
    smallball_kernel_integral,
    unit_kernel_integral,
)
from padic_ialpha.core import (
    _mp_context,
    _one_minus_p_pow,
    _require_finite,
    general_power,
    sample_kernel_exponents,
)
from digit_oracle import (
    EXACT_ZERO,
    PadicApprox,
    TotalCancellation,
    haar_sample_ball,
    padic_sub_abs,
)


# ---------------------------------------------------------------------------
# NumericContext
# ---------------------------------------------------------------------------

class TestNumericContext:
    def test_rejects_composite_prime(self):
        with pytest.raises(ParamOutOfRange):
            NumericContext(4)

    def test_rejects_non_integer_prime(self):
        # trial division never tests a non-integer, so 2.5 would pass as prime
        for p in (2.5, 3.5, 3.0, True, Fraction(3), "3"):
            with pytest.raises(ParamOutOfRange):
                NumericContext(p)
        prime = NumericContext(np.int64(3)).prime
        assert prime == 3 and type(prime) is int

    def test_rejects_low_precision(self):
        with pytest.raises(ParamOutOfRange):
            NumericContext(2, precision_bits=32)

    def test_rejects_non_integer_precision(self):
        for bits in (100.5, 128.0, True, "128", Fraction(256)):
            with pytest.raises(ParamOutOfRange):
                NumericContext(2, precision_bits=bits)
        bits = NumericContext(2, precision_bits=np.int64(80)).precision_bits
        assert bits == 80 and type(bits) is int

    def test_real_moves_a_callers_mpf_unrounded(self):
        ctx = NumericContext(3)
        with mp.workprec(512):
            x = mp.mpf(1) / 3
        got = ctx.real(x)
        assert got._mpf_ == x._mpf_
        assert ctx.real(got) is got

    def test_returned_mpfs_round_at_their_own_precision(self):
        # they belong to the context of their precision, not to mp
        ctx = NumericContext(2, precision_bits=80)
        v = ctx.p_pow(Fraction(1, 3))
        assert not isinstance(v, mp.mpf)
        assert float(v) == pytest.approx(2 ** (1 / 3))
        assert mp.convert(v) == v and v < 2 and v + mp.mpf(1) > 2
        saved = mp.prec
        try:
            mp.prec = 20
            third = v / 3
        finally:
            mp.prec = saved
        with mp.workprec(80):
            assert third._mpf_ == (mp.mpf(v) / 3)._mpf_

    def test_contexts_and_values_pickle_and_copy(self):
        ctx = NumericContext(3, precision_bits=80)
        v = ialpha_eval(LogPower(0.3, 1.7), 7, 1.7, ctx).value
        for copied in (pickle.loads(pickle.dumps((ctx, v))), copy.deepcopy((ctx, v))):
            assert copied[0] == ctx
            assert copied[1]._mpf_ == v._mpf_ and type(copied[1]) is type(v)
            assert (copied[1] / 3)._mpf_ == (v / 3)._mpf_

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

    def test_integer_types_accepted_bools_rejected(self):
        # any integer type is an exponent, read through operator.index
        n = _require_finite(np.int64(3))
        assert n == 3 and type(n) is int
        for bad in (True, np.bool_(True), 3.0, ZERO):
            with pytest.raises(ParamOutOfRange):
                _require_finite(bad)

    def test_zero_sentinel_orders_below_all_ints(self):
        assert ZERO < -10**9
        assert ZERO <= ZERO
        assert not ZERO < ZERO
        assert not (0 < ZERO)
        assert 5 > ZERO
        assert ZERO <= -1 and ZERO >= ZERO and not ZERO > ZERO
        assert not ZERO >= -1 and not ZERO > -1
        with pytest.raises(TypeError):
            ZERO < 0.5


# ---------------------------------------------------------------------------
# Closed-form integrals
# ---------------------------------------------------------------------------

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

    def test_rejects_alpha_that_is_one_at_working_precision(self):
        # 1 + 1e-25 exceeds 1 by more than rel_tol, but p**(alpha-1) rounds
        # to 1 at 64 bits, so C's denominator vanishes there
        ctx = NumericContext(2, precision_bits=64)
        with mp.workprec(256):
            alpha = 1 + mp.mpf(10) ** -25
        with pytest.raises(AlphaOutOfRange):
            prefactor(ctx, alpha)
        with pytest.raises(AlphaOutOfRange):
            ialpha_eval(Monomial(1), 5, alpha, ctx)
        with pytest.raises(AlphaOutOfRange):
            residual_scan("T3", LogPower(0.5, 2.0), 0, [4, 8], alpha, ctx)
        with pytest.raises(AlphaOutOfRange):
            mc_ialpha_eval(Monomial(1), 5, alpha, 10**4, 1, ctx)
        # the constants of the expansions read the same operator; at 64 bits
        # they would lose every digit of values near 1e-25
        for constant in (
            lambda: omega(0, alpha, 0.25, ctx),
            lambda: omega_tilde(1, alpha, ctx),
            lambda: series_B([1.0], 2.0, 1, "omega", alpha, ctx, beta=0.5),
            lambda: b_coefficient(0.5, alpha, ctx),
            lambda: smallball_kernel_integral(0, 0.25, 3, alpha, ctx),
        ):
            with pytest.raises(AlphaOutOfRange):
                constant()
        # U needs no C: the unit-sphere integral is finite there
        assert math.isfinite(unit_kernel_integral(ctx, alpha))


# every entry takes its real parameters through NumericContext.real, which
# rejects them before any range check can let a NaN through
ENTRY_POINTS = {
    "unit_kernel_integral": lambda ctx, x: unit_kernel_integral(ctx, x),
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
    "real": lambda ctx, x: NumericContext(2).real(x),
    "real.exact": lambda ctx, x: NumericContext(2, exact=True).real(x),
    "ialpha_eval.alpha": lambda ctx, x: ialpha_eval(Monomial(1), 2, x, ctx),
    "mc_ialpha_eval.alpha": lambda ctx, x: mc_ialpha_eval(Monomial(1), 0, x, 10**4, 1, ctx),
    "residual_scan.alpha": lambda ctx, x: residual_scan(
        "T3", LogPower(0.5, 2.0), 0, [4, 8], x, ctx),
}


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf, True), ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_non_finite_and_bool(entry, bad, ctx2):
    with pytest.raises(ParamOutOfRange):
        ENTRY_POINTS[entry](ctx2, bad)


# a numpy float and an mpf of another precision miss real's fast path by
# type; an mpf of the context's own 256 bits takes it
@pytest.mark.parametrize("bad", (
    np.float64("nan"), _mp_context(64).mpf("inf"),
    _mp_context(256).mpf("nan"), _mp_context(256).mpf("-inf"),
), ids=repr)
@pytest.mark.parametrize("entry", ["real", "real.exact"])
def test_real_rejects_non_finite_numpy_and_mpf(entry, bad, ctx2):
    with pytest.raises(ParamOutOfRange):
        ENTRY_POINTS[entry](ctx2, bad)


# integer parameters (orders, log powers, series lengths) are read as
# integers: a bool or a non-integer raises instead of being truncated
INTEGER_ENTRIES = {
    "lemma_L2.k": lambda ctx, n: lemma_decay_check(
        "L2", {"k": n, "beta": 0.0, "eps": 0.05, "alpha": 2.0}, [1, 2], ctx),
    "residual_scan.order": lambda ctx, n: residual_scan(
        "T3", LogPower(0.5, 2.0), n, [4, 8], 2.0, ctx),
    "predict_infinity.order": lambda ctx, n: predict_infinity(
        [1.0], 0.5, 2.0, n, 8, 2.0, ctx),
    "predict_origin.order": lambda ctx, n: predict_origin(
        [1.0, 1.0], [0.5, 1.0], n, -3, 2.0, ctx),
    "series_B.n_max": lambda ctx, n: series_B([1.0], 2.0, n, "omega", 2.0, ctx, beta=0.5),
    "omega.k": lambda ctx, n: omega(n, 2.0, 0.5, ctx),
    "omega_tilde.k": lambda ctx, n: omega_tilde(n, 2.0, ctx),
    "phi_sum.k": lambda ctx, n: phi_sum(n, 0.5, ctx),
    "gen_binomial.k": lambda ctx, n: gen_binomial(2.5, n, ctx),
    "smallball.k": lambda ctx, n: smallball_kernel_integral(n, 0.0, 1, 2.0, ctx),
}


@pytest.mark.parametrize("bad", (True, 1.7, 1.5, Fraction(3, 2), "1"), ids=repr)
@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRIES))
def test_integer_parameters_reject_bools_and_non_integers(entry, bad, ctx2):
    INTEGER_ENTRIES[entry](ctx2, 1)  # the integer itself is accepted
    with pytest.raises(ParamOutOfRange):
        INTEGER_ENTRIES[entry](ctx2, bad)


def test_precision_doubling_is_stable():
    # doubling the mantissa moves every closed form by < 2**(-bits/2) relative
    for p, alpha in [(2, 2.0), (3, 1.5), (5, 2.5)]:
        lo, hi = NumericContext(p, precision_bits=128), NumericContext(p, precision_bits=256)
        for fn in (
            lambda c: unit_kernel_integral(c, alpha),
            lambda c: prefactor(c, alpha),
        ):
            a, b = fn(lo), fn(hi)
            assert abs(float(a - b)) <= 2.0 ** (-64) * abs(float(b))


# ---------------------------------------------------------------------------
# p-power kernel: bit-identical to mpmath at the context's precision
# ---------------------------------------------------------------------------

KERNEL_PRIMES = (2, 3, 5, 7, 11)
KERNEL_PRECS = (64, 80, 256, 300, 1024)


def _kernel_exponents(prec: int, rng: random.Random) -> list:
    """0, ints, half-integers, dyadic and decimal floats, Fractions, foreign mpfs."""
    xs = [0, 1, -1, 2, -7, 40, -300, 10**5, -(10**5), 0.5, -0.5, 3.5, -7.5]
    xs += [rng.randrange(-2000, 2000) / 8 for _ in range(4)]  # dyadic
    xs += [0.1, -0.3, 1.7, -2.9, 1e-12, -1e-20]
    xs += [round(rng.uniform(-50, 50), 3) for _ in range(4)]  # decimal
    xs += [Fraction(1, 3), Fraction(-22, 7), Fraction(5, 2), Fraction(-10**30 - 1, 10**30)]
    with mp.workprec(3 * prec + 17):  # mpfs rounded at another precision
        xs += [mp.mpf(1) / 3, -mp.mpf(10) / 7, mp.mpf(2) ** -70 + 1, mp.mpf(rng.random()) * 30]
    with mp.workprec(53):
        xs += [mp.mpf(1) / 3, -mp.mpf(5) / 2]
    return xs


def _expm1_exponents(prec: int, p: int, rng: random.Random) -> list:
    """x with |x ln p| from 2**-(prec + 20) up to 40, both signs, and 0."""
    ks = {-(prec + 20), -(prec + 11), -(prec + 10), -(prec + 9), -1, 0, 4}
    ks.update(rng.sample(range(-(prec + 20), 5), 12))
    xs = [0, 1, -1, -3, 0.25, Fraction(-1, 3)]
    with mp.workprec(prec):
        top = 40 / mp.log(p)
        for k in sorted(ks):
            x = mp.ldexp(1 + mp.mpf(rng.random()), k)
            xs += [x, -x] if x < top else []
        xs += [top, -top]
    return xs


def _at_global_precisions(fn):
    """fn() at the default mp.prec, at 53 and at 2000 bits; asserts they agree."""
    saved = mp.prec
    try:
        got = fn()
        for prec in (53, 2000):
            mp.prec = prec
            assert fn() == got, prec
    finally:
        mp.prec = saved
    return got


@pytest.mark.parametrize("prec", KERNEL_PRECS)
@pytest.mark.parametrize("p", KERNEL_PRIMES)
class TestPowerKernel:
    def test_p_pow_matches_mp_power(self, p, prec):
        ctx = NumericContext(p, precision_bits=prec)
        for x in _kernel_exponents(prec, random.Random(p * 10007 + prec)):
            got = _at_global_precisions(lambda: ctx.p_pow(x)._mpf_)
            with mp.workprec(prec):
                assert got == mp.power(p, x)._mpf_, x

    def test_log_unit_and_rounding_eps_match_mpmath(self, p, prec):
        ctx = NumericContext(p, precision_bits=prec)
        log = _at_global_precisions(lambda: ctx.log_unit()._mpf_)
        eps = _at_global_precisions(lambda: ctx.rounding_eps()._mpf_)
        with mp.workprec(prec):
            assert log == mp.log(p)._mpf_
            assert eps == (mp.mpf(2) ** (6 - prec))._mpf_

    def test_one_minus_p_pow_matches_expm1(self, p, prec):
        ctx = NumericContext(p, precision_bits=prec)
        for x in _expm1_exponents(prec, p, random.Random(p * 7919 + prec)):
            got = _at_global_precisions(lambda: _one_minus_p_pow(ctx, x)._mpf_)
            with mp.workprec(prec):
                assert got == (-mp.expm1(x * mp.log(p)))._mpf_, x

    def test_real_and_general_power_match_mpmath(self, p, prec):
        ctx = NumericContext(p, precision_bits=prec)
        xs = _kernel_exponents(prec, random.Random(p * 31 + prec))
        for x in xs:
            got = _at_global_precisions(lambda: ctx.real(x)._mpf_)
            with mp.workprec(prec):
                assert got == mp.convert(x)._mpf_, x
        for base in (Fraction(p, 3), 0.7 * p, -p, 0):
            for x in xs[:13]:
                if base < 0 and x != int(x) or base == 0 and x < 0:
                    with pytest.raises(LogDomain):
                        general_power(ctx, base, x)
                    continue
                got = _at_global_precisions(lambda: general_power(ctx, base, x)._mpf_)
                with mp.workprec(prec):
                    assert got == mp.power(mp.convert(base), x)._mpf_, (base, x)


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
        with pytest.raises(TotalCancellation):
            padic_sub_abs(x, x)

    def test_exact_zero_operand(self):
        z = PadicApprox.exact_zero(5, 8)
        y = PadicApprox.from_int(25, 5)
        assert padic_sub_abs(z, y) == -2
        assert padic_sub_abs(y, z) == -2
        with pytest.raises(TotalCancellation):
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
        # the cell counts against the geometric valuation law over 10^6 samples
        j, _, counts = sample_kernel_exponents(ctx2, 0, 10**6, RandomStream(99))
        zeros = -j
        n = int(counts.sum())
        assert n == 10**6
        chi2 = 0.0
        for z in range(10):
            expected = n * 0.5 ** (z + 1)
            observed = int(counts[zeros == z].sum())
            chi2 += (observed - expected) ** 2 / expected
        tail = int(counts[zeros >= 10].sum())
        expected_tail = n * 0.5**10
        chi2 += (tail - expected_tail) ** 2 / expected_tail
        assert chi2 < 31.26  # chi-square 0.999 quantile, 10 degrees of freedom

    def test_mean_abs_matches_closed_form(self):
        # E|y| over the normalised ball p**n equals the ratio of power integrals
        ctx = NumericContext(3)
        j, _, counts = sample_kernel_exponents(ctx, 2, 400_000, RandomStream(5))
        draws = 3.0 ** j.astype(float)  # each drawn counts[i] times
        n = int(counts.sum())
        mean = float(counts @ draws) / n
        stderr = math.sqrt(float(counts @ (draws - mean) ** 2) / (n - 1) / n)
        # the integral of |y|**(a-1) over the ball p**n is
        # (1 - 1/p) p**(a n) / (1 - p**-a); E|y| is its ratio at a = 2 and a = 1
        p, n = 3.0, 2
        target = p ** (2 * n) / (1 - p**-2) / (p**n / (1 - p**-1))
        assert abs(mean - target) < 4 * stderr

    @pytest.mark.parametrize(
        "bad", [True, False, 1e6, 1.5e6 + 0.5, "1000000", ZERO, 0, -5, 2**63], ids=repr
    )
    def test_sample_count_must_be_a_positive_int64(self, ctx2, bad):
        with pytest.raises(ParamOutOfRange):
            sample_kernel_exponents(ctx2, 0, bad, RandomStream(1))

    def test_sample_count_accepts_numpy_integers(self, ctx2):
        _, _, counts = sample_kernel_exponents(ctx2, 0, np.int64(10**6), RandomStream(1))
        assert int(counts.sum()) == 10**6

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_no_per_draw_work(self, p):
        # the histogram costs O(log_p samples) cells, whatever the sample count
        ctx = NumericContext(p)
        j, e, counts = sample_kernel_exponents(ctx, 3, 10**12, RandomStream(60 + p))
        assert int(counts.sum()) == 10**12
        assert len(j) == len(e) == len(counts) <= 2 * math.log(10**12, p) + 40
        tracemalloc.start()
        try:
            sample_kernel_exponents(ctx, 3, 10**6, RandomStream(70 + p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("p, seed, j, e, counts", [
        (2, 2026,
         [1] * 17 + [0, -1, -2, -3, -4, -5, -6, -7, -8, -9, -10, -11, -12],
         [-15, -14, -13, -12, -11, -10, -9, -8, -7, -6, -5, -4, -3, -2, -1, 0]
         + [1] * 14,
         [1, 0, 0, 1, 0, 3, 4, 9, 13, 26, 69, 161, 322, 657, 1235, 2542, 0,
          2500, 1198, 621, 308, 174, 63, 46, 21, 13, 7, 2, 3, 1]),
        (3, 2027,
         [1] * 11 + [0, -1, -2, -3, -4, -5, -6, -7],
         [-9, -8, -7, -6, -5, -4, -3, -2, -1, 0] + [1] * 9,
         [1, 0, 1, 0, 16, 24, 95, 231, 756, 2263, 3318, 2192, 711, 276, 71, 33,
          7, 2, 3]),
        (5, 2028,
         [1] * 6 + [0, -1, -2, -3, -4, -5],
         [-4, -3, -2, -1, 0] + [1] * 7,
         [1, 16, 74, 318, 1593, 6004, 1614, 307, 62, 10, 0, 1]),
    ])
    def test_random_stream_use_is_pinned(self, p, seed, j, e, counts):
        # a change in how the sampler consumes its stream must edit these
        # literals: it reshuffles every seeded Monte Carlo estimate
        got = sample_kernel_exponents(NumericContext(p), 1, 10**4, RandomStream(seed))
        assert [a.tolist() for a in got] == [j, e, counts]

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
        # a child is not its parent: the first child draws its own sequence
        child, parent = RandomStream(42).split(2)[0], RandomStream(42)
        assert list(child.generator.integers(0, 100, 5)) != list(
            parent.generator.integers(0, 100, 5)
        )


# ---------------------------------------------------------------------------
# Depth law against literal digits
# ---------------------------------------------------------------------------

def _chi2_999(df: int) -> float:
    """0.999 quantile of chi-square with df degrees (Wilson-Hilferty)."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + 3.0902 * math.sqrt(h)) ** 3


def _cells(j, e, cut):
    """Cell e - j of each draw, |e - j| > cut pooled into the two end cells.

    By ultrametricity e = n or j = n, so e - j fixes the pair (j, e).
    """
    d = np.asarray(e, dtype=np.int64) - np.asarray(j, dtype=np.int64)
    return np.clip(d, -cut, cut) + cut


def _depth_law(p, cut):
    """Cell probabilities of the closed-form (j, e) law, as in _cells."""
    probs = [(1 - 1 / p) * float(p) ** -abs(d) for d in range(-cut, cut + 1)]
    probs[cut] = (p - 2) / p
    probs[0] = probs[-1] = float(p) ** -cut  # P(depth >= cut)
    return np.array(probs)


class TestDepthLaw:
    @pytest.mark.parametrize("p, n, rep, seed", [
        (2, 0, (1,), 31),
        (3, 2, (2, 0, 1), 32),
        (5, -1, (3,), 33),
        (5, 1, (1, 4, 4, 0, 2), 34),
    ])
    def test_sampler_matches_digit_oracle(self, p, n, rep, seed):
        # two-sample chi-square over the (j, e) cells: literal Haar digits
        # subtracted from the representative against the depth-law sampler
        ctx = NumericContext(p)
        width = 24
        x = PadicApprox(p, -n, rep + (0,) * (width - len(rep)))
        stream = RandomStream(seed)
        ys = [haar_sample_ball(ctx, n, width, stream) for _ in range(20_000)]
        oj = [y.abs_exponent for y in ys]
        oe = [padic_sub_abs(x, y) for y in ys]
        j, e, counts = sample_kernel_exponents(ctx, n, 10**6, RandomStream(seed + 100))
        assert j.max() <= n and e.max() <= n
        # pool the cells the oracle expects fewer than 5 draws in
        cut = int(math.log(20_000 * (1 - 1 / p) / 5, p))
        a = np.bincount(_cells(oj, oe, cut), minlength=2 * cut + 1)
        b = np.bincount(_cells(j, e, cut), weights=counts, minlength=2 * cut + 1)
        keep = (a + b) > 0
        a, b = a[keep], b[keep]
        n1, n2 = a.sum(), b.sum()
        chi2 = float(
            ((math.sqrt(n2 / n1) * a - math.sqrt(n1 / n2) * b) ** 2 / (a + b)).sum()
        )
        assert chi2 < _chi2_999(keep.sum() - 1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_sampler_matches_closed_form(self, p):
        # the documented law itself, over 10^6 draws
        cut = {2: 14, 3: 9, 5: 6}[p]
        j, e, counts = sample_kernel_exponents(NumericContext(p), 4, 10**6, RandomStream(40 + p))
        observed = np.bincount(_cells(j, e, cut), weights=counts, minlength=2 * cut + 1)
        expected = 10**6 * _depth_law(p, cut)
        keep = expected > 0
        chi2 = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
        assert observed[~keep].sum() == 0
        assert chi2 < _chi2_999(keep.sum() - 1)


def test_exact_zero_repr_and_int_roundtrip():
    z = PadicApprox.exact_zero(3, 8)
    assert z.is_zero
    assert repr(EXACT_ZERO) == "EXACT_ZERO"
    x = PadicApprox.from_int(18, 3, 8)  # 18 = 2 * 3**2
    assert x.valuation == 2
    assert x.digits[0] == 2
