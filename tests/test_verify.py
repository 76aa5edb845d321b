"""Residual scans, two-sided bounds and decay checks."""

import math

import pytest
from mpmath import mp

from padic_ialpha import (
    HypothesisMismatch,
    Indicator,
    LinearCombo,
    LogPower,
    Monomial,
    NumericContext,
    ParamOutOfRange,
    PowerTail,
    Table,
    ialpha_eval,
    lemma_decay_check,
    prefactor,
    ratio_bound_check,
    residual_scan,
)


def alternating_ratio_table(ctx, j_lo=-60, j_hi=0):
    """f(x) = |x| / (1 + |x|), tabulated at working precision.

    Near the origin this expands as the alternating power series
    sum_n (-1)**n |x|**(n+1).
    """
    with ctx.workprec():
        values = {
            j: mp.mpf(ctx.prime) ** j / (1 + mp.mpf(ctx.prime) ** j)
            for j in range(j_lo, j_hi + 1)
        }
    return Table.from_values(values, PowerTail(1.0, 1.0))


def fit_slope(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    return sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / sum(
        (a - mx) ** 2 for a in xs
    )


class TestOriginScan:
    def test_tabulated_alternating_profile(self, ctx2):
        f = alternating_ratio_table(ctx2)
        coeffs = [(-1.0) ** n for n in range(5)]
        scales = [float(n + 1) for n in range(5)]
        ladder = range(-24, -5, 2)
        previous = None
        for order in (0, 1, 2):
            rep = residual_scan(
                "T1", f, order, ladder, 2.0, ctx2, coeffs=coeffs, scales=scales
            )
            worst = max(r.normalized_err for r in rep.rows)
            assert worst <= 5.0
            errs = {r.x_exp: r.abs_err for r in rep.rows}
            if previous is not None:
                assert all(errs[x] < previous[x] for x in errs)
            previous = errs

    def test_exact_for_finite_monomial_sums(self, ctx2):
        f = LinearCombo(((1.0, Monomial(1.0)), (-0.5, Monomial(2.0))))
        rep = residual_scan("T1", f, 1, [-10, -6, -4], 2.0, ctx2)
        for row in rep.rows:
            ov = ialpha_eval(f, row.x_exp, 2.0, ctx2)
            assert row.abs_err <= float(ov.truncation_bound) + 1e-60

    def test_float_parameters_keep_an_exact_expansion_exact(self, ctx2):
        # the expansion of a pure power is exact; exponents such as
        # next_scale + alpha rounded in float64 made this 2.2e-4 at x = -40
        rep = residual_scan("T1", Monomial(0.3), 0, [-40, -28, -16, -4], 2.1, ctx2)
        assert max(r.normalized_err for r in rep.rows) <= 1e-50

    def test_zero_profile_rows_vanish(self, ctx2):
        rep = residual_scan(
            "T1",
            LinearCombo(()),
            0,
            [-8, -4],
            2.0,
            ctx2,
            coeffs=[0.0],
            scales=[1.0],
        )
        for row in rep.rows:
            assert row.computed == row.predicted == row.abs_err == 0.0

    def test_regime_enforced(self, ctx2):
        with pytest.raises(HypothesisMismatch):
            residual_scan("T1", Monomial(1.0), 0, [4, 8], 2.0, ctx2)

    def test_missing_expansion_rejected(self, ctx2):
        with pytest.raises(HypothesisMismatch):
            residual_scan("T1", alternating_ratio_table(ctx2), 0, [-8], 2.0, ctx2)


class TestInfinityScan:
    def test_order_improves_truncation(self, ctx2):
        f = LogPower(0.5, 2.0)
        r0 = residual_scan("T3", f, 0, [30], 2.0, ctx2)
        r2 = residual_scan("T3", f, 2, [30], 2.0, ctx2)
        assert r2.rows[0].abs_err < r0.rows[0].abs_err

    def test_slope_tracks_order_for_nonterminating_gamma(self, ctx2):
        # non-integer gamma keeps every expansion coefficient alive, so the
        # residual decays like the first omitted log power at each order
        f = LogPower(0.5, 2.5)
        ladder = list(range(12, 61, 4))
        for order in (0, 1, 2):
            rep = residual_scan("T3", f, order, ladder, 2.0, ctx2)
            xs = [math.log(r.x_exp) for r in rep.rows]
            ys = [
                math.log(r.abs_err / float(ctx2.p_pow(1.5 * r.x_exp)))
                for r in rep.rows
            ]
            slope = fit_slope(xs, ys)
            assert abs(slope - (2.5 - order - 1)) < 0.3

    def test_declared_expansion_is_used(self, ctx2):
        f = LogPower(0.5, 2.0)
        rep = residual_scan("T3", f, 0, [8, 12], 2.0, ctx2)
        assert rep.params["beta"] == 0.5
        assert rep.params["gamma"] == 2.0
        assert rep.params["coeffs"] == [1.0]

    def test_regime_enforced(self, ctx2):
        with pytest.raises(HypothesisMismatch):
            residual_scan("T3", LogPower(0.5, 2.0), 0, [1, 4], 2.0, ctx2)

    def test_beta_must_be_subcritical(self, ctx2):
        with pytest.raises(HypothesisMismatch):
            residual_scan("T3", LogPower(1.0, 0.0), 0, [4, 8], 2.0, ctx2)


class TestCriticalScan:
    def test_recentred_form_keeps_residuals_bounded(self, ctx2):
        f = LogPower(1.0, 0.0)
        rep = residual_scan("T4", f, 0, range(4, 41, 4), 2.0, ctx2)
        assert max(r.normalized_err for r in rep.rows) <= 5.0

    def test_printed_form_residuals_blow_up_geometrically(self, ctx2):
        # the printed variant omits the radius power on the log sum; its
        # residual grows by at least p**(alpha-1) per ladder step
        alpha = 2.0
        f = LogPower(1.0, 0.0)
        rep = residual_scan(
            "T4", f, 0, range(4, 41, 4), alpha, ctx2, printed_form=True
        )
        errs = [r.normalized_err for r in rep.rows]
        for a, b in zip(errs, errs[1:]):
            assert b >= a * 2.0 ** (alpha - 1)

    def test_gap_between_forms_is_the_power_factor(self, ctx2):
        # proof-vs-printed disagreement diverges like the radius power
        f = LogPower(1.0, 0.0)
        proof = residual_scan("T4", f, 0, [8, 16], 2.0, ctx2)
        printed = residual_scan("T4", f, 0, [8, 16], 2.0, ctx2, printed_form=True)
        for a, b in zip(proof.rows, printed.rows):
            assert b.abs_err > a.abs_err * 10

    def test_outer_beta_must_be_one(self, ctx2):
        with pytest.raises(HypothesisMismatch):
            residual_scan("T4", LogPower(0.5, 0.0), 0, [4, 8], 2.0, ctx2)


class TestRatioBound:
    def test_bounded_spread(self):
        for p in (2, 3):
            ctx = NumericContext(p)
            for alpha in (1.5, 2.0):
                c, d, rows = ratio_bound_check(
                    LogPower(2.0, 0.0), range(5, 31), alpha, ctx
                )
                assert 0 < c <= d < math.inf
                assert d / c < 10

    def test_indicator_limit(self, ctx2):
        # once the profile support is exhausted the ratio settles at |C|
        c, d, rows = ratio_bound_check(Indicator(0), range(10, 31, 5), 2.0, ctx2)
        limit = abs(float(prefactor(ctx2, 2.0)))
        for _, ratio in rows:
            assert ratio == pytest.approx(limit, rel=1e-3)

    def test_singleton_ladder(self, ctx2):
        c, d, rows = ratio_bound_check(Indicator(0), [7], 2.0, ctx2)
        assert c == d == rows[0][1]

    def test_positive_scaling_invariance(self, ctx2):
        base = LogPower(2.0, 0.0)
        scaled = LinearCombo(((5.0, base),))
        c1, d1, rows1 = ratio_bound_check(base, range(5, 21, 5), 2.0, ctx2)
        c5, d5, rows5 = ratio_bound_check(scaled, range(5, 21, 5), 2.0, ctx2)
        assert c5 == pytest.approx(5 * c1, rel=1e-12)
        assert d5 == pytest.approx(5 * d1, rel=1e-12)
        assert d5 / c5 == pytest.approx(d1 / c1, rel=1e-12)

    def test_hypothesis_mismatches(self, ctx2):
        with pytest.raises(HypothesisMismatch):
            ratio_bound_check(LogPower(0.5, 0.0), [5, 10], 2.0, ctx2)  # slow decay
        with pytest.raises(HypothesisMismatch):
            ratio_bound_check(LogPower(2.0, 1.0), [5, 10], 2.0, ctx2)  # zero near 0
        with pytest.raises(HypothesisMismatch):
            ratio_bound_check(Monomial(1.0), [5, 10], 2.0, ctx2)  # vanishes at 0


class TestLemmaDecay:
    def test_cumulative_decay_rows_decrease(self, ctx2):
        rows = lemma_decay_check(
            "L1", {"lam": 0.5, "lam_prime": 0.7}, range(10, 41), ctx2
        )
        vals = [v for _, v in rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[0]

    def test_zero_profile_rows_vanish(self, ctx2):
        rows = lemma_decay_check(
            "L1",
            {"lam": 0.5, "lam_prime": 0.7, "f": LinearCombo(())},
            range(10, 15),
            ctx2,
        )
        assert all(v == 0.0 for _, v in rows)

    def test_smallball_rows_bounded(self, ctx2):
        rows = lemma_decay_check(
            "L2", {"k": 0, "beta": 0.0, "eps": 0.05, "alpha": 2.0},
            range(1, 31), ctx2,
        )
        vals = [v for _, v in rows]
        assert max(vals) / min(vals) < 5

    def test_smallball_rows_bounded_with_logs(self, ctx2):
        rows = lemma_decay_check(
            "L2", {"k": 2, "beta": 0.5, "eps": 0.2, "alpha": 2.0},
            range(1, 31), ctx2,
        )
        vals = [v for _, v in rows]
        assert max(vals) / min(vals) < 5

    def test_param_validation(self, ctx2):
        with pytest.raises(ParamOutOfRange):
            lemma_decay_check("L1", {"lam": 0.5, "lam_prime": 0.4}, [10], ctx2)
        with pytest.raises(ParamOutOfRange):
            lemma_decay_check("L2", {"k": 0, "beta": 0.9, "eps": 0.2, "alpha": 2.0},
                              [1], ctx2)
        with pytest.raises(ParamOutOfRange):
            lemma_decay_check("L9", {}, [1], ctx2)


def test_reports_sorted_by_exponent(ctx2):
    rep = residual_scan("T3", LogPower(0.5, 2.0), 0, [12, 4, 8], 2.0, ctx2)
    xs = [r.x_exp for r in rep.rows]
    assert xs == sorted(xs)
