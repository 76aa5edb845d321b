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
    predict_infinity,
    predict_infinity_beta1,
    predict_origin,
    prefactor,
    ratio_bound_check,
    residual_scan,
    smallball_kernel_integral,
)
from padic_ialpha import asymptotics, core, radial, series


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

    def test_exact_mode_needs_no_log_base(self, exact2):
        # the origin expansion carries no log powers, so the natural-log
        # convention (irrational in exact mode) is never asked for
        rep = residual_scan("T1", Monomial(1), 0, [-8, -4], 2, exact2)
        assert all(r.abs_err == 0 for r in rep.rows)

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

    def test_combination_judged_by_its_runs(self, ctx2):
        # judged by its runs, not its coefficients: this one is 0.5 on
        # |y| <= 1 and 2**(-2j) outside
        f = LinearCombo(((1.0, LogPower(2.0, 0.0)), (-0.5, Indicator(0))))
        c, d, rows = ratio_bound_check(f, range(5, 21, 5), 2.0, ctx2)
        assert 0 < c <= d < math.inf
        with pytest.raises(HypothesisMismatch):
            ratio_bound_check(
                LinearCombo(((1.0, LogPower(2.0, 0.0)), (-1.0, Indicator(0)))),
                [5], 2.0, ctx2,
            )

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

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_smallball_rows_share_one_kernel_table(self, ctx3, monkeypatch, k):
        # each row is the small-ball integral at its rung, bit for bit; the
        # rungs read the kernels of one table, formed once per rate
        params = {"k": k, "beta": 0.25, "eps": 0.1, "alpha": 1.7}
        ladder = range(1, 15)
        want = [
            (R, float(smallball_kernel_integral(k, 0.25, R, 1.7, ctx3)
                      * ctx3.p_pow((1 - ctx3.real(0.25) - ctx3.real(0.1)) * R)))
            for R in ladder
        ]
        formed, rate_kernel = [], series._rate_kernel

        def counted(ctx, m, rate):
            formed.append((m, rate))
            return rate_kernel(ctx, m, rate)

        monkeypatch.setattr(radial, "_rate_kernel", counted)
        assert lemma_decay_check("L2", params, ladder, ctx3) == want
        assert len(formed) == 2

    def test_param_validation(self, ctx2):
        with pytest.raises(ParamOutOfRange):
            lemma_decay_check("L1", {"lam": 0.5, "lam_prime": 0.4}, [10], ctx2)
        with pytest.raises(ParamOutOfRange):
            lemma_decay_check("L2", {"k": 0, "beta": 0.9, "eps": 0.2, "alpha": 2.0},
                              [1], ctx2)
        with pytest.raises(ParamOutOfRange):
            lemma_decay_check("L9", {}, [1], ctx2)


class TestBuildOnce:
    """A scan builds its expansion once and evaluates it on every rung."""

    def count_calls(self, monkeypatch, name):
        calls = []
        original = getattr(asymptotics, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(asymptotics, name, counted)
        return calls

    @pytest.mark.parametrize("theorem, f, ladder", [
        ("T3", LogPower(0.5, 2.0), range(12, 61, 4)),
        ("T4", LogPower(1.0, 2.0), range(4, 41, 4)),
    ])
    def test_one_series_B_call_per_scan(self, monkeypatch, ctx2, theorem, f, ladder):
        # a scan forms B through series_B's core, with its operator's table
        calls = self.count_calls(monkeypatch, "_series_B")
        residual_scan(theorem, f, 2, ladder, 2.0, ctx2)
        assert len(calls) == 1

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_one_b_coefficient_call_per_origin_term(self, monkeypatch, ctx2, order):
        # a scan forms each b(M) through b_coefficient's core, with its operator
        calls = self.count_calls(monkeypatch, "_b")
        f = alternating_ratio_table(ctx2)
        coeffs = [(-1.0) ** n for n in range(5)]
        scales = [float(n + 1) for n in range(5)]
        residual_scan("T1", f, order, range(-24, -5, 2), 2.0, ctx2,
                      coeffs=coeffs, scales=scales)
        assert len(calls) == order + 1

    def test_scan_rows_match_the_per_radius_predictors(self, ctx3):
        alpha = 1.7
        rep = residual_scan("T1", Monomial(0.3), 0, [-30, -12, -5], alpha, ctx3)
        for r in rep.rows:
            want = predict_origin(rep.params["coeffs"], rep.params["scales"], 0,
                                  r.x_exp, alpha, ctx3)
            assert r.predicted == float(want)
        rep = residual_scan("T3", LogPower(0.3, 1.7), 2, [4, 9, 20], alpha, ctx3)
        for r in rep.rows:
            want = predict_infinity([1], 0.3, 1.7, 2, r.x_exp, alpha, ctx3)
            assert r.predicted == float(want)
        f = LogPower(1.0, 1.7)
        for printed in (False, True):
            rep = residual_scan("T4", f, 1, [4, 9, 20], alpha, ctx3,
                                printed_form=printed)
            for r in rep.rows:
                want = predict_infinity_beta1([1], 1.7, 1, r.x_exp, f, alpha, ctx3,
                                              printed_form=printed)
                assert r.predicted == float(want)


class TestOneOperatorPerScan:
    """A scan evaluates one operator at every rung, as ialpha_eval would."""

    @pytest.mark.parametrize("theorem, f, order, ladder, printed", [
        ("T1", LinearCombo(((1.0, Monomial(0.3)), (-2.0, Monomial(1.5)))), 1,
         [-30, -12, -5], False),
        ("T3", LogPower(0.3, 1.7), 2, [4, 9, 20], False),
        ("T3", LinearCombo(((1.0, LogPower(0.5, 2.0)), (0.5, LogPower(0.5, 1.0)))),
         1, [12, 16, 40], False),
        ("T4", LogPower(1.0, 2.0), 1, [4, 9, 20], False),
        ("T4", LogPower(1.0, 1.7), 1, [4, 9, 20], True),
    ])
    def test_rows_match_per_radius_calls(self, ctx3, theorem, f, order, ladder,
                                         printed):
        alpha = 1.7
        rep = residual_scan(theorem, f, order, ladder, alpha, ctx3,
                            printed_form=printed)
        params = rep.params
        for r in rep.rows:
            x = r.x_exp
            if theorem == "T1":
                want = predict_origin(params["coeffs"], params["scales"], order, x,
                                      alpha, ctx3)
            elif theorem == "T3":
                want = predict_infinity(params["coeffs"], params["beta"],
                                        params["gamma"], order, x, alpha, ctx3)
            else:
                want = predict_infinity_beta1(params["coeffs"], params["gamma"], order,
                                              x, f, alpha, ctx3, printed_form=printed)
            value = ialpha_eval(f, x, alpha, ctx3).value
            with ctx3.workprec():
                err = abs(value - want)
            got = (r.computed, r.predicted, r.abs_err)
            assert repr(got) == repr((float(value), float(want), float(err)))

    def test_ratio_rows_match_per_radius_calls(self, ctx2):
        f, alpha = LogPower(2.0, 0.0), 1.7
        _, _, rows = ratio_bound_check(f, [3, 9, 27], alpha, ctx2)
        want = []
        with ctx2.workprec():
            a1 = ctx2.real(alpha) - 1
            for x in (3, 9, 27):
                value = ialpha_eval(f, x, alpha, ctx2).value
                want.append((x, float(abs(value) / ctx2.p_pow(a1 * x))))
        assert repr(rows) == repr(want)

    def test_radius_free_work_is_done_once(self, monkeypatch, ctx2):
        counts = {"C": 0, "U": 0}
        kernels = []

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        def rate_kernel(ctx, m, rate):
            kernels.append((m, rate))
            return original(ctx, m, rate)

        original = radial._rate_kernel
        # the operator forms C and U, and the expansion reads them
        prefactor_C = counted("C", core._prefactor)
        for module in (core, radial):
            monkeypatch.setattr(module, "_prefactor", prefactor_C)
        monkeypatch.setattr(radial, "_unit", counted("U", core._unit))
        monkeypatch.setattr(radial, "_rate_kernel", rate_kernel)
        for ladder in ([12, 16, 20], [12, 14, 16, 18, 20, 24]):
            counts.update(C=0, U=0)
            kernels.clear()
            residual_scan("T3", LogPower(0.5, 2.0), 0, ladder, 2.0, ctx2)
            # once for the operator and its expansion, whatever the rungs
            assert counts == {"C": 1, "U": 1}
            # the closed form of (jL)**2 p**(j/2) at the rates 1/2 and 1/2 + alpha - 1
            assert sorted(kernels) == [(2, 0.5), (2, 1.5)]
        # an origin-side scan's expansion reads its operator's C too
        counts.update(C=0, U=0)
        f = LinearCombo(((1.0, Monomial(0.3)), (-2.0, Monomial(1.5))))
        residual_scan("T1", f, 1, [-30, -12, -5], 2.0, ctx2)
        assert counts == {"C": 1, "U": 1}


def working_powers(monkeypatch, ctx) -> list:
    """The exponent of every power of p formed at ctx's precision, as raw values."""
    formed, p_pow = [], core.NumericContext.p_pow

    def counted(self, exponent):
        if self.precision_bits == ctx.precision_bits:
            formed.append(core._raw(exponent, self.precision_bits))
        return p_pow(self, exponent)

    monkeypatch.setattr(core.NumericContext, "p_pow", counted)
    return formed


def counted_calls(monkeypatch, name, *modules) -> list:
    """The arguments of every call of name, through each module's binding."""
    calls = []
    for module in modules:
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, f=original: calls.append(args) or f(*args))
    return calls


SCANS = [
    *[("T3", LogPower(0.5, 2.0), order, False) for order in (0, 1, 2)],
    *[("T4", LogPower(1.0, 0.0), 0, printed) for printed in (False, True)],
    *[("T4", LogPower(1.0, 1.0), order, printed)
      for order in (0, 1) for printed in (False, True)],
    # no closed form: the walk reads its powers of p from the scan's table
    ("T3", LogPower(0.3, 1.5), 0, False),
]
LADDERS = {"T3": range(12, 41, 4), "T4": range(8, 41, 4)}


class TestOneTablePerScan:
    """A scan's operator and expansion share one table of p-powers and kernels."""

    @pytest.mark.parametrize("alpha", [1.7, 2.0])
    @pytest.mark.parametrize("theorem, f, order, printed", SCANS)
    def test_no_exponent_is_formed_twice(self, monkeypatch, ctx2, theorem, f, order,
                                         printed, alpha):
        formed = working_powers(monkeypatch, ctx2)
        residual_scan(theorem, f, order, LADDERS[theorem], alpha, ctx2,
                      printed_form=printed)
        assert formed and len(formed) == len(set(formed))

    def test_ratio_check_forms_no_exponent_twice(self, monkeypatch, ctx2):
        formed = working_powers(monkeypatch, ctx2)
        ratio_bound_check(LogPower(2.0, 0.0), [3, 9, 27], 1.7, ctx2)
        assert formed and len(formed) == len(set(formed))

    @pytest.mark.parametrize("theorem, f, order, printed", SCANS)
    def test_each_kernel_is_formed_once(self, monkeypatch, ctx2, theorem, f, order,
                                        printed):
        formed = counted_calls(monkeypatch, "_rate_kernel", radial)
        residual_scan(theorem, f, order, LADDERS[theorem], 1.7, ctx2,
                      printed_form=printed)
        keys = [(m, rate) for _, m, rate in formed]
        assert keys and len(keys) == len(set(keys))

    @pytest.mark.parametrize("theorem, f, order, printed", SCANS)
    def test_expansion_forms_no_phi_sum_of_its_own(self, monkeypatch, ctx2, theorem,
                                                   f, order, printed):
        # order <= gamma: the operator's entry for (gamma, rate) holds each Phi_k
        calls = counted_calls(monkeypatch, "phi_sum", series, asymptotics)
        residual_scan(theorem, f, order, LADDERS[theorem], 1.7, ctx2,
                      printed_form=printed)
        scan = len(calls)
        calls.clear()
        op = radial._Operator(1.7, ctx2)
        for x in LADDERS[theorem]:
            op.at(f, x)
        assert scan == len(calls)


def test_reports_sorted_by_exponent(ctx2):
    rep = residual_scan("T3", LogPower(0.5, 2.0), 0, [12, 4, 8], 2.0, ctx2)
    xs = [r.x_exp for r in rep.rows]
    assert xs == sorted(xs)
