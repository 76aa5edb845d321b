"""Command-line interface: schemas, determinism, table round trips, exit codes."""

import json

import pytest

from padic_ialpha import (
    MissingTail,
    NumericContext,
    ParseError,
    PowerTail,
    Table,
    b_coefficient,
    prefactor,
)
from padic_ialpha.cli import dump_table, load_table, run


def run_capture(capsys, argv):
    status = run(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


class TestConstants:
    def test_csv_schema_and_symmetry_zero(self, capsys):
        status, out, err = run_capture(
            capsys, ["constants", "--p", "2", "--alpha", "2", "--beta", "0",
                     "--kmax", "2"]
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1] == "name,k,value"
        rows = {tuple(l.split(",")[:2]): l.split(",")[2] for l in lines[2:]}
        assert float(rows[("C", "")]) == -0.75
        assert float(rows[("U", "")]) == pytest.approx(1 / 6)
        assert abs(float(rows[("Omega", "0")])) < 1e-20
        assert abs(float(rows[("b", "0")])) < 1e-20
        names = [l.split(",")[0] for l in lines[2:]]
        assert names == ["C", "U", "b", "Omega", "Omega", "Omega",
                         "OmegaTilde", "OmegaTilde", "OmegaTilde"]

    def test_json_format(self, capsys):
        status, out, _ = run_capture(
            capsys, ["constants", "--p", "2", "--alpha", "2", "--format", "json"]
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["config"]["p"] == 2
        assert payload["config"]["seed"] == 20250801
        assert payload["config"]["precision_bits"] == 256
        assert any(r["name"] == "OmegaTilde" for r in payload["rows"])


class TestEval:
    def test_monomial_ladder_matches_closed_form(self, capsys):
        status, out, _ = run_capture(
            capsys,
            ["eval", "--p", "2", "--alpha", "2", "--monomial", "1",
             "--ladder", "-4:4:4"],
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[1] == "x_exp,value,truncation_bound"
        ctx = NumericContext(2)
        C = prefactor(ctx, 2.0)
        b1 = b_coefficient(1.0, 2.0, ctx)
        for line in lines[2:]:
            x, value, bound = line.split(",")
            with ctx.workprec():
                want = float(C * b1 * ctx.p_pow(int(x) * 3))
            assert float(value) == pytest.approx(want, rel=1e-12)
            assert float(bound) < 1e-12 * abs(want)

    def test_mc_reruns_are_byte_identical(self, capsys):
        argv = ["mc", "--p", "2", "--alpha", "2", "--monomial", "1",
                "--ladder", "0:1:1", "--samples", "20000", "--seed", "9"]
        status1, out1, _ = run_capture(capsys, argv)
        status2, out2, _ = run_capture(capsys, argv)
        assert status1 == status2 == 0
        assert out1 == out2

    def test_byte_identical_reruns(self, capsys):
        argv = ["eval", "--p", "3", "--alpha", "1.5", "--monomial", "0.5",
                "--ladder", "-3:3:3"]
        _, out1, _ = run_capture(capsys, argv)
        _, out2, _ = run_capture(capsys, argv)
        assert out1 == out2


class TestTableFormat:
    def make_table(self):
        return Table.from_values(
            {-1: 0.25, 0: 0.5, 1: 0.125},
            PowerTail(1.0, 1.0),
        )

    def test_round_trip(self, tmp_path, ctx2):
        path = tmp_path / "profile.tab"
        original = self.make_table()
        dump_table(original, str(path), ctx2, [-1, 1])
        loaded = load_table(str(path), expected_prime=2)
        assert loaded == original

    def test_cli_dump_then_reload(self, tmp_path, capsys):
        path = tmp_path / "dumped.tab"
        status, _, _ = run_capture(
            capsys,
            ["eval", "--p", "2", "--alpha", "2", "--monomial", "1",
             "--ladder", "-3:3:1", "--dump-table", str(path)],
        )
        assert status == 0
        loaded = load_table(str(path), expected_prime=2)
        assert loaded.inner_tail == PowerTail(1.0, 1.0)
        assert loaded.j_lo == -3 and loaded.j_hi == 3
        assert loaded.values[loaded.j_hi - loaded.j_lo] == 8.0

    def test_minimal_valid_file(self, tmp_path):
        path = tmp_path / "ok.tab"
        path.write_text(
            "#padic-radial v1\n"
            '{"p": 2, "inner_tail": {"kind": "power", "a": 1.0, "M": 1.0}}\n'
            "-1,0.5\n"
            "0,1.0\n"
        )
        tab = load_table(str(path))
        assert tab.j_lo == -1 and tab.j_hi == 0

    def test_outer_tail_preamble(self, tmp_path):
        path = tmp_path / "outer.tab"
        path.write_text(
            "#padic-radial v1\n"
            '{"p": 2, "inner_tail": {"kind": "power", "a": 1.0, "M": 1.0}, '
            '"outer_tail": {"beta": 0.5, "gamma": 2.0, "coeffs": [1.0]}}\n'
            "0,1.0\n"
        )
        tab = load_table(str(path))
        assert tab.outer_tail.beta == 0.5

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tab"
        path.write_text("#wrong\n{}\n0,1\n")
        with pytest.raises(ParseError) as exc:
            load_table(str(path))
        assert exc.value.line == 1

    def test_duplicate_exponent(self, tmp_path):
        path = tmp_path / "dup.tab"
        path.write_text(
            "#padic-radial v1\n"
            '{"p": 2, "inner_tail": {"kind": "zero"}}\n'
            "0,1.0\n"
            "0,2.0\n"
        )
        with pytest.raises(ParseError) as exc:
            load_table(str(path))
        assert exc.value.line == 4

    def test_missing_inner_tail(self, tmp_path):
        path = tmp_path / "notail.tab"
        path.write_text('#padic-radial v1\n{"p": 2}\n0,1.0\n')
        with pytest.raises(MissingTail):
            load_table(str(path))


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        status, _, _ = run_capture(capsys, ["constants", "--p", "2",
                                            "--alpha", "2", "--bogus", "1"])
        assert status == 2

    def test_missing_required_flag(self, capsys):
        status, _, _ = run_capture(capsys, ["constants", "--p", "2"])
        assert status == 2

    def test_composite_prime_rejected(self, capsys):
        status, _, err = run_capture(capsys, ["constants", "--p", "4",
                                              "--alpha", "2"])
        assert status == 2
        assert "prime" in err

    def test_alpha_out_of_range(self, capsys):
        status, _, _ = run_capture(capsys, ["constants", "--p", "2",
                                            "--alpha", "1.0"])
        assert status == 2

    def test_non_finite_alpha_rejected(self, capsys):
        for alpha in ("nan", "inf"):
            for argv in (["eval", "--monomial", "1", "--ladder", "0:2:1"],
                         ["constants"]):
                status, out, err = run_capture(
                    capsys, [*argv, "--p", "2", "--alpha", alpha]
                )
                assert status == 2
                assert out == ""
                assert "finite" in err

    def test_non_finite_profile_rejected(self, capsys):
        status, out, _ = run_capture(
            capsys, ["eval", "--p", "2", "--alpha", "2", "--monomial", "nan",
                     "--ladder", "0:2:1"],
        )
        assert status == 2
        assert out == ""

    def test_non_finite_lemma_alpha_rejected(self, capsys):
        for alpha in ("nan", "inf"):
            status, out, err = run_capture(
                capsys, ["lemmas", "--p", "2", "--which", "L2", "--alpha", alpha]
            )
            assert status == 2
            assert out == ""
            assert "finite" in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("argv,column", [
        (["eval", "--monomial", "1", "--ladder", "300:600:300"], "value"),
        (["mc", "--indicator", "0", "--ladder", "400:400:1", "--samples", "10000"],
         "estimate"),
    ], ids=["eval", "mc"])
    def test_unprintable_values_exit_three(self, capsys, argv, column):
        # at N = 300..600 and alpha = 3 the values overflow a double: nothing
        # is printed, and the error names the column and the radius
        status, out, err = run_capture(capsys, [*argv, "--p", "2", "--alpha", "3"])
        assert status == 3
        assert out == ""
        assert "numeric error" in err
        assert column in err and "x_exp=" in err

    def test_bad_table_file(self, tmp_path, capsys):
        path = tmp_path / "bad.tab"
        path.write_text("#nope\n")
        status, _, err = run_capture(
            capsys,
            ["eval", "--p", "2", "--alpha", "2", "--table", str(path),
             "--ladder", "0:1:1"],
        )
        assert status == 2

    def test_success(self, capsys):
        status, _, _ = run_capture(capsys, ["lemmas", "--p", "2", "--which", "L1",
                                            "--ladder", "10:14:1"])
        assert status == 0

    def test_numeric_error_maps_to_three(self, capsys, monkeypatch):
        import padic_ialpha.cli as cli_mod
        from padic_ialpha import PrecisionExhausted

        def explode(*args, **kwargs):
            raise PrecisionExhausted("digits cancelled after escalation")

        monkeypatch.setattr(cli_mod, "mc_ialpha_eval", explode)
        status, _, err = run_capture(
            capsys,
            ["mc", "--p", "2", "--alpha", "2", "--monomial", "1",
             "--ladder", "0:0:1", "--samples", "10000"],
        )
        assert status == 3
        assert "numeric error" in err


class TestTheoremCommands:
    def test_theorem3_normalized_bounded(self, capsys):
        status, out, _ = run_capture(
            capsys,
            ["theorem3", "--p", "2", "--alpha", "2", "--beta", "0.5",
             "--gamma", "2", "--coeffs", "1", "--order", "2",
             "--ladder", "8:24:4"],
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[1] == "x_exp,computed,predicted,abs_err,normalized_err"
        for line in lines[2:]:
            assert float(line.split(",")[4]) < 10

    def test_theorem2_summary_in_config(self, capsys):
        status, out, _ = run_capture(
            capsys,
            ["theorem2", "--p", "2", "--alpha", "2", "--beta", "2",
             "--ladder", "5:20:5"],
        )
        assert status == 0
        header = out.splitlines()[0]
        cfg = json.loads(header[len("# config "):])
        assert cfg["spread"] < 10

    def test_theorem4_printed_flag(self, capsys):
        base = ["theorem4", "--p", "2", "--alpha", "2", "--gamma", "0",
                "--coeffs", "1", "--order", "0", "--ladder", "4:12:4"]
        _, proof, _ = run_capture(capsys, base)
        _, printed, _ = run_capture(capsys, base + ["--eq13-printed"])
        p_err = float(proof.strip().splitlines()[-1].split(",")[3])
        q_err = float(printed.strip().splitlines()[-1].split(",")[3])
        assert q_err > 100 * p_err

    def test_theorem1_tabulated(self, tmp_path, capsys):
        # table profile plus explicit expansion coefficients
        ctx = NumericContext(2)
        tab = Table.from_values(
            {j: float(2.0**j / (1 + 2.0**j)) for j in range(-40, 1)},
            PowerTail(1.0, 1.0),
        )
        path = tmp_path / "ratio.tab"
        dump_table(tab, str(path), ctx, [-40, 0])
        status, out, _ = run_capture(
            capsys,
            ["theorem1", "--p", "2", "--alpha", "2", "--table", str(path),
             "--coeffs", "1,-1,1", "--scales", "1,2,3", "--order", "1",
             "--ladder", "-6:-12:-2"],
        )
        assert status == 0
        for line in out.strip().splitlines()[2:]:
            assert float(line.split(",")[4]) < 5

    def test_mc_schema(self, capsys):
        status, out, _ = run_capture(
            capsys,
            ["mc", "--p", "2", "--alpha", "2", "--indicator", "0",
             "--ladder", "3:3:1", "--samples", "50000", "--seed", "5"],
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[1] == "x_exp,estimate,stderr,exact,z_score"
        x, est, se, exact, z = lines[2].split(",")
        assert float(exact) == -5.5
        assert abs(float(z)) < 6
