"""Command-line interface: schemas, determinism, table round trips, exit codes."""

import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from padic_ialpha import (
    LogPower,
    MissingTail,
    NumericContext,
    OuterTail,
    ParseError,
    PowerTail,
    Table,
    ZeroTail,
    b_coefficient,
    ialpha_eval,
    prefactor,
)
import padic_ialpha
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

    @pytest.mark.parametrize("spaced,joined", [
        (["eval", "--coeffs", "-1,1", "--scales", "-0.5,1", "--ladder", "0:2:1"],
         ["eval", "--coeffs=-1,1", "--scales=-0.5,1", "--ladder", "0:2:1"]),
        (["theorem1", "--coeffs", "-1,1", "--scales", "1,2", "--ladder", "-4:-8:-4"],
         ["theorem1", "--coeffs=-1,1", "--scales", "1,2", "--ladder=-4:-8:-4"]),
        (["theorem3", "--beta", "0.5", "--gamma", "2", "--coeffs", "-.5,1",
          "--ladder", "8:16:8"],
         ["theorem3", "--beta", "0.5", "--gamma", "2", "--coeffs=-.5,1",
          "--ladder", "8:16:8"]),
        (["theorem4", "--gamma", "1", "--coeffs", "-1,2", "--ladder", "4:8:4"],
         ["theorem4", "--gamma", "1", "--coeffs=-1,2", "--ladder", "4:8:4"]),
    ], ids=["eval", "theorem1", "theorem3", "theorem4"])
    def test_list_values_may_start_with_a_minus_sign(self, capsys, spaced, joined):
        # '--coeffs -1,1' reads as '--coeffs=-1,1', not as a flag '-1,1'
        want = run_capture(capsys, [*joined, "--p", "2", "--alpha", "2"])
        assert want[0] == 0 and want[2] == ""
        assert run_capture(capsys, [*spaced, "--p", "2", "--alpha", "2"]) == want

    def test_mc_forms_the_prefactor_once(self, capsys, monkeypatch):
        # the exact column and every estimate of the ladder share one operator
        import padic_ialpha.radial as radial

        calls, prefactor_core = [], radial._prefactor

        def counted(*args):
            calls.append(args)
            return prefactor_core(*args)

        monkeypatch.setattr(radial, "_prefactor", counted)
        status, _, _ = run_capture(
            capsys, ["mc", "--p", "2", "--alpha", "2", "--monomial", "1",
                     "--ladder", "0:3:1", "--samples", "10000"]
        )
        assert status == 0
        assert len(calls) == 1


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

    def test_cli_dump_of_a_single_power_combo(self, tmp_path, capsys):
        # equal scales merge into one power run: 3 * |y|**0.5
        path = tmp_path / "combo.tab"
        status, _, _ = run_capture(
            capsys,
            ["eval", "--p", "2", "--alpha", "2", "--coeffs", "1,2",
             "--scales", "0.5,0.5", "--ladder", "0:2:1", "--dump-table", str(path)],
        )
        assert status == 0
        loaded = load_table(str(path), expected_prime=2)
        assert loaded.inner_tail == PowerTail(3.0, 0.5)
        assert loaded.outer_tail is None
        assert (loaded.j_lo, loaded.j_hi) == (0, 2)
        with mp.workprec(256):
            assert loaded.values == tuple(float(3 * mp.sqrt(2) ** j) for j in range(3))

    def test_cli_dump_of_several_powers_is_refused(self, tmp_path, capsys):
        # no single inner tail describes 1 * |y|**0.5 + 2 * |y|
        path = tmp_path / "combo.tab"
        status, out, err = run_capture(
            capsys,
            ["eval", "--p", "2", "--alpha", "2", "--coeffs", "1,2",
             "--scales", "0.5,1", "--ladder", "0:2:1", "--dump-table", str(path)],
        )
        assert status == 2
        assert out == ""
        assert "inner tail" in err

    def test_table_dump_keeps_the_whole_table(self, tmp_path, ctx2):
        original = Table.from_values(
            {-1: 0.25, 0: 0.5, 1: 0.125, 2: 1.5},
            PowerTail(1.0, 1.0),
            OuterTail(0.5, 2.0, (1.0, -0.25)),
        )
        path = tmp_path / "outer.tab"
        dump_table(original, str(path), ctx2, [0, 0])
        assert load_table(str(path), expected_prime=2) == original

    def test_table_without_outer_tail_keeps_every_row(self, tmp_path, ctx2):
        # a dump over a narrower range used to drop the rows above it, and
        # the reloaded table then had no value at N = 3 and N = 4
        original = Table(0, (1.0, 2.0, 3.0, 4.0, 5.0), PowerTail(1.0, 0.0))
        path = tmp_path / "short.tab"
        dump_table(original, str(path), ctx2, [1, 2])
        loaded = load_table(str(path), expected_prime=2)
        assert loaded == original
        for N in (3, 4):
            assert ialpha_eval(loaded, N, 2.0, ctx2).value == ialpha_eval(
                original, N, 2.0, ctx2).value

    def test_table_above_the_range_keeps_every_row(self, tmp_path, ctx2):
        # a table starting two spheres above the range was dropped whole:
        # the rows were -3..0, all 0.0, and the reloaded table raised
        # MissingTail at N = 3, where the original gives 9
        original = Table(2, (0.5, 0.75, 1.0), ZeroTail())
        path = tmp_path / "above.tab"
        dump_table(original, str(path), ctx2, [-3, 0])
        loaded = load_table(str(path), expected_prime=2)
        assert (loaded.j_lo, loaded.j_hi) == (-3, 4)
        assert loaded.values == (0.0,) * 5 + original.values
        assert float(ialpha_eval(original, 3, 2.0, ctx2).value) == 9
        for N in (-3, 0, 3, 4):
            assert ialpha_eval(loaded, N, 2.0, ctx2).value == ialpha_eval(
                original, N, 2.0, ctx2).value

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

    ZERO_TAIL = '{"p": 2, "inner_tail": {"kind": "zero"}}'

    @pytest.mark.parametrize("body,line", [
        ("", 2),  # no preamble
        ("{bad json", 2),
        ("[2]", 2),  # not an object
        ('{"p": 3, "inner_tail": {"kind": "zero"}}\n0,1.0', 2),  # prime mismatch
        (ZERO_TAIL[:-1] + ', "outer_tail": {"beta": 0.5}}\n0,1.0', 2),
        (ZERO_TAIL + "\n0,1.0,2.0", 3),  # three fields
        (ZERO_TAIL + "\nzero,1.0", 3),
        (ZERO_TAIL + "\n1,1.0\n0,2.0", 4),  # decreasing
        (ZERO_TAIL + "\n0,1.0\n2,2.0", 4),  # gap
        (ZERO_TAIL, 2),  # no rows
        ('{"p": 2, "inner_tail": {"a": 1.0}}\n0,1.0', 2),  # no kind
        ('{"p": 2, "inner_tail": {"kind": "power", "a": 1.0}}\n0,1.0', 2),  # no M
        ('{"p": 2, "inner_tail": {"kind": "power", "M": 1.0}}\n0,1.0', 2),  # no a
        ('{"p": 2, "inner_tail": {"kind": "cubic"}}\n0,1.0', 2),
    ], ids=["no-preamble", "bad-json", "not-object", "prime", "outer-tail", "fields",
            "row", "decreasing", "gap", "no-rows", "no-kind", "no-M", "no-a", "kind"])
    def test_parse_error_names_its_line(self, tmp_path, body, line):
        path = tmp_path / "bad.tab"
        path.write_text("#padic-radial v1\n" + body)
        with pytest.raises(ParseError) as exc:
            load_table(str(path), expected_prime=2)
        assert exc.value.line == line


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

    def test_negative_kmax_rejected(self, capsys):
        status, out, err = run_capture(
            capsys, ["constants", "--p", "2", "--alpha", "2", "--kmax", "-3"]
        )
        assert status == 2
        assert out == ""
        assert "kmax" in err

    # a flag given after the defaults --p 2 --alpha 2 overrides them
    @pytest.mark.parametrize("argv,message", [
        pytest.param(["mc", "--monomial", "1", "--seed", "-1"],
                     "--seed must be nonnegative, got -1", id="seed"),
        pytest.param(["eval", "--coeffs", "1", "--ladder", "0"],
                     "eval needs a profile (--monomial/--indicator/--table) "
                     "or both --coeffs and --scales", id="coeffs"),
        *[pytest.param([sub, *flags, "--alpha", bad], f"alpha must be finite, got {bad}",
                       id=f"{sub}-alpha")
          for sub, flags, bad in [
              ("constants", [], "nan"),
              ("eval", ["--monomial", "1", "--ladder", "0"], "inf"),
              ("theorem1", ["--monomial", "1"], "nan"),
              ("theorem2", ["--beta", "2"], "nan"),
              ("theorem3", ["--beta", "0.5", "--gamma", "2"], "nan"),
              ("theorem4", ["--gamma", "0"], "inf"),
              ("lemmas", ["--which", "L2"], "nan"),
              ("mc", ["--monomial", "1"], "nan"),
          ]],
        pytest.param(["lemmas", "--which", "L1", "--lam", "nan"],
                     "lam must be finite, got nan", id="lam"),
        pytest.param(["lemmas", "--which", "L1", "--lam-prime", "inf"],
                     "lam_prime must be finite, got inf", id="lam-prime"),
        pytest.param(["lemmas", "--which", "L2", "--eps", "nan"],
                     "eps must be finite, got nan", id="eps"),
        pytest.param(["constants", "--beta", "nan"],
                     "beta must be finite, got nan", id="constants-beta"),
        # flags that the chosen check ignores are checked too
        pytest.param(["lemmas", "--which", "L1", "--alpha", "nan", "--format", "json"],
                     "alpha must be finite, got nan", id="L1-alpha"),
        pytest.param(["lemmas", "--which", "L2", "--lam", "nan"],
                     "lam must be finite, got nan", id="L2-lam"),
        pytest.param(["theorem2", "--monomial", "1", "--beta", "inf"],
                     "beta must be finite, got inf", id="theorem2-beta"),
        pytest.param(["eval", "--coeffs", "1,nan", "--scales", "1,2", "--ladder", "0"],
                     "coeffs must be finite, got nan", id="coeffs-entry"),
    ])
    def test_message_names_the_flag(self, capsys, argv, message):
        status, out, err = run_capture(capsys, [argv[0], "--p", "2", "--alpha", "2",
                                                *argv[1:]])
        assert (status, out, err) == (2, "", f"error: {message}\n")

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

        def explode(*args, **kwargs):
            raise ArithmeticError("estimate lost every digit")

        monkeypatch.setattr(cli_mod, "_mc_eval", explode)
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

    def test_theorem2_reference_at_working_precision(self, capsys):
        # computed is |I f(p**x)|, the reference p**(x(alpha-1)) is formed at
        # the exact double of alpha, not in float64, and ratio is their
        # quotient: each column is within one rounding of a 1024-bit value
        status, out, _ = run_capture(
            capsys,
            ["theorem2", "--p", "3", "--alpha", "1.7", "--beta", "1.3",
             "--ladder", "5:30:5"],
        )
        assert status == 0
        ctx = NumericContext(3, precision_bits=1024)
        with mp.workprec(1024):
            a1 = mp.mpf(Fraction(1.7).numerator) / Fraction(1.7).denominator - 1
            for line in out.strip().splitlines()[2:]:
                x, *columns = line.split(",")
                want = mp.power(3, int(x) * a1)
                got = abs(ialpha_eval(LogPower(1.3, 0.0), int(x), 1.7, ctx).value)
                for printed, exact in zip(columns, (got, want, got - want, got / want)):
                    assert abs(float(printed) - exact) <= 2.0**-53 * exact

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


def readme_examples() -> list:
    """The argv of each ``padic-ialpha`` example in README's CLI section."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    commands = block.replace("\\\n", " ").splitlines()
    return [shlex.split(c)[1:] for c in commands if c.startswith("padic-ialpha ")]


class TestParserReuse:
    def test_readme_examples_in_one_process_match_each_alone(
        self, tmp_path, capsys, monkeypatch
    ):
        # the parser is built once per process; a run that fails to parse
        # (exit 2) between the examples must leave it as it was
        examples = readme_examples()
        assert {argv[0] for argv in examples} == {
            "constants", "eval", "theorem1", "theorem2", "theorem3", "theorem4",
            "lemmas", "mc",
        }
        src = Path(padic_ialpha.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        probe = "import sys; from padic_ialpha.cli import run; sys.exit(run(sys.argv[1:]))"
        (tmp_path / "alone").mkdir()
        alone = []
        for argv in examples:
            out = subprocess.run(
                [sys.executable, "-c", probe, *argv], cwd=tmp_path / "alone",
                env=env, capture_output=True, text=True, timeout=120,
            )
            alone.append((out.returncode, out.stdout))
        monkeypatch.chdir(tmp_path)
        together = []
        for argv in examples:
            together.append(run_capture(capsys, argv)[:2])
            status, out, err = run_capture(capsys, [argv[0], "--p", "2", "--bogus"])
            assert (status, out) == (2, "") and "error:" in err
        assert [status for status, _ in alone] == [0] * len(examples)
        assert together == alone


def test_module_runs_as_a_script(capsys):
    # python -m padic_ialpha.cli prints what run prints
    argv = ["constants", "--p", "2", "--alpha", "2"]
    src = Path(padic_ialpha.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-m", "padic_ialpha.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=120,
    )
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == run_capture(capsys, argv)[1] != ""
