"""Recorded CLI stdout: every case prints exactly the bytes in tests/data/cli/.

The files hold the stdout of each case below.  A change that alters a
printed digit re-records them and names the case in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from pathlib import Path

import pytest

from padic_ialpha.cli import run

DATA = Path(__file__).resolve().parent / "data" / "cli"
P2 = ["--p", "2", "--alpha", "2"]
DUMP = ["eval", *P2, "--monomial", "1", "--ladder", "-3:3:1", "--dump-table", "prof.tab"]

CASES = {
    # the README examples (the dump writes the table theorem1 reads)
    "constants": ["constants", *P2, "--beta", "0", "--kmax", "2"],
    "eval": ["eval", *P2, "--monomial", "1", "--ladder", "-4:4:4"],
    "eval-dump": DUMP,
    "theorem1-table": ["theorem1", *P2, "--table", "prof.tab", "--coeffs", "1",
                       "--scales", "1", "--order", "0", "--ladder", "-6:-24:-2"],
    "theorem2": ["theorem2", *P2, "--beta", "2", "--ladder", "5:30:1"],
    "theorem3": ["theorem3", *P2, "--beta", "0.5", "--gamma", "2", "--coeffs", "1",
                 "--order", "2", "--ladder", "4:40:4"],
    "theorem4": ["theorem4", *P2, "--gamma", "0", "--coeffs", "1", "--order", "0",
                 "--ladder", "4:40:4"],
    "theorem4-printed": ["theorem4", *P2, "--gamma", "0", "--coeffs", "1", "--order",
                         "0", "--ladder", "4:40:4", "--eq13-printed"],
    "lemmas-L1": ["lemmas", "--p", "2", "--which", "L1", "--lam", "0.5",
                  "--lam-prime", "0.7", "--ladder", "10:40:1"],
    "lemmas-L2": ["lemmas", "--p", "2", "--which", "L2", "--k", "2", "--beta", "0.5",
                  "--eps", "0.2", "--alpha", "2", "--ladder", "1:30:1"],
    "mc": ["mc", *P2, "--indicator", "0", "--ladder", "3:3:1", "--samples", "1000000"],
    # the benchmark's in-process theorem3 and theorem4 calls
    "bench-theorem3": ["theorem3", "--p", "2", "--alpha", "1.9375", "--beta", "0.5",
                       "--gamma", "2", "--order", "0", "--ladder", "12:20:4"],
    "bench-theorem4": ["theorem4", "--p", "2", "--alpha", "2.203", "--gamma", "1",
                       "--ladder", "4:12:4"],
    # every subcommand in JSON, with the flags the examples above leave out
    "constants-json": ["constants", *P2, "--beta", "0.5", "--kmax", "3",
                       "--format", "json"],
    "eval-json": ["eval", "--p", "3", "--alpha", "1.5", "--coeffs", "1,2", "--scales",
                  "0.5,1", "--ladder", "-2:2:2", "--format", "json"],
    "theorem1-json": ["theorem1", *P2, "--coeffs", "1,-1", "--scales", "1,2",
                      "--order", "1", "--ladder", "-4:-12:-4", "--format", "json"],
    "theorem2-json": ["theorem2", *P2, "--indicator", "0", "--ladder", "5:20:5",
                      "--format", "json"],
    "theorem3-json": ["theorem3", "--p", "3", "--alpha", "1.7", "--beta", "0.3",
                      "--gamma", "1.5", "--coeffs", "1,0.5", "--order", "1",
                      "--ladder", "4:12:4", "--log-base", "p", "--format", "json"],
    "theorem4-json": ["theorem4", *P2, "--gamma", "0.5", "--order", "1",
                      "--ladder", "4:12:4", "--eq13-printed", "--format", "json"],
    "lemmas-json": ["lemmas", "--p", "3", "--which", "L2", "--k", "1", "--beta", "0.5",
                    "--ladder", "1:6:1", "--format", "json"],
    "mc-json": ["mc", "--p", "3", "--alpha", "1.7", "--monomial", "0.5", "--ladder",
                "-1:1:1", "--samples", "10000", "--seed", "3", "--format", "json"],
    "mc-ladder": ["mc", *P2, "--monomial", "1", "--ladder", "0:3:1", "--samples", "10000"],
    "eval-options": ["eval", "--p", "5", "--alpha", "2.5", "--indicator", "1",
                     "--ladder", "3", "--log-base", "p", "--precision-bits", "96"],
}


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    """A working directory holding the table the README's dump writes."""
    path = tmp_path_factory.mktemp("cli")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(path)
        assert run(DUMP) == 0
    return path


@pytest.mark.parametrize("name", list(CASES))
def test_stdout_matches_the_recorded_file(name, table_dir, capsys, monkeypatch):
    monkeypatch.chdir(table_dir)
    capsys.readouterr()
    status = run(CASES[name])
    out, err = capsys.readouterr()
    assert (status, err) == (0, "")
    assert out == (DATA / f"{name}.txt").read_text(encoding="utf-8")


def record() -> None:
    """Write each case's stdout to its file, running in a scratch directory
    (the dump case writes the table before the case that reads it)."""
    import contextlib
    import io
    import os
    import tempfile

    DATA.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, argv in CASES.items():
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert run(argv) == 0, name
            (DATA / f"{name}.txt").write_text(out.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    record()
