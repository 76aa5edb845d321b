"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the repository root::

    python3 bench/smoke.py

For each workload in BENCHMARK.json and each trace mode it runs ``run.py``
for three operations and one set-up probe, then checks the result line:
exactly the keys ``correct``, ``attempted``, ``failed``, ``metrics``; every
metric BENCHMARK.json names for that mode, with its unit and a finite
number; ``correct`` true.  It also checks that the benchmark refuses to
run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.  Exit status 1 on any
failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "0", "--min-ops", "3", "--setup-probes", "1"]


def check_result(stdout: str, expected: dict) -> list[str]:
    problems = []
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"last line is not JSON: {exc}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"failed {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def bare_directory_refuses() -> list[str]:
    """The benchmark must exit non-zero, printing no result, without the package."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in CONFIG["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    name = CONFIG["workloads"][0]["name"]
    proc = subprocess.run([*CONFIG["command"], "--workload", name, "--seed", "1", *TINY],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"ran in a bare directory: exit {proc.returncode}"]
    return []


def main() -> int:
    modes = {0: {m["name"]: m["unit"] for m in CONFIG["end_to_end"]},
             1: {m["name"]: m["unit"] for m in CONFIG["per_layer"]}}
    failures = 0
    for name in (w["name"] for w in CONFIG["workloads"]):
        for trace, expected in modes.items():
            proc = subprocess.run([*CONFIG["command"], "--workload", name, "--seed", "1",
                                   "--trace", str(trace), *TINY],
                                  cwd=ROOT, capture_output=True, text=True, timeout=600)
            problems = ([f"exit {proc.returncode}: {proc.stderr[-500:]}"]
                        if proc.returncode else check_result(proc.stdout, expected))
            failures += bool(problems)
            print(f"{name} trace {trace}: {'ok' if not problems else '; '.join(problems)}")
    problems = bare_directory_refuses()
    failures += bool(problems)
    print(f"bare directory: {'ok' if not problems else '; '.join(problems)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
