"""Steadiness check: run each workload over several seeds and report spreads.

Run from the repository root::

    python3 bench/steady.py                      # 10 seeds, every workload
    python3 bench/steady.py --workloads ladder --runs 5
    python3 bench/steady.py --baseline .bench_out/steady-A.json

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median``.  A metric is flagged when its spread exceeds its
bound from BENCHMARK.json, or, with ``--baseline``, when its median is worse than the
baseline's median by more than the bound.  Every run must also report
``correct``.  The summary is written to ``.bench_out/steady-<stamp>.json``;
the exit status is 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def run_once(config, workload, seed, seconds):
    cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(metric, base, new):
    """Relative worsening of new against base (negative when better)."""
    if metric["better"] == "lower":
        return (new - base) / base
    return (base - new) / base


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=config["run_seconds"])
    ap.add_argument("--baseline", default=None, help="summary of an earlier steady.py run")
    args = ap.parse_args(argv)

    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None
    summary = {"seconds": args.seconds, "workloads": {}}
    flagged = []
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in config["end_to_end"]}
        for k in range(args.runs):
            seed = args.first_seed + k
            result = run_once(config, workload, seed, args.seconds)
            if not result["correct"]:
                flagged.append(f"{workload} seed {seed}: correct is false")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        for metric in config["end_to_end"]:
            name = metric["name"]
            vals = values[name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            notes, flag = [], False
            if spread > metric["bound"]:
                notes.append(f"SPREAD > bound {metric['bound']}")
                flag = True
            elif spread > metric["bound"] / 3:
                notes.append("spread > bound/3")
            if baseline and workload in baseline["workloads"]:
                drift = worse_by(metric, baseline["workloads"][workload][name]["median"], med)
                notes.append(f"vs baseline {drift:+.3f}")
                if drift > metric["bound"]:
                    notes.append("WORSE by more than bound")
                    flag = True
            if flag:
                flagged.append(f"{workload} {name}: {' '.join(notes)}")
            print(f"  {name:12s} median {med:12.6g} {metric['unit']:6s} q1 {q1:12.6g} "
                  f"q3 {q3:12.6g} spread {spread:.4f}  {' '.join(notes)}")
        summary["workloads"][workload] = rows
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary written to {path.relative_to(ROOT)}")
    for line in flagged:
        print("FLAG " + line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
