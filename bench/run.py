"""Benchmark of padic-ialpha: one workload, one closed-loop client.

Run from the repository root::

    python3 bench/run.py --workload eval --seed 1 --seconds 30 --trace 0

Workloads: ``eval``, ``ladder`` and ``mc`` (BENCHMARK.json says why each
exists).  The loop issues the next operation only after the previous one
returned and was checked against its stored reference.  It runs for
``--seconds`` and at least ``--min-ops`` operations, so the 90th percentile
always has ten operations beyond it.

``--trace 0`` reports the end-to-end metrics.  Latencies and set-up time
are rescaled to a reference machine speed by probes (speed.py); the raw
wall-clock figures are in the environment record.  Peak memory comes from
a separate process that runs one cycle of the workload.  ``--trace 1`` is
a separate run with spans around every call into the package's layers and
reports per-layer metrics (raw seconds), plus the tracing overhead measured
by replaying the first operations untraced.  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the environment record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-ops", type=int, default=100,
                    help="lower bound on timed operations (default 100)")
    ap.add_argument("--setup-probes", type=int, default=9,
                    help="fresh processes whose median gives setup_s (default 9)")
    return ap.parse_args(argv)


PROBE = {"eval": "mpmath", "ladder": "mpmath", "mc": "numpy"}


def _loop(ops, diag, seconds, min_ops, probe, tracer=None):
    """Closed loop until both the time and the op floor are reached.

    Returns (durations_ns, scaled_ns, failed, track).  A duration covers
    the library call only, never the check; ``scaled_ns`` is the duration
    at the reference machine speed measured by ``track`` (see speed.py).
    """
    from speed import SpeedTrack
    from workloads import traced_attempt, untraced_attempt

    attempt = untraced_attempt if tracer is None else traced_attempt
    track = SpeedTrack(probe)

    def mark(index):
        if tracer is None:
            track.mark(index)
        else:
            with tracer.span("bench.probe"):
                track.mark(index)

    durations, failed, since = [], 0, 0
    deadline = time.perf_counter() + seconds
    mark(0)
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        ok, dt = attempt(ops[i % len(ops)], i, diag, tracer)
        durations.append(dt)
        failed += not ok
        i += 1
        since += dt
        if since >= track.every_ns:
            mark(i)
            since = 0
    mark(i)
    scaled = [dt * track.scale(k) for k, dt in enumerate(durations)]
    return durations, scaled, failed, track


def _spawn_s(cmd, env, ready=None):
    """Wall seconds from spawn to the ready line (or exit) of one fresh process."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        if ready is not None:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            if line.strip() != ready:
                proc.kill()
                raise RuntimeError(f"{cmd[1:]} did not get ready: {proc.stderr.read()[-500:]}")
        proc.communicate(timeout=120)
        if ready is None:
            dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} exited {proc.returncode}")
    return dt


def _import_times(env, k=3):
    """(interpreter_s, import_s, import_numpy_s): medians of k fresh processes."""
    interpreter = statistics.median(_spawn_s([sys.executable, "-c", "pass"], env)
                                    for _ in range(k))
    pkg, numpy = [], []
    for _ in range(k):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import padic_ialpha.cli"],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        pkg.append(cumulative.get("padic_ialpha", 0.0))
        numpy.append(cumulative.get("numpy", 0.0))
    return interpreter, statistics.median(pkg), statistics.median(numpy)


def _stats_ms(durations_ns):
    """(ops_per_s, p50_ms, p90_ms); p90 has at least ten ops beyond it when n >= 100."""
    ms = sorted(d / 1e6 for d in durations_ns)
    n = len(ms)
    return n / (sum(ms) / 1e3), statistics.median(ms), ms[math.ceil(0.9 * n) - 1]


def end_to_end(ops, args, workloads):
    from speed import SpeedTrack

    diag = workloads.Diagnostics()
    raw, scaled, failed, loop_track = _loop(ops, diag, args.seconds, args.min_ops,
                                            PROBE[args.workload])
    probe = [sys.executable, str(BENCH / "setup_probe.py"), args.workload, str(args.seed)]
    # A fixed glibc mmap threshold returns every large array to the system when it is
    # freed, so the peak is the live memory the workload needs.  With the adaptive
    # threshold it also depended on the order of the operations (148 or 170 MB on mc).
    peak = subprocess.run(probe + ["cycle"], env=dict(workloads.child_env(),
                                                      MALLOC_MMAP_THRESHOLD_="65536"),
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    if peak.returncode != 0:
        raise RuntimeError(f"one-cycle memory probe failed: {peak.stderr[-800:]}")
    peak_rss_mb = float(peak.stdout.split()[-1])
    # each set-up is rescaled by the speed probe run just before it
    track, setup_raw, setup_scaled = SpeedTrack("spawn"), [], []
    for k in range(args.setup_probes):
        track.mark(k)
        setup_raw.append(_spawn_s(probe, workloads.child_env(), ready="ready"))
        setup_scaled.append(setup_raw[-1] * track.nominal_ns / track.ns[-1])
    ops_per_s, p50, p90 = _stats_ms(scaled)
    n = len(raw)
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "ok_frac": (1 - failed / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_scaled), "s"),
    }
    raw_ops, raw_p50, raw_p90 = _stats_ms(raw)
    diag.raw = {"ops_per_s": raw_ops, "op_p50_ms": raw_p50, "op_p90_ms": raw_p90,
                "setup_s": statistics.median(setup_raw), "loop_speed": loop_track.overall(),
                "setup_speed": track.overall()}
    return n, failed, diag, metrics


def layer_metrics(tracer, diag, wall_s, overhead, n, imports):
    t = tracer
    predict = sum(t.self_s(name) for name in t.stats if name.startswith("asymptotics.predict_"))
    spheres = diag.spheres
    samples = diag.samples
    interpreter_s, import_s, import_numpy_s = imports
    # every layer span lies inside a bench.op span; what they leave of it is bench.op's self time
    layer_s = sum(t.self_s(name) for name in t.stats if not name.startswith("bench."))
    m = {}
    for name in ("core.p_pow", "core.general_power", "radial.eval_sphere", "ialpha.ialpha_eval",
                 "radial.cumulative_ball_integral", "asymptotics.series_B"):
        m[f"{name}.calls"] = (t.calls(name), "count")
        m[f"{name}.self_s"] = (t.self_s(name), "s")
    m.update({
        "ialpha.explicit_spheres": (spheres, "count"),
        "ialpha.us_per_sphere": (t.covered_s("ialpha.ialpha_eval") * 1e6 / spheres
                                 if spheres else 0.0, "us"),
        "ialpha.smallball_kernel_integral.self_s": (t.self_s("ialpha.smallball_kernel_integral"), "s"),
        "asymptotics.phi_sum.calls": (t.calls("asymptotics.phi_sum"), "count"),
        "asymptotics.predict.self_s": (predict, "s"),
        "verify.residual_scan.self_s": (t.self_s("verify.residual_scan"), "s"),
        "verify.ratio_bound_check.self_s": (t.self_s("verify.ratio_bound_check"), "s"),
        "verify.lemma_decay_check.self_s": (t.self_s("verify.lemma_decay_check"), "s"),
        "core.sample_kernel_exponents.self_s": (t.self_s("core.sample_kernel_exponents"), "s"),
        "core.sample_kernel_exponents.ns_per_sample": (
            t.covered_s("core.sample_kernel_exponents") * 1e9 / samples if samples else 0.0, "ns"),
        "ialpha.mc_ialpha_eval.self_s": (t.self_s("ialpha.mc_ialpha_eval"), "s"),
        "cli.interpreter_s": (interpreter_s, "s"),
        "cli.import_s": (import_s, "s"),
        "cli.import_numpy_s": (import_numpy_s, "s"),
        "cli.run.self_s": (t.self_s("cli.run"), "s"),
        "bench.op.self_s": (t.self_s("bench.op"), "s"),
        "ialpha.bound_violations": (diag.bound_violations, "count"),
        "ialpha.min_digits": (diag.min_digits if diag.min_digits != math.inf else 0.0, "digits"),
        "mc.max_abs_z": (diag.max_abs_z, "z"),
        "trace.ops": (n, "count"),
        "trace.wall_s": (wall_s, "s"),
        "trace.coverage": (layer_s / t.covered_s("bench.op"), "ratio"),
        "trace.overhead": (overhead, "ratio"),
    })
    return m


def traced(ops, args, workloads):
    from tracing import Tracer, install, uninstall

    tracer = Tracer()
    diag = workloads.Diagnostics()
    tracer.hooks["ialpha.ialpha_eval"] = lambda a, kw, r: diag.captured.append((a[0], a[1], r))

    def count_samples(a, kw, r):
        diag.samples += a[2]
    tracer.hooks["core.sample_kernel_exponents"] = count_samples

    undo = install(tracer)
    t0 = time.perf_counter()
    try:
        durations, scaled, failed, _ = _loop(ops, diag, args.seconds, args.min_ops,
                                             PROBE[args.workload], tracer)
    finally:
        uninstall(undo)
    wall_s = time.perf_counter() - t0

    # tracing overhead: replay the first ops (a quarter of the traced time) untraced
    budget, m = sum(scaled) / 4, 0
    while m < len(scaled) and (m < 10 or sum(scaled[:m]) < budget):
        m += 1
    _, replay, _, _ = _loop(ops, workloads.Diagnostics(), 0, m, PROBE[args.workload])
    overhead = sum(scaled[:m]) / sum(replay)

    imports = _import_times(workloads.child_env())
    metrics = layer_metrics(tracer, diag, wall_s, overhead, len(durations), imports)
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "wall_s": wall_s,
         "spans": tracer.dump(), "op_ns": durations}) + "\n")
    return len(durations), failed, diag, metrics


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(args, ops, attempted, diag, workloads):
    import mpmath
    import numpy

    import padic_ialpha as pi

    counts = Counter(op.template for op in ops)
    per_cycle = sum(counts.values())
    cycles, rest = divmod(attempted, per_cycle)
    attempted_by = {t: c * cycles for t, c in counts.items()}
    for op in ops[:rest]:
        attempted_by[op.template] += 1
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "precision_bits": pi.NumericContext(2).precision_bits,
        "rel_tol": pi.NumericContext(2).rel_tol,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "loop": "closed",
        "ops_per_cycle": per_cycle,
        "op_counts": attempted_by,
        "tolerances": {"dyadic_rtol": workloads.DYADIC_RTOL, "rtol": workloads.RTOL,
                       "float_rtol": workloads.FLOAT_RTOL, "zero_atol": workloads.ZERO_ATOL,
                       "mc_z": workloads.MC_Z},
        "raw_wall_clock": diag.raw,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "padic_ialpha" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'padic_ialpha'}", file=sys.stderr)
        return 2
    if not (BENCH / "refs" / f"{args.workload}.json").is_file():
        print(f"error: no stored references for workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.min_ops < 1 or args.seconds < 0 or args.setup_probes < 1:
        print("error: --min-ops and --setup-probes must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    ops = workloads.prepare(args.workload, args.seed)
    run = traced if args.trace else end_to_end
    attempted, failed, diag, metrics = run(ops, args, workloads)
    hard = failed - diag.z_failures
    correct = hard == 0 and diag.z_failures <= max(1, attempted // 100)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops, {failed} failed ({diag.z_failures} Monte Carlo misses)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:.6g} {unit}")
    print("env " + json.dumps(environment(args, ops, attempted, diag, workloads), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
