"""The workloads: seeded operation lists, their runs and their checks.

A workload's pool of operations and their stored references live in
``refs/<workload>.json`` (written by ``make_refs.py``).  ``prepare`` turns
a seed into one cycle of operations: for every stratum of every template
it picks one of the stored variants, then shuffles the cycle.  The
seed also sets every Monte Carlo seed.  The library receives only the
generated inputs.

Every operation is checked against its stored reference, computed at the
exact values of the doubles the library receives:

* real outputs of dyadic operations (every parameter a dyadic rational,
  see make_refs.py) within ``DYADIC_RTOL``, and of the others within
  ``RTOL``, relative to ``|reference|`` or, for ``ialpha_eval`` ops, to
  the operator's scale ``|C| p**(N(alpha-1))`` times the mass of ``|f|``
  on the ball, whichever is larger (values that cancel to nearly 0 are
  judged on the size of what cancels; their lost relative digits show in
  the traced run's ``ialpha.min_digits``).  An output the library returns
  as a double cannot be closer than its rounding, so its tolerance is at
  least ``FLOAT_RTOL``.  An exactly-zero reference with no scale needs
  ``|value| <= ZERO_ATOL``;
* exact-rational outputs must be equal;
* Monte Carlo estimates within ``MC_Z`` standard errors of the exact value;
* CLI calls must also return 0.

``DYADIC_RTOL`` sits just above the default ``rel_tol`` (1e-30), so a
change that loses working precision or truncates more fails the check.
``RTOL`` is wider because the library does its exponent arithmetic in
doubles (``alpha - 1``, ``alpha + M``, ...), which rounds decimal
parameters: that costs up to 6e-14 relative on these pools today.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from mpmath import mp

import padic_ialpha as pi
import padic_ialpha.cli as pi_cli
from specs import bind, context, exact_num, profile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS = BENCH / "refs"

DYADIC_RTOL = 1e-25
RTOL = 1e-12
FLOAT_RTOL = 2.0**-52
ZERO_ATOL = 1e-60
MC_Z = 4.0
MC_SAMPLES = 10**6
CHECK_BITS = 512
WORKLOADS = ("eval", "ladder", "mc")


def _ref(s: str):
    with mp.workprec(CHECK_BITS):
        return mp.mpf(s)


def close(value, ref, rtol, scale=0) -> bool:
    """Agreement with a stored reference, as the module doc states."""
    if isinstance(value, float):
        rtol = max(rtol, FLOAT_RTOL)
    with mp.workprec(CHECK_BITS):
        v = mp.convert(value)
        if not mp.isfinite(v):
            return False
        size = max(abs(ref), scale)
        if size == 0:
            return abs(v) <= ZERO_ATOL
        return abs(v - ref) <= rtol * size


class Diagnostics:
    """Counts the traced run reports next to the layer timings."""

    def __init__(self):
        self.spheres = 0
        self.bound_violations = 0
        self.min_digits = math.inf
        self.max_abs_z = 0.0
        self.samples = 0
        self.z_failures = 0  # Monte Carlo misses beyond MC_Z: statistical, not defects
        self.captured = []  # (profile, N, OperatorValue) of every ialpha_eval call
        self.raw = {}  # unscaled wall-clock figures of an end-to-end run

    def note_z(self, z) -> bool:
        self.max_abs_z = max(self.max_abs_z, abs(z))
        if abs(z) <= MC_Z:
            return True
        self.z_failures += 1
        return False


class LibraryOp:
    """One call into the library with stored per-radius references."""

    def __init__(self, template, spec):
        self.template, self.spec = template, spec
        exact = bool(spec.get("exact"))
        num = exact_num if exact else float
        self.profile, self.thunk = bind(spec, context(spec), num)
        if exact:
            self.values = {row[0]: Fraction(row[1]) for row in spec["ref"]}
        else:
            self.values = {row[0]: _ref(row[1]) for row in spec["ref"]}
        self.second = {row[0]: _ref(row[2]) for row in spec["ref"] if len(row) > 2}
        self.decimal = ({row[0]: _ref(row[1]) for row in spec["ref_decimal"]}
                        if "ref_decimal" in spec else self.values)
        self.scale = _ref(spec["scale"]) if "scale" in spec else 0
        self.rtol = DYADIC_RTOL if spec["dyadic"] else RTOL

    def run(self, i):
        return self.thunk()

    def check(self, out, diag):
        kind = self.spec["kind"]
        if kind == "eval":
            ref = self.values[self.spec["N"]]
            if isinstance(ref, Fraction):
                return out.value == ref
            return close(out.value, ref, self.rtol, self.scale)
        if kind in ("T1", "T3", "T4"):
            rows = [(r.x_exp, r.computed, r.predicted) for r in out.rows]
            return self._rows_ok(rows)
        if kind == "ratio":
            _, _, rows = out
            return (list(self.second) == [x for x, _ in rows]
                    and all(close(r, self.second[x], self.rtol) for x, r in rows))
        return self._rows_ok(out)  # L1, L2

    def _rows_ok(self, rows):
        if [row[0] for row in rows] != list(self.values):
            return False
        for x, *vals in rows:
            if not close(vals[0], self.values[x], self.rtol):
                return False
            if len(vals) > 1 and not close(vals[1], self.second[x], self.rtol):
                return False
        return True

    def diagnose(self, diag):
        """Bound violations and correct digits of this op's ialpha_eval calls.

        A violation is an error beyond ``truncation_bound`` at the doubles
        the library received; correct digits are counted against the value
        at the decimal parameters a user typed.
        """
        for f, N, ov in diag.captured:
            if not isinstance(f, pi.LinearCombo) and ov.j_cut is not pi.ZERO:
                diag.spheres += N - ov.j_cut
            if f is not self.profile or N not in self.values:
                continue
            ref = self.values[N]
            if isinstance(ref, Fraction):
                diag.bound_violations += ov.value != ref
                continue
            with mp.workprec(CHECK_BITS):
                value = mp.convert(ov.value)
                diag.bound_violations += abs(value - ref) > ov.truncation_bound
                ref = self.decimal[N]
                err = abs(value - ref)
                if ref != 0:
                    digits = float(-mp.log10(err / abs(ref))) if err else CHECK_BITS * 0.30103
                    diag.min_digits = min(diag.min_digits, digits)
        diag.captured.clear()


class McOp:
    """mc_ialpha_eval at 1e6 samples; the seed of each call comes from the run seed."""

    def __init__(self, template, spec, seed):
        self.template, self.spec = template, spec
        self.profile = profile(spec["f"], float)
        self.alpha = float(spec["alpha"])
        self.ctx = context(spec)
        self.exact = _ref(spec["ref"][0][1])
        self.seed = seed

    def run(self, i):
        return pi.mc_ialpha_eval(self.profile, self.spec["N"], self.alpha, MC_SAMPLES,
                                 self.seed * 1_000_003 + i, self.ctx)

    def check(self, out, diag):
        estimate, stderr = out
        with mp.workprec(CHECK_BITS):
            z = float((estimate - self.exact) / stderr) if stderr > 0 else math.inf
        return diag.note_z(z)

    def diagnose(self, diag):
        diag.captured.clear()


def child_env():
    """Environment for child interpreters: the checkout's src/ first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"]
                                              if env.get("PYTHONPATH") else "")
    return env


class CliOp:
    """One in-process ``padic_ialpha.cli.run`` call of theorem3 or theorem4."""

    def __init__(self, template, spec):
        self.template, self.spec = template, spec
        self.argv = list(spec["argv"])
        self.refs = [[_ref(v) if isinstance(v, str) else v for v in row] for row in spec["ref"]]
        self.rtol = DYADIC_RTOL if spec["dyadic"] else RTOL

    def run(self, i):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = pi_cli.run(self.argv)
        return rc, out.getvalue()

    def check(self, out, diag):
        rc, stdout = out
        if rc != 0:
            print(f"cli {self.argv} returned {rc}", file=sys.stderr)
            return False
        lines = stdout.splitlines()
        if len(lines) < 2 or not lines[0].startswith("# config "):
            return False
        rows = [line.split(",") for line in lines[2:]]  # x, computed, predicted, ...
        return len(rows) == len(self.refs) and all(
            int(row[0]) == ref[0] and all(close(float(v), r, self.rtol)
                                          for v, r in zip(row[1:], ref[1:]))
            for row, ref in zip(rows, self.refs))

    def diagnose(self, diag):
        diag.captured.clear()


def load(workload):
    return json.loads((REFS / f"{workload}.json").read_text())


def cycle(data, seed):
    """(template, spec) pairs of one cycle, shuffled.

    A template's pool holds ``mix`` equal groups of variants that cost
    about the same (strata); the cycle takes one variant of each group.
    """
    rng = random.Random(f"{data['workload']}-{seed}")
    chosen = []
    for name in sorted(data["mix"]):
        ops = data["pool"][name]
        group = len(ops) // data["mix"][name]
        for j in range(data["mix"][name]):
            chosen.append((name, ops[j * group + rng.randrange(group)]))
    rng.shuffle(chosen)
    return chosen


def prepare(workload, seed):
    """Everything one run needs before its first timed operation."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    ops = []
    for template, spec in cycle(load(workload), seed):
        if spec["kind"] == "mc":
            ops.append(McOp(template, spec, seed))
        elif spec["kind"] == "cli":
            ops.append(CliOp(template, spec))
        else:
            ops.append(LibraryOp(template, spec))
    return ops


def _raised(op):
    print(f"{op.template}: {op.spec.get('argv') or op.spec['kind']} raised", file=sys.stderr)
    traceback.print_exc(limit=4)


def untraced_attempt(op, i, diag, tracer=None):
    """Run and check one operation; returns (ok, ns spent in the call)."""
    t0 = time.perf_counter_ns()
    try:
        out = op.run(i)
    except Exception:  # a raising operation is a failed one; keep measuring
        _raised(op)
        return False, time.perf_counter_ns() - t0
    dt = time.perf_counter_ns() - t0
    return op.check(out, diag), dt


def traced_attempt(op, i, diag, tracer):
    """As untraced_attempt, with the call and the check in spans of their own."""
    try:
        with tracer.span("bench.op") as span:
            out = op.run(i)
    except Exception:  # a raising operation is a failed one; keep measuring
        _raised(op)
        diag.captured.clear()
        return False, span.ns
    with tracer.span("bench.check"):
        ok = op.check(out, diag)
        op.diagnose(diag)
    return ok, span.ns
