"""Generate the stored input pools and their reference values.

Run once from the repository root::

    python3 bench/make_refs.py

It writes ``bench/refs/<workload>.json``.  Each file holds the pool of
operations a workload draws from, how many of each template one cycle of
the workload takes (``mix``), and for every operation its reference
values.  References are computed at 1024 bits with ``rel_tol = 1e-100``
and every real parameter passed as the exact rational value of the double
the code under test receives (``Fraction(float(s))``), then cross-checked
before anything is written:

* against a second run at 768 bits (rounding);
* against ``ialpha_monomial_exact`` for pure powers (an independent
  closed form, so a wrong sphere loop shows);
* against exact-rational mode for integer-parameter operations.

An operation is ``dyadic`` when every real parameter is a dyadic
rational, so exactly a double.  Even strata draw their parameters as
multiples of 1/128, so the library's double-precision exponent arithmetic
on them is exact and these operations can be checked near the working
precision; odd strata, the degree -0.9 and the two defect inputs keep
decimals, on which that arithmetic rounds.  Operations that are not
dyadic also store ``ref_decimal``: the value at the decimal parameters
themselves (``Fraction(s)``), which is what a user who typed them asked
for.

The pools are fixed by ``POOL_SEED``; the benchmark's ``--seed`` only
chooses among them (one variant of each stratum pair), so every seed's
inputs have stored references.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mpmath import mp  # noqa: E402

import padic_ialpha as pi  # noqa: E402
from specs import context, exact_num, profile  # noqa: E402

POOL_SEED = 20261017
DYADIC = 128  # dyadic parameters are multiples of 1/DYADIC
PAIR = 2  # variants per stratum; a cycle takes one of each pair
REF_BITS = (1024, 768)
REF_DIGITS = 120
AGREE = mp.mpf(10) ** -200
TINY = mp.mpf(10) ** -180  # below this a reference is stored as an exact 0

F = Fraction
PROFILE_KINDS = ("mono", "ind", "logp", "table", "combo")


def dec(rng, lo, hi, places=3):
    return f"{rng.uniform(lo, hi):.{places}f}"


def real(rng, lo, hi, dyadic, places=3):
    """A value in [lo, hi]: a multiple of 1/DYADIC, or a decimal with ``places`` places."""
    if dyadic:
        return repr(round(rng.uniform(lo, hi) * DYADIC) / DYADIC)
    return dec(rng, lo, hi, places)


def band(rng, j, n, lo, hi):
    """A value from the j-th of n equal sub-intervals of [lo, hi]; dyadic for even j."""
    width = (hi - lo) / n
    return real(rng, lo + j * width, lo + (j + 1) * width, j % 2 == 0)


def exact_double(s: str) -> Fraction:
    """The exact value of the double that ``float(s)`` gives."""
    return Fraction(float(s))


def is_dyadic(op) -> bool:
    """Every real parameter of a library operation is a dyadic rational, so exactly a double."""
    def dyadic(x):
        if isinstance(x, str):
            d = Fraction(x).denominator
            return d & (d - 1) == 0
        if isinstance(x, list):  # a profile spec starts with its kind
            return all(dyadic(v) for v in (x[1:] if x and x[0] in PROFILE_KINDS else x))
        return True
    return all(dyadic(v) for k, v in op.items() if k != "kind")


def rungs(rng, *ranges):
    """One rung drawn from each (start, stop, step) range, ascending."""
    return sorted(rng.randrange(*r) for r in ranges)


def strata(make, n):
    """PAIR variants of each of n strata.

    ``make(j)`` fixes whatever drives an operation's cost from the stratum
    index j and draws the rest, so every seed's cycle (one variant per
    pair) holds the same amount of work while its inputs differ.
    """
    return [make(j) for j in range(n) for _ in range(PAIR)]


def with_mix(pool):
    return pool, {name: max(1, len(ops) // PAIR) for name, ops in pool.items()}


# ---------------------------------------------------------------------------
# Pools: template name -> list of operations
# ---------------------------------------------------------------------------

DEFECT_MONOMIAL = {"kind": "eval", "p": 2, "alpha": "1.000001", "f": ["mono", "1.0"], "N": 5}
DEFECT_LOGPOWER = {"kind": "eval", "p": 2, "alpha": "2.1", "f": ["logp", "0.3", "1.5"], "N": 40}


def eval_pool(rng):
    pool = {}
    for p in (2, 3, 5):
        def add(name, make, n=6):
            pool[f"{name}_p{p}"] = strata(lambda j: dict(make(j), kind="eval", p=p), n)

        def alpha(j, n=6):
            return band(rng, j, n, 1.1, 3.5)

        add("mono", lambda j: {"f": ["mono", ["0.25", "0.5", "1", "1.5", "2", "3"][j]],
                               "alpha": alpha(j), "N": rng.randint(-20, 20)})
        add("mono_m05", lambda j: {"f": ["mono", "-0.5"], "alpha": alpha(j),
                                   "N": rng.randint(-20, 20)})
        add("mono_m09", lambda j: {"f": ["mono", "-0.9"], "alpha": alpha(j, 2),
                                   "N": rng.randint(-20, 20)}, n=2)

        def ind(j):
            n = rng.randint(-5, 5)
            return {"f": ["ind", n], "alpha": alpha(j), "N": n + 1 + 3 * j + rng.randint(0, 2)}
        add("ind", ind)

        def table(j):
            j_lo = rng.randint(-12, -4)
            values = [real(rng, 0.2, 2.0, j % 2 == 0, 6) for _ in range(rng.randint(8, 16))]
            tail = [real(rng, 0.5, 2.0, j % 2 == 0), ["0", "0.5", "1", "2", "0.5", "1"][j]]
            return {"f": ["table", j_lo, values, tail], "alpha": alpha(j),
                    "N": rng.randint(j_lo + 1, j_lo + len(values) - 1)}
        add("table", table)

        def combo(j):
            terms = [[real(rng, 0.5, 2.0, j % 2 == 0), ["mono", ["0.5", "1", "2"][j % 3]]],
                     [real(rng, -2.0, -0.5, j % 2 == 0), ["ind", rng.randint(-5, 5)]]]
            return {"f": ["combo", terms], "alpha": alpha(j), "N": rng.randint(-10, 20)}
        add("combo", combo)
        add("logp", lambda j: {"f": ["logp", "1", "0"], "alpha": alpha(j),
                               "N": 1 + 3 * j + rng.randint(0, 2)})
        add("exact", lambda j: {"f": ["mono", "123"[j]] if j < 3 else ["ind", 2 - 2 * j],
                                "alpha": "234"[j % 3], "N": rng.randint(1, 12), "exact": True})
    pool["defect_monomial"] = [DEFECT_MONOMIAL]
    pool["defect_logpower"] = [DEFECT_LOGPOWER]
    return with_mix(pool)


def acceptance_table():
    """The acceptance gate's alternating table: 2**j / (1 + 2**j), j in [-60, 0]."""
    values = [repr(float(mp.mpf(2) ** j / (1 + mp.mpf(2) ** j))) for j in range(-60, 1)]
    return ["table", -60, values, ["1.0", "1.0"]]


def ladder_pool(rng):
    """One cycle: 10 cheaper ops, 12 T4 scans and 8 T3 scans (~20-45, ~50 and
    ~105 ms), so the median falls mid-way through the T4 group and the 90th
    percentile inside the T3 group.  Rungs come from narrow strata."""
    table = acceptance_table()
    pool = {}
    pool["T1"] = strata(lambda j: {
        "kind": "T1", "p": 2, "f": table, "order": rng.randint(0, 2),
        "coeffs": ["1.0", "-1.0", "1.0", "-1.0", "1.0"],
        "scales": ["1.0", "2.0", "3.0", "4.0", "5.0"], "alpha": real(rng, 1.5, 3.0, j % 2 == 0),
        "ladder": rungs(rng, (-24, -17, 2), (-16, -11, 2), (-10, -5, 2))}, 1)
    pool["T3"] = strata(lambda j: {
        "kind": "T3", "p": 2, "f": ["logp", "0.5", "2"], "order": j % 3,
        "alpha": band(rng, j, 8, 1.3, 2.1),
        "ladder": rungs(rng, (12, 61, 4), (180, 221, 4), (560, 601, 4))}, 8)
    pool["T3_defect"] = [{"kind": "T3", "p": 2, "f": ["logp", "0.3", "1.5"], "order": 0,
                          "alpha": "2.1", "ladder": [20, 40, 80]}]
    pool["T4"] = strata(lambda j: {
        "kind": "T4", "p": 2, "f": ["logp", "1", "01"[j % 2]],
        "order": (j // 4) % 2 if j % 2 else 0, "printed": (j // 2) % 2 == 1,
        "alpha": band(rng, j, 12, 1.5, 2.5),
        "ladder": rungs(rng, (4, 41, 4), (100, 121, 4), (180, 201, 4))}, 12)
    for p in (2, 3):
        pool[f"ratio_p{p}"] = strata(lambda j: {
            "kind": "ratio", "p": p, "f": ["logp", rng.choice(["1.5", "2", "3"]), "0"],
            "alpha": real(rng, 1.3, 2.5, j % 2 == 0),
            "ladder": rungs(rng, (5, 21), (25, 41), (45, 61))}, 1)
        pool[f"L2_p{p}"] = strata(lambda j: {
            "kind": "L2", "p": p, "k": j if p == 2 else rng.randint(0, 2),
            "beta": real(rng, 0.2, 0.3, j % 2 == 0, 2),
            "eps": real(rng, 0.05, 0.2, j % 2 == 0, 2), "alpha": real(rng, 1.5, 3.0, j % 2 == 0),
            "ladder": rungs(rng, (1, 11), (11, 21), (21, 31))},
            2 if p == 2 else 1)
    pool["L1"] = strata(lambda j: {
        "kind": "L1", "p": 2, "lam": "0.5", "lam_prime": real(rng, 0.6, 0.9, j % 2 == 0, 2),
        "ladder": rungs(rng, (10, 41), (40, 71), (70, 101))}, 1)
    # theorem3 and theorem4 through the CLI front end, called in-process
    def cli_argv(j):
        if j == 0:
            return ["theorem3", "--p", "2", "--alpha", real(rng, 1.3, 2.1, True), "--beta", "0.5",
                    "--gamma", "2", "--order", "0", "--ladder", "12:20:4"]
        return ["theorem4", "--p", "2", "--alpha", real(rng, 1.5, 2.5, False), "--gamma", "1",
                "--ladder", "4:12:4"]
    pool["cli"] = strata(lambda j: {"kind": "cli", "argv": cli_argv(j)}, 2)
    return with_mix(pool)


def mc_pool(rng):
    profiles = [["mono", "0.5"], ["mono", "1.0"], ["mono", "2.0"],
                ["ind", 0], ["ind", 1], ["ind", 2]]
    pool = {}
    for p in (2, 3, 5):
        pool[f"mc_p{p}"] = strata(lambda j: {
            "kind": "mc", "p": p, "f": profiles[j], "alpha": ["1.5", "2.0", "3.0"][j % 3],
            "N": rng.randint(-1, 3)}, 6)
    return with_mix(pool)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

class CrossCheckFailed(RuntimeError):
    pass


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if abs(x) < TINY:
        return "0"
    return mp.nstr(x, REF_DIGITS, strip_zeros=False)


def _agree(a, b, what):
    """Relative agreement to 1e-200; values below 1e-180 count as zero."""
    with mp.workprec(1024):
        a, b = mp.convert(a), mp.convert(b)
        ok = abs(a - b) <= max(AGREE * abs(b), TINY)
    if not ok:
        raise CrossCheckFailed(f"{what}: {mp.nstr(a, 30)} vs {mp.nstr(b, 30)}")


def _rows_at(op, bits, num=exact_double):
    """Reference rows of one operation at the given precision.

    ``num`` turns each parameter string into the exact rational the
    reference is computed at.
    """
    p = op["p"]
    ctx = pi.NumericContext(p, precision_bits=bits, rel_tol=1e-100)
    kind = op["kind"]
    alpha = num(op["alpha"]) if "alpha" in op else None
    rows = []
    with ctx.workprec():
        if kind in ("eval", "mc"):
            f = profile(op["f"], num)
            rows.append([op["N"], pi.ialpha_eval(f, op["N"], alpha, ctx).value])
        elif kind in ("T1", "T3", "T4", "ratio"):
            f = profile(op["f"], num)
            for x in op["ladder"]:
                value = pi.ialpha_eval(f, x, alpha, ctx).value
                if kind == "T1":
                    coeffs = [num(c) for c in op["coeffs"]]
                    scales = [num(s) for s in op["scales"]]
                    second = pi.predict_origin(coeffs, scales, op["order"], x, alpha, ctx)
                elif kind == "T3":
                    second = pi.predict_infinity((F(1),), f.beta, f.gamma, op["order"], x,
                                                 alpha, ctx)
                elif kind == "T4":
                    second = pi.predict_infinity_beta1(
                        (F(1),), f.gamma, op["order"], x, f, alpha, ctx,
                        printed_form=bool(op.get("printed")))
                else:
                    second = abs(value) / ctx.p_pow((alpha - 1) * x)
                rows.append([x, value, second])
        elif kind == "L1":
            f = pi.LogPower(num(op["lam_prime"]), F(0))
            for m in op["ladder"]:
                g = pi.cumulative_ball_integral(f, m, ctx)
                rows.append([m, g * ctx.p_pow(-(1 - num(op["lam"])) * m)])
        elif kind == "L2":
            beta, eps = num(op["beta"]), num(op["eps"])
            for r in op["ladder"]:
                kr = pi.smallball_kernel_integral(op["k"], beta, r, alpha, ctx)
                rows.append([r, kr * ctx.p_pow((1 - beta - eps) * r)])
        else:
            raise ValueError(kind)
    return rows


def _cross_checks(op, rows, num):
    """Independent routes: monomial closed form, exact-rational mode."""
    f = op.get("f")
    if op["kind"] not in ("eval", "mc", "T1", "T3", "T4", "ratio") or f[0] != "mono":
        return
    ctx = pi.NumericContext(op["p"], precision_bits=1024, rel_tol=1e-100)
    for row in rows:
        exact = pi.ialpha_monomial_exact(num(f[1]), row[0], num(op["alpha"]), ctx)
        _agree(row[1], exact, f"monomial closed form {op}")


def magnitude(op):
    """|C| p**(N(alpha-1)) times the mass of |f| on the ball |y| <= p**N.

    It bounds |operator value| up to a constant, because the kernel is at
    most of order p**(N(alpha-1)) on that ball.  Checks of ``eval`` ops
    measure their error against the larger of it and |reference|, so a
    value that cancels to (nearly) 0 is judged on the scale of the terms
    that cancel.
    """
    ctx = pi.NumericContext(op["p"], precision_bits=1024, rel_tol=1e-100)
    spec = op["f"]
    parts = spec[1] if spec[0] == "combo" else [["1", spec]]
    alpha = exact_double(op["alpha"])
    with ctx.workprec():
        mass = sum(abs(exact_double(c)) * pi.cumulative_ball_integral(
            profile(g, exact_double), op["N"], ctx) for c, g in parts)
        return abs(pi.prefactor(ctx, alpha)) * ctx.p_pow((alpha - 1) * op["N"]) * mass


def reference(op):
    """(rows, decimal rows) of one library operation, as strings.

    ``rows`` are at the doubles the code under test receives; ``decimal
    rows`` hold the first value column at the decimal parameters, or are
    None when the two coincide (dyadic and exact-rational operations).
    """
    if op.get("exact"):
        value = pi.ialpha_eval(profile(op["f"], exact_num), op["N"], exact_num(op["alpha"]),
                               context(op)).value
        (row,) = _rows_at(op, 1024)
        _agree(row[1], value, f"exact-rational mode {op}")
        _cross_checks(op, [row], exact_double)
        return [[op["N"], _fmt(value)]], None
    hi, lo = (_rows_at(op, bits) for bits in REF_BITS)
    for a, b in zip(hi, lo):
        for x, y in zip(a[1:], b[1:]):
            _agree(y, x, f"{REF_BITS[1]}-bit rerun {op}")
    _cross_checks(op, hi, exact_double)
    rows = [[row[0], *(_fmt(v) for v in row[1:])] for row in hi]
    if is_dyadic(op):
        return rows, None
    decimal = _rows_at(op, REF_BITS[0], F)
    _cross_checks(op, decimal, F)
    return rows, [[row[0], _fmt(row[1])] for row in decimal]


def _cli_ops(argv):
    """The library operations whose rows a theorem3/theorem4 CLI call prints."""
    args = dict(zip(argv[1::2], argv[2::2]))
    start, stop, step = (int(v) for v in args["--ladder"].split(":"))
    xs = list(range(start, stop + 1, step))
    if argv[0] == "theorem3":
        return [{"kind": "T3", "p": int(args["--p"]),
                 "f": ["logp", args["--beta"], args["--gamma"]], "alpha": args["--alpha"],
                 "order": int(args["--order"]), "ladder": xs}]
    if argv[0] == "theorem4":
        return [{"kind": "T4", "p": int(args["--p"]), "f": ["logp", "1", args["--gamma"]],
                 "alpha": args["--alpha"], "order": 0, "printed": "--eq13-printed" in argv,
                 "ladder": xs}]
    raise ValueError(argv[0])


def build(name, make):
    rng = random.Random(f"{POOL_SEED}-{name}")
    pool, mix = make(rng)
    for ops in pool.values():
        for op in ops:
            lib_ops = _cli_ops(op["argv"]) if op["kind"] == "cli" else [op]
            refs = [reference(o) for o in lib_ops]
            op["dyadic"] = all(is_dyadic(o) for o in lib_ops)
            op["ref"] = [row for rows, _ in refs for row in rows]
            if op["kind"] != "cli" and refs[0][1] is not None:
                op["ref_decimal"] = refs[0][1]
            if op["kind"] == "eval":
                op["scale"] = _fmt(magnitude(op))
            print(f"  {name}: {op.get('argv') or op['kind']} ok", file=sys.stderr)
    return {"workload": name, "pool_seed": POOL_SEED, "ref_bits": REF_BITS[0],
            "mix": mix, "pool": pool}


WORKLOADS = {"eval": eval_pool, "ladder": ladder_pool, "mc": mc_pool}


def main(argv=None):
    names = (argv or sys.argv[1:]) or list(WORKLOADS)
    out_dir = HERE / "refs"
    out_dir.mkdir(exist_ok=True)
    for name in names:
        data = build(name, WORKLOADS[name])
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(data, separators=(",", ":")) + "\n")
        print(f"wrote {path.relative_to(HERE.parent)}", file=sys.stderr)


if __name__ == "__main__":
    main()
