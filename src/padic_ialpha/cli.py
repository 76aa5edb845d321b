"""Command-line front end: constants, operator ladders, residual scans, MC.

Reports stream to stdout as CSV (default) or JSON; every report embeds the
full run configuration, including the seed and working precision, so a rerun
of the same argv is byte-identical.  The configuration is one dict of 20
keys built from the parsed flags (:func:`_config`), which parses the list
flags ``--ladder``, ``--coeffs`` and ``--scales`` once; the subcommands read
them from it and add their own keys.  theorem1, theorem3 and theorem4 share
one residual-scan runner.  A flag's value may start with a minus sign
(``--coeffs -1,1``).  Exit status: 0 success, 2 validation error, 3 numeric
error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .asymptotics import b_coefficient, omega, omega_tilde
from .core import (
    LogBase,
    MissingTail,
    NumericContext,
    ParamOutOfRange,
    ParseError,
    RandomStream,
    _require_count,
    prefactor,
    unit_kernel_integral,
)
from .ialpha import _mc_eval, _require_samples
from .radial import (
    Indicator,
    LinearCombo,
    LogPower,
    Monomial,
    OuterTail,
    PowerTail,
    RadialFunction,
    Table,
    ValueRun,
    ZeroTail,
    _Operator,
    eval_sphere,
    outer_expansion,
    sphere_segments,
)
from .verify import _ratios, lemma_decay_check, residual_scan

__all__ = ["dump_table", "load_table", "main", "run"]

DEFAULT_SEED = 20250801
DEFAULT_SAMPLES = 100_000
TABLE_MAGIC = "#padic-radial v1"


# ---------------------------------------------------------------------------
# Table file format
# ---------------------------------------------------------------------------

def load_table(path: str, expected_prime: int | None = None) -> Table:
    """Parse a ``#padic-radial v1`` table file into a Table profile."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != TABLE_MAGIC:
        raise ParseError(f"expected magic line {TABLE_MAGIC!r}", line=1)
    if len(lines) < 2:
        raise ParseError("missing JSON preamble", line=2)
    try:
        preamble = json.loads(lines[1])
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON preamble: {exc}", line=2) from None
    if not isinstance(preamble, dict):
        raise ParseError("preamble must be a JSON object", line=2)
    p = preamble.get("p")
    if expected_prime is not None and p != expected_prime:
        raise ParseError(f"table prime {p} does not match --p {expected_prime}", line=2)
    if "inner_tail" not in preamble:
        raise MissingTail("preamble lacks an inner_tail declaration")
    inner = _tail_from_json(preamble["inner_tail"])
    outer = None
    if preamble.get("outer_tail") is not None:
        o = preamble["outer_tail"]
        try:
            outer = OuterTail(o["beta"], o["gamma"], tuple(o["coeffs"]))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad outer_tail: {exc}", line=2) from None
    j_lo, values = None, []
    for i, raw in enumerate(lines[2:], start=3):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 'exponent,value', got {raw!r}", line=i)
        try:
            j = int(parts[0])
            v = float(parts[1])
        except ValueError:
            raise ParseError(f"bad row {raw!r}", line=i) from None
        if j_lo is None:
            j_lo = j
        elif j != j_lo + len(values):
            raise ParseError(f"expected exponent {j_lo + len(values)}, got {j}", line=i)
        values.append(v)
    if not values:
        raise ParseError("table has no value rows", line=len(lines))
    return Table(j_lo, tuple(values), inner, outer)


def _tail_from_json(data):
    try:
        kind = data["kind"]
    except (TypeError, KeyError):
        raise ParseError("inner_tail needs a 'kind'", line=2) from None
    if kind == "zero":
        return ZeroTail()
    if kind == "power":
        try:
            return PowerTail(data["a"], data["M"])
        except KeyError as exc:
            raise ParseError(f"power tail lacks {exc}", line=2) from None
    raise ParseError(f"unknown inner tail kind {kind!r}", line=2)


def dump_table(f: RadialFunction, path: str, ctx: NumericContext, j_range) -> None:
    """Write a profile to the v1 table format over an exponent range.

    The rows cover the range, widened until the tails describe the rest:
    the one power run that reaches the origin (none: a zero tail; several:
    :class:`ParamOutOfRange`) and the declared outer expansion when its
    beta lies in [0, 1].  Otherwise the rows end the table, so they run on
    to the last tabulated row of the profile, or to the last sphere at
    which it is defined when a table without an outer tail ends first.
    """
    j_lo, j_hi = min(j_range), max(j_range)
    outer = outer_expansion(f, ctx)
    if outer is not None and 0 <= outer[0] <= 1:
        outer, runs = OuterTail(*outer), sphere_segments(f, math.inf, ctx)
        j_hi = max([j_hi] + [r.lo - 1 if r.hi == math.inf else r.hi for r in runs])
    else:
        outer, top = None, math.inf
        while True:  # down to the last sphere on which every table is defined
            try:
                runs = sphere_segments(f, top, ctx)
                break
            except MissingTail as e:
                if e.end is None:
                    raise
                top = e.end
        j_hi = max([j_hi] + [r.hi for r in runs if isinstance(r, ValueRun)])
        runs = sphere_segments(f, j_hi, ctx)
    origin = [r for r in runs if r.lo is None]
    if len(origin) > 1:
        raise ParamOutOfRange(
            "the profile is a sum of several powers near the origin; "
            "no inner tail describes it"
        )
    inner = PowerTail(origin[0].coeff, origin[0].degree) if origin else ZeroTail()
    j_lo = min([j_lo] + [r.lo for r in runs if r.lo is not None]
               + [r.hi + 1 for r in origin])
    preamble: dict = {"p": ctx.prime, "inner_tail": _tail_to_json(inner)}
    if outer is not None:
        preamble["outer_tail"] = {
            "beta": float(outer.beta),
            "gamma": float(outer.gamma),
            "coeffs": [float(c) for c in outer.coeffs],
        }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TABLE_MAGIC + "\n")
        fh.write(json.dumps(preamble, sort_keys=True) + "\n")
        for j in range(j_lo, j_hi + 1):
            fh.write(f"{j},{float(eval_sphere(f, j, ctx))!r}\n")


def _tail_to_json(tail):
    if isinstance(tail, ZeroTail):
        return {"kind": "zero"}
    return {"kind": "power", "a": float(tail.coeff), "M": float(tail.degree)}


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------

def _parse_ladder(raw: str) -> list[int]:
    parts = raw.split(":")
    if len(parts) == 1:
        parts = [raw, raw, "1"]
    elif len(parts) != 3:
        raise ParamOutOfRange(f"--ladder must be start:stop:step, got {raw!r}")
    start, stop, step = (int(x) for x in parts)
    if step == 0:
        raise ParamOutOfRange("--ladder step must be nonzero")
    ladder = range(start, stop + (1 if step > 0 else -1), step)
    if not ladder:
        raise ParamOutOfRange(f"--ladder {raw!r} is empty")
    return list(ladder)


def _parse_reals(raw: str) -> list[float]:
    try:
        return [float(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        raise ParamOutOfRange(f"expected comma-separated reals, got {raw!r}") from None


_PARSER = None  # built on the first call of run


def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    return _PARSER


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-ialpha",
        description=(
            "Fractional integration of radial functions over the p-adic "
            "numbers: constants, operator ladders, expansion residuals, "
            "decay checks and Monte Carlo cross-checks."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, needs_alpha=True):
        sp.add_argument("--p", type=int, required=True, help="prime base")
        if needs_alpha:
            sp.add_argument("--alpha", type=float, required=True,
                            help="integration order (> 1)")
        sp.add_argument("--precision-bits", type=int, default=256)
        sp.add_argument("--log-base", choices=["natural", "p"], default="natural")
        sp.add_argument("--format", choices=["csv", "json"], default="csv")
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)

    def profile_flags(sp):
        sp.add_argument("--monomial", type=float, default=None,
                        help="pure power profile |y|**M")
        sp.add_argument("--indicator", type=int, default=None,
                        help="indicator of the ball |y| <= p**n")
        sp.add_argument("--table", default=None, help="table file path")

    sp = sub.add_parser("constants", help="closed-form constants")
    common(sp)
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--kmax", type=int, default=2)

    sp = sub.add_parser("eval", help="operator values over a ladder")
    common(sp)
    profile_flags(sp)
    sp.add_argument("--coeffs", default=None)
    sp.add_argument("--scales", default=None)
    sp.add_argument("--ladder", required=True)
    sp.add_argument("--dump-table", default=None, help="export the profile")

    sp = sub.add_parser("theorem1", help="origin-side expansion residuals")
    common(sp)
    profile_flags(sp)
    sp.add_argument("--coeffs", default=None)
    sp.add_argument("--scales", default=None)
    sp.add_argument("--order", type=int, default=0)
    sp.add_argument("--ladder", default="-4:-40:-4")

    sp = sub.add_parser("theorem2", help="two-sided radius-power bound")
    common(sp)
    profile_flags(sp)
    sp.add_argument("--beta", type=float, default=None,
                    help="outer decay exponent of min(1, |y|**-beta)")
    sp.add_argument("--ladder", default="4:40:4")

    sp = sub.add_parser("theorem3", help="large-radius log-power residuals")
    common(sp)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--coeffs", default="1")
    sp.add_argument("--order", type=int, default=0)
    sp.add_argument("--ladder", default="4:40:4")

    sp = sub.add_parser("theorem4", help="critical-decay residuals (beta = 1)")
    common(sp)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--coeffs", default="1")
    sp.add_argument("--order", type=int, default=0)
    sp.add_argument("--ladder", default="4:40:4")
    sp.add_argument("--eq13-printed", action="store_true",
                    help="evaluate the printed variant of the critical form")

    sp = sub.add_parser("lemmas", help="tail-decay checks")
    common(sp, needs_alpha=False)
    sp.add_argument("--which", choices=["L1", "L2"], required=True)
    sp.add_argument("--lam", type=float, default=0.5)
    sp.add_argument("--lam-prime", type=float, default=0.7)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--eps", type=float, default=0.05)
    sp.add_argument("--alpha", type=float, default=2.0)
    sp.add_argument("--ladder", default="1:30:1")

    sp = sub.add_parser("mc", help="Monte Carlo cross-check of the operator")
    common(sp)
    profile_flags(sp)
    sp.add_argument("--ladder", default="0:3:1")
    sp.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)

    return parser


def _config(args) -> dict:
    """The run configuration every report echoes, from the parsed flags.

    Its 20 keys are the same for every subcommand: a flag the subcommand
    lacks reads None (``samples`` the default, ``eq13_printed`` false),
    ``table_file`` and ``n_order`` echo ``--table`` and ``--order``, and the
    list flags are parsed here, once, for the subcommands to read.
    """
    ns = vars(args)
    return {
        **{k: ns.get(k) for k in ("alpha", "beta", "gamma", "monomial", "indicator",
                                  "kmax", "which")},
        **{k: _parse_reals(ns[k]) if ns.get(k) else None for k in ("coeffs", "scales")},
        "ladder": _parse_ladder(ns["ladder"]) if "ladder" in ns else None,
        "subcommand": args.subcommand,
        "p": args.p,
        "table_file": ns.get("table"),
        "n_order": ns.get("order"),
        "seed": args.seed,
        "samples": ns.get("samples", DEFAULT_SAMPLES),
        "precision_bits": args.precision_bits,
        "log_base": args.log_base,
        "format": args.format,
        "eq13_printed": ns.get("eq13_printed", False),
    }


def _context(args) -> NumericContext:
    base = LogBase.NATURAL if args.log_base == "natural" else LogBase.BASE_P
    return NumericContext(args.p, precision_bits=args.precision_bits, log_base=base)


def _profile(args) -> RadialFunction | None:
    """The profile of --monomial, --indicator or --table; None without one."""
    makers = {"monomial": Monomial, "indicator": Indicator,
              "table": lambda path: load_table(path, expected_prime=args.p)}
    chosen = [name for name in makers if getattr(args, name) is not None]
    if len(chosen) > 1:
        raise ParamOutOfRange(f"choose one profile flag, got {chosen}")
    return makers[chosen[0]](getattr(args, chosen[0])) if chosen else None


def _monomials(cfg: dict) -> RadialFunction:
    """The sum of c |y|**m over --coeffs/--scales, for a subcommand given no
    profile flag."""
    coeffs, scales = cfg["coeffs"], cfg["scales"]
    if not (coeffs and scales):
        raise ParamOutOfRange(
            f"{cfg['subcommand']} needs a profile (--monomial/--indicator/--table) "
            "or both --coeffs and --scales"
        )
    # theorem1's scan checks the lengths against --order itself
    if cfg["subcommand"] == "eval" and len(coeffs) != len(scales):
        raise ParamOutOfRange("--coeffs and --scales must have equal length")
    return LinearCombo(tuple((c, Monomial(m)) for c, m in zip(coeffs, scales)))


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(cfg: dict, header: list[str], rows: list[tuple]) -> None:
    # a value that overflowed or lost every digit cannot be printed
    # faithfully; fail (exit 3) before the report starts
    for row in rows:
        for name, value in zip(header, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise ArithmeticError(f"{name} is {value!r} at {header[0]}={row[0]}")
    out = sys.stdout
    if cfg["format"] == "csv":
        out.write(f"# config {json.dumps(cfg, sort_keys=True)}\n")
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")
    else:
        payload = {
            "config": cfg,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _run_constants(args, ctx, cfg):
    rows = [
        ("C", "", float(prefactor(ctx, args.alpha))),
        ("U", "", float(unit_kernel_integral(ctx, args.alpha))),
        ("b", 0, float(b_coefficient(0, args.alpha, ctx))),
    ]
    ks = range(_require_count(args.kmax, "kmax") + 1)
    rows += [("Omega", k, float(omega(k, args.alpha, args.beta, ctx))) for k in ks]
    rows += [("OmegaTilde", k, float(omega_tilde(k, args.alpha, ctx))) for k in ks]
    _emit(cfg, ["name", "k", "value"], rows)


def _run_eval(args, ctx, cfg):
    f = _profile(args)
    if f is None:
        f = _monomials(cfg)
    op = _Operator(args.alpha, ctx)
    rows = []
    for x in cfg["ladder"]:
        ov = op.at(f, x)
        rows.append((x, float(ov.value), float(ov.truncation_bound)))
    if args.dump_table:
        dump_table(f, args.dump_table, ctx, cfg["ladder"])
    _emit(cfg, ["x_exp", "value", "truncation_bound"], rows)


_THEOREM_HEADER = ["x_exp", "computed", "predicted", "abs_err", "normalized_err"]


def _run_scan(args, ctx, cfg):
    """theorem1, theorem3, theorem4: residuals against the origin-side
    expansion of a profile or of --coeffs/--scales monomials (T1), or the
    large-radius expansion of sum_n c_n |y|**-beta log|y|**(gamma - n),
    beta < 1 (T3) or beta = 1 (T4)."""
    theorem, coeffs = "T" + args.subcommand[-1], cfg["coeffs"]
    if theorem == "T1":
        f = _profile(args)
        if f is None:
            f = _monomials(cfg)
    else:
        coeffs = coeffs or []  # --coeffs "" echoes null and sums no terms
        beta = 1.0 if theorem == "T4" else cfg["beta"]
        f = LinearCombo(tuple((c, LogPower(beta, cfg["gamma"] - n))
                              for n, c in enumerate(coeffs)))
    report = residual_scan(
        theorem, f, cfg["n_order"], cfg["ladder"], args.alpha, ctx, coeffs=coeffs,
        scales=cfg["scales"], beta=cfg["beta"], gamma=cfg["gamma"],
        printed_form=cfg["eq13_printed"],
    )
    rows = [(r.x_exp, r.computed, r.predicted, r.abs_err, r.normalized_err)
            for r in report.rows]
    _emit(cfg, _THEOREM_HEADER, rows)


def _run_theorem2(args, ctx, cfg):
    f = _profile(args)
    if f is None:
        if args.beta is None:
            raise ParamOutOfRange("theorem2 needs a profile or --beta")
        f = LogPower(args.beta, 0.0)
    # computed |I f(p**x)|, its reference p**(x(alpha-1)) and their ratio
    rows = [(x, float(v), float(K), float(abs(v - K)), float(v / K))
            for x, v, K in _ratios(f, cfg["ladder"], _Operator(args.alpha, ctx))]
    c_hat, d_hat = min(r[-1] for r in rows), max(r[-1] for r in rows)
    spread = d_hat / c_hat if c_hat else float("inf")
    _emit({**cfg, "c_hat": c_hat, "d_hat": d_hat, "spread": spread},
          _THEOREM_HEADER, rows)


def _run_lemmas(args, ctx, cfg):
    if args.which == "L1":
        params = {"lam": args.lam, "lam_prime": args.lam_prime}
    else:
        params = {"k": args.k, "beta": args.beta, "eps": args.eps,
                  "alpha": args.alpha}
    rows = lemma_decay_check(args.which, params, cfg["ladder"], ctx)
    _emit({**cfg, "params": params}, ["x_exp", "value"], rows)


def _run_mc(args, ctx, cfg):
    f = _profile(args)
    if f is None:
        raise ParamOutOfRange("mc needs a profile (--monomial/--indicator/--table)")
    streams = RandomStream(_require_count(args.seed, "--seed")).split(len(cfg["ladder"]))
    op = _Operator(args.alpha, ctx)  # one operator for the estimates and exact values
    samples = _require_samples(args.samples)
    rows = []
    for x, stream in zip(cfg["ladder"], streams):
        estimate, stderr = _mc_eval(f, x, op, samples, stream)
        exact = float(op.at(f, x).value)
        if stderr > 0:
            z = (estimate - exact) / stderr
        else:
            z = 0.0 if estimate == exact else float("inf")
        rows.append((x, estimate, stderr, exact, z))
    _emit(cfg, ["x_exp", "estimate", "stderr", "exact", "z_score"], rows)


_DISPATCH = {
    "constants": _run_constants,
    "eval": _run_eval,
    "theorem1": _run_scan,
    "theorem2": _run_theorem2,
    "theorem3": _run_scan,
    "theorem4": _run_scan,
    "lemmas": _run_lemmas,
    "mc": _run_mc,
}

# a value such as -1,1 or -.5 after a flag: argparse reads it as a flag of its own
_FLAG, _NEGATIVE_VALUE = re.compile(r"--[^=]+"), re.compile(r"-[\d.]")


def _mend_negative_values(argv: list[str]) -> list[str]:
    """Join each '--flag -1,1' pair into '--flag=-1,1' so argparse sees one token."""
    out = []
    for tok in argv:
        if out and _FLAG.fullmatch(out[-1]) and _NEGATIVE_VALUE.match(tok):
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def run(argv=None) -> int:
    """Parse argv, execute the subcommand, stream the report to stdout."""
    argv = _mend_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        ctx = _context(args)
        cfg = _config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _DISPATCH[args.subcommand](args, ctx, cfg)
    except ArithmeticError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
