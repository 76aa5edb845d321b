"""Command-line front end: constants, operator ladders, residual scans, MC.

Reports stream to stdout as CSV (default) or JSON; every report embeds the
full run configuration, including the seed and working precision, so a rerun
of the same argv is byte-identical.  Exit status: 0 success, 2 validation
error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field

from .asymptotics import b_coefficient, omega, omega_tilde
from .core import (
    LogBase,
    MissingTail,
    NumericContext,
    ParamOutOfRange,
    ParseError,
    RandomStream,
    prefactor,
    unit_kernel_integral,
)
from .ialpha import mc_ialpha_eval
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
from .verify import lemma_decay_check, ratio_bound_check, residual_scan

__all__ = ["RunConfig", "dump_table", "load_table", "main", "run"]

DEFAULT_SEED = 20250801
DEFAULT_SAMPLES = 100_000
TABLE_MAGIC = "#padic-radial v1"


@dataclass(frozen=True)
class RunConfig:
    """Echo of one CLI invocation, embedded in every report."""

    subcommand: str
    p: int
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None
    coeffs: list | None = None
    scales: list | None = None
    monomial: float | None = None
    indicator: int | None = None
    table_file: str | None = None
    ladder: list | None = None
    n_order: int | None = None
    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES
    precision_bits: int = 256
    log_base: str = "natural"
    format: str = "csv"
    kmax: int | None = None
    eq13_printed: bool = False
    which: str | None = None
    extra: dict = field(default_factory=dict)


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
    values: dict[int, float] = {}
    last = None
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
        if j in values:
            raise ParseError(f"duplicate exponent {j}", line=i)
        if last is not None and j <= last:
            raise ParseError(f"exponents must strictly increase at {j}", line=i)
        if last is not None and j != last + 1:
            raise ParseError(f"exponent gap before {j}", line=i)
        values[j] = v
        last = j
    if not values:
        raise ParseError("table has no value rows", line=len(lines))
    return Table.from_values(values, inner, outer)


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
    to the last tabulated row of the profile.
    """
    j_lo, j_hi = min(j_range), max(j_range)
    outer = outer_expansion(f, ctx)
    if outer is not None and 0 <= outer[0] <= 1:
        outer, runs = OuterTail(*outer), sphere_segments(f, math.inf, ctx)
        j_hi = max([j_hi] + [r.lo - 1 if r.hi == math.inf else r.hi for r in runs])
    else:
        outer, runs = None, sphere_segments(f, j_hi, ctx)
        while True:
            try:
                above = sphere_segments(f, j_hi + 1, ctx)
            except MissingTail:  # a table without an outer tail ends here
                break
            if not any(isinstance(r, ValueRun) and r.hi > j_hi for r in above):
                break
            runs, j_hi = above, j_hi + 1
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
        return [int(parts[0])]
    if len(parts) != 3:
        raise ParamOutOfRange(f"--ladder must be start:stop:step, got {raw!r}")
    start, stop, step = (int(x) for x in parts)
    if step == 0:
        raise ParamOutOfRange("--ladder step must be nonzero")
    out = []
    v = start
    if step > 0:
        while v <= stop:
            out.append(v)
            v += step
    else:
        while v >= stop:
            out.append(v)
            v += step
    if not out:
        raise ParamOutOfRange(f"--ladder {raw!r} is empty")
    return out


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


def _context(args) -> NumericContext:
    base = LogBase.NATURAL if args.log_base == "natural" else LogBase.BASE_P
    return NumericContext(args.p, precision_bits=args.precision_bits, log_base=base)


def _profile(args, ctx) -> RadialFunction:
    chosen = [
        name
        for name in ("monomial", "indicator", "table")
        if getattr(args, name, None) is not None
    ]
    if len(chosen) > 1:
        raise ParamOutOfRange(f"choose one profile flag, got {chosen}")
    if getattr(args, "table", None) is not None:
        return load_table(args.table, expected_prime=args.p)
    if getattr(args, "monomial", None) is not None:
        return Monomial(args.monomial)
    if getattr(args, "indicator", None) is not None:
        return Indicator(args.indicator)
    return None


def _log_power_combo(beta: float, gamma: float, coeffs: list[float]) -> RadialFunction:
    return LinearCombo(
        tuple((c, LogPower(beta, gamma - n)) for n, c in enumerate(coeffs))
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(config: RunConfig, header: list[str], rows: list[tuple], fmt: str,
          out=None) -> None:
    # a value that overflowed or lost every digit cannot be printed
    # faithfully; fail (exit 3) before the report starts
    for row in rows:
        for name, value in zip(header, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise ArithmeticError(f"{name} is {value!r} at {header[0]}={row[0]}")
    out = out or sys.stdout
    cfg = {k: v for k, v in asdict(config).items() if k != "extra"}
    cfg.update(config.extra)
    if fmt == "csv":
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

def _run_constants(args, ctx, config):
    rows = [
        ("C", "", float(prefactor(ctx, args.alpha))),
        ("U", "", float(unit_kernel_integral(ctx, args.alpha))),
        ("b", 0, float(b_coefficient(0, args.alpha, ctx))),
    ]
    for k in range(args.kmax + 1):
        rows.append(("Omega", k, float(omega(k, args.alpha, args.beta, ctx))))
    for k in range(args.kmax + 1):
        rows.append(("OmegaTilde", k, float(omega_tilde(k, args.alpha, ctx))))
    _emit(config, ["name", "k", "value"], rows, args.format)


def _run_eval(args, ctx, config):
    f = _profile(args, ctx)
    if f is None and args.coeffs and args.scales:
        coeffs = _parse_reals(args.coeffs)
        scales = _parse_reals(args.scales)
        if len(coeffs) != len(scales):
            raise ParamOutOfRange("--coeffs and --scales must have equal length")
        f = LinearCombo(tuple((c, Monomial(m)) for c, m in zip(coeffs, scales)))
    if f is None:
        raise ParamOutOfRange("eval needs a profile (--monomial/--indicator/--table)")
    ladder = _parse_ladder(args.ladder)
    op = _Operator(args.alpha, ctx)
    rows = []
    for x in ladder:
        ov = op.at(f, x)
        rows.append((x, float(ov.value), float(ov.truncation_bound)))
    if args.dump_table:
        dump_table(f, args.dump_table, ctx, ladder)
    _emit(config, ["x_exp", "value", "truncation_bound"], rows, args.format)


def _residual_rows(report):
    return [
        (r.x_exp, r.computed, r.predicted, r.abs_err, r.normalized_err)
        for r in report.rows
    ]


_THEOREM_HEADER = ["x_exp", "computed", "predicted", "abs_err", "normalized_err"]


def _run_theorem1(args, ctx, config):
    f = _profile(args, ctx)
    coeffs = _parse_reals(args.coeffs) if args.coeffs else None
    scales = _parse_reals(args.scales) if args.scales else None
    if f is None:
        if not (coeffs and scales):
            raise ParamOutOfRange(
                "theorem1 needs a profile or --coeffs/--scales monomials"
            )
        f = LinearCombo(tuple((c, Monomial(m)) for c, m in zip(coeffs, scales)))
    ladder = _parse_ladder(args.ladder)
    report = residual_scan(
        "T1", f, args.order, ladder, args.alpha, ctx, coeffs=coeffs, scales=scales
    )
    _emit(config, _THEOREM_HEADER, _residual_rows(report), args.format)


def _run_theorem2(args, ctx, config):
    f = _profile(args, ctx)
    if f is None:
        if args.beta is None:
            raise ParamOutOfRange("theorem2 needs a profile or --beta")
        f = LogPower(args.beta, 0.0)
    ladder = _parse_ladder(args.ladder)
    c_hat, d_hat, rows = ratio_bound_check(f, ladder, args.alpha, ctx)
    config = _with_extra(config, {"c_hat": c_hat, "d_hat": d_hat,
                                  "spread": d_hat / c_hat if c_hat else float("inf")})
    a = ctx.real(args.alpha)
    out_rows = []
    for x, ratio in rows:
        reference = ctx.p_pow(x * (a - 1))
        computed = ratio * reference
        out_rows.append((x, float(computed), float(reference),
                         float(abs(computed - reference)), ratio))
    _emit(config, _THEOREM_HEADER, out_rows, args.format)


def _run_theorem3(args, ctx, config):
    coeffs = _parse_reals(args.coeffs)
    f = _log_power_combo(args.beta, args.gamma, coeffs)
    ladder = _parse_ladder(args.ladder)
    report = residual_scan(
        "T3", f, args.order, ladder, args.alpha, ctx,
        coeffs=coeffs, beta=args.beta, gamma=args.gamma,
    )
    _emit(config, _THEOREM_HEADER, _residual_rows(report), args.format)


def _run_theorem4(args, ctx, config):
    coeffs = _parse_reals(args.coeffs)
    f = _log_power_combo(1.0, args.gamma, coeffs)
    ladder = _parse_ladder(args.ladder)
    report = residual_scan(
        "T4", f, args.order, ladder, args.alpha, ctx,
        coeffs=coeffs, gamma=args.gamma, printed_form=args.eq13_printed,
    )
    _emit(config, _THEOREM_HEADER, _residual_rows(report), args.format)


def _run_lemmas(args, ctx, config):
    ladder = _parse_ladder(args.ladder)
    if args.which == "L1":
        params = {"lam": args.lam, "lam_prime": args.lam_prime}
    else:
        params = {"k": args.k, "beta": args.beta, "eps": args.eps,
                  "alpha": args.alpha}
    rows = lemma_decay_check(args.which, params, ladder, ctx)
    config = _with_extra(config, {"params": params})
    _emit(config, ["x_exp", "value"], rows, args.format)


def _run_mc(args, ctx, config):
    f = _profile(args, ctx)
    if f is None:
        raise ParamOutOfRange("mc needs a profile (--monomial/--indicator/--table)")
    ladder = _parse_ladder(args.ladder)
    streams = RandomStream(args.seed).split(len(ladder))
    op = _Operator(args.alpha, ctx)
    rows = []
    for x, stream in zip(ladder, streams):
        estimate, stderr = mc_ialpha_eval(
            f, x, args.alpha, args.samples, stream, ctx
        )
        exact = float(op.at(f, x).value)
        if stderr > 0:
            z = (estimate - exact) / stderr
        else:
            z = 0.0 if estimate == exact else float("inf")
        rows.append((x, estimate, stderr, exact, z))
    _emit(config, ["x_exp", "estimate", "stderr", "exact", "z_score"], rows,
          args.format)


def _with_extra(config: RunConfig, extra: dict) -> RunConfig:
    merged = dict(config.extra)
    merged.update(extra)
    return RunConfig(**{**{k: v for k, v in asdict(config).items() if k != "extra"},
                        "extra": merged})


_DISPATCH = {
    "constants": _run_constants,
    "eval": _run_eval,
    "theorem1": _run_theorem1,
    "theorem2": _run_theorem2,
    "theorem3": _run_theorem3,
    "theorem4": _run_theorem4,
    "lemmas": _run_lemmas,
    "mc": _run_mc,
}


def _config_from_args(args) -> RunConfig:
    ns = vars(args)
    ladder = ns.get("ladder")
    return RunConfig(
        subcommand=args.subcommand,
        p=args.p,
        alpha=ns.get("alpha"),
        beta=ns.get("beta"),
        gamma=ns.get("gamma"),
        coeffs=_parse_reals(ns["coeffs"]) if ns.get("coeffs") else None,
        scales=_parse_reals(ns["scales"]) if ns.get("scales") else None,
        monomial=ns.get("monomial"),
        indicator=ns.get("indicator"),
        table_file=ns.get("table"),
        ladder=_parse_ladder(ladder) if ladder else None,
        n_order=ns.get("order"),
        seed=ns.get("seed", DEFAULT_SEED),
        samples=ns.get("samples", DEFAULT_SAMPLES),
        precision_bits=ns.get("precision_bits", 256),
        log_base=ns.get("log_base", "natural"),
        format=ns.get("format", "csv"),
        kmax=ns.get("kmax"),
        eq13_printed=ns.get("eq13_printed", False),
        which=ns.get("which"),
    )


def _mend_negative_values(argv: list[str]) -> list[str]:
    """Join '--ladder -4:4:4' style pairs so argparse sees one token."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--ladder" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def run(argv=None) -> int:
    """Parse argv, execute the subcommand, stream the report to stdout."""
    if argv is None:
        argv = sys.argv[1:]
    argv = _mend_negative_values(list(argv))
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        ctx = _context(args)
        config = _config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _DISPATCH[args.subcommand](args, ctx, config)
    except ArithmeticError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())
