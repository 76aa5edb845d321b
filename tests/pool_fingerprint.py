"""One hash per benchmark pool, over the bits of every output of every operation in it.

Prints ``<pool> <sha256>`` for each pool of ``bench/refs`` (eval, ladder,
mc).  Two checkouts print the same hashes exactly when they compute the
same bits for every operation of every pool, all stored variants included:

* ``ialpha_eval``: the raw mpf (sign, mantissa, exponent, bit count) of
  the value and of the truncation bound, and ``j_cut``; Fractions in
  exact mode;
* ``residual_scan`` (T1, T3, T4), ``ratio_bound_check`` and
  ``lemma_decay_check``: every row, each float as hex;
* ``mc_ialpha_eval`` at the benchmark's 10**6 samples and seeds 1 and 2:
  the estimate and its standard error as hex;
* CLI calls: the stdout of ``padic_ialpha.cli.run``, in-process.

An operation that raises hashes its exception's type and message.  The
pools are read from ``bench/refs``; nothing there is written.  Run from
the repository root:

    python3 tests/pool_fingerprint.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import padic_ialpha as pi  # noqa: E402
from padic_ialpha.cli import run as cli_run  # noqa: E402

POOLS = ("eval", "ladder", "mc")
MC_SAMPLES = 10**6
MC_SEEDS = (1, 2)


def profile(spec, num):
    """The radial profile of a pool's profile spec (see ``bench/specs.py``)."""
    kind = spec[0]
    if kind == "mono":
        return pi.Monomial(num(spec[1]))
    if kind == "ind":
        return pi.Indicator(int(spec[1]))
    if kind == "logp":
        return pi.LogPower(num(spec[1]), num(spec[2]))
    if kind == "table":
        _, j_lo, values, tail = spec
        inner = pi.ZeroTail() if tail is None else pi.PowerTail(num(tail[0]), num(tail[1]))
        return pi.Table(int(j_lo), tuple(num(v) for v in values), inner)
    if kind == "combo":
        return pi.LinearCombo(tuple((num(c), profile(g, num)) for c, g in spec[1]))
    raise ValueError(f"unknown profile spec {spec!r}")


def canon(x):
    """x as plain data whose repr holds every bit of it."""
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, float):
        return x.hex()
    if hasattr(x, "_mpf_"):
        return ["mpf", *x._mpf_]
    if isinstance(x, Fraction):
        return ["frac", x.numerator, x.denominator]
    if isinstance(x, pi.OperatorValue):
        return canon([x.value, x.truncation_bound, x.j_cut])
    if isinstance(x, pi.ResidualReport):
        return canon([[r.x_exp, r.computed, r.predicted, r.abs_err, r.normalized_err]
                      for r in x.rows])
    if x is pi.ZERO:
        return "ZERO"
    return x  # ints, strings, bools


def outputs(op):
    """The outputs of one pool operation, as :func:`canon` data."""
    kind = op["kind"]
    if kind == "cli":
        with contextlib.redirect_stdout(io.StringIO()) as out:
            status = cli_run(list(op["argv"]))
        return [status, out.getvalue()]
    exact = bool(op.get("exact"))
    num = (lambda s: int(Fraction(s))) if exact else float
    ctx = (pi.NumericContext(op["p"], exact=True, log_base="base_p") if exact
           else pi.NumericContext(op["p"]))
    f = profile(op["f"], num) if "f" in op else None
    alpha = num(op["alpha"]) if "alpha" in op else None
    if kind == "eval":
        return canon(pi.ialpha_eval(f, op["N"], alpha, ctx))
    if kind == "mc":
        return canon([pi.mc_ialpha_eval(f, op["N"], alpha, MC_SAMPLES, seed, ctx)
                      for seed in MC_SEEDS])
    if kind in ("T1", "T3", "T4"):
        extra = {}
        if "coeffs" in op:
            extra = {"coeffs": [num(c) for c in op["coeffs"]],
                     "scales": [num(s) for s in op["scales"]]}
        if op.get("printed"):
            extra["printed_form"] = True
        return canon(pi.residual_scan(kind, f, op["order"], op["ladder"], alpha, ctx,
                                      **extra))
    if kind == "ratio":
        return canon(pi.ratio_bound_check(f, op["ladder"], alpha, ctx))
    if kind == "L1":
        params = {"lam": num(op["lam"]), "lam_prime": num(op["lam_prime"])}
    elif kind == "L2":
        params = {"k": op["k"], "beta": num(op["beta"]), "eps": num(op["eps"]),
                  "alpha": alpha}
    else:
        raise ValueError(f"unknown operation kind {kind!r}")
    return canon(pi.lemma_decay_check(kind, params, op["ladder"], ctx))


def fingerprint(pool: str) -> str:
    data = json.loads((ROOT / "bench" / "refs" / f"{pool}.json").read_text())
    digest = hashlib.sha256()
    for template in sorted(data["pool"]):
        for i, op in enumerate(data["pool"][template]):
            try:
                out = outputs(op)
            except Exception as exc:  # a raising operation is an output too
                out = ["raised", type(exc).__name__, str(exc)]
            digest.update(repr([template, i, out]).encode())
    return digest.hexdigest()


def main() -> None:
    for pool in sys.argv[1:] or POOLS:
        print(pool, fingerprint(pool), flush=True)


if __name__ == "__main__":
    main()
