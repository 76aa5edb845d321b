"""JSON descriptions of workload inputs, and the calls they stand for.

Every real parameter is stored as a decimal string.  A ``num`` function
turns the strings into the numbers a caller passes: ``float`` for the code
under test (the only kind the CLI passes), ``Fraction`` for the reference
runs, ``int`` for exact-rational operations.

Profile specs::

    ["mono", degree]                    Monomial
    ["ind", n]                          Indicator
    ["logp", beta, gamma]               LogPower
    ["table", j_lo, [values], tail]     Table, tail = [coeff, degree] or None
    ["combo", [[c, spec], ...]]         LinearCombo
"""

from __future__ import annotations

from fractions import Fraction

import padic_ialpha as pi


def profile(spec, num):
    """Build the radial profile a spec describes."""
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


def context(op):
    """The NumericContext an operation runs in: the defaults, or exact rationals."""
    if op.get("exact"):
        return pi.NumericContext(op["p"], exact=True, log_base="base_p")
    return pi.NumericContext(op["p"])


def exact_num(s: str):
    return int(Fraction(s))


def bind(op, ctx, num):
    """Build one library operation's inputs; returns (profile, thunk).

    All parsing and profile construction happens here, so calling the
    thunk runs the library and nothing else.
    """
    kind = op["kind"]
    f = profile(op["f"], num) if "f" in op else None
    alpha = num(op["alpha"]) if "alpha" in op else None
    if kind == "eval":
        N = op["N"]
        return f, lambda: pi.ialpha_eval(f, N, alpha, ctx)
    if kind in ("T1", "T3", "T4"):
        extra = {}
        if "coeffs" in op:
            extra = {"coeffs": [num(c) for c in op["coeffs"]],
                     "scales": [num(s) for s in op["scales"]]}
        if op.get("printed"):
            extra["printed_form"] = True
        order, ladder = op["order"], op["ladder"]
        return f, lambda: pi.residual_scan(kind, f, order, ladder, alpha, ctx, **extra)
    if kind == "ratio":
        ladder = op["ladder"]
        return f, lambda: pi.ratio_bound_check(f, ladder, alpha, ctx)
    if kind in ("L1", "L2"):
        if kind == "L1":
            params = {"lam": num(op["lam"]), "lam_prime": num(op["lam_prime"])}
        else:
            params = {"k": op["k"], "beta": num(op["beta"]), "eps": num(op["eps"]),
                      "alpha": alpha}
        ladder = op["ladder"]
        return None, lambda: pi.lemma_decay_check(kind, params, ladder, ctx)
    raise ValueError(f"no library call for {kind!r}")
