"""Per-cell Monte Carlo terms: the oracle for the run walk of mc_ialpha_eval.

Each drawn cell's term is formed afresh, the direct way: the profile value
from :func:`eval_sphere` (which rebuilds the runs) and the kernel power from
its own ``p_pow``.  The draws, the working precision, the overflow checks
and the count-weighted estimator are those of the library, so the two agree
bit for bit wherever the working precision leaves the doubles unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from padic_ialpha import RandomStream, eval_sphere, prefactor
from padic_ialpha.core import sample_kernel_exponents


def mc_reference(f, N, alpha, samples: int, seed, ctx):
    """(estimate, stderr) at |x| = p**N from per-cell terms; finite N only."""
    alpha = ctx.real(alpha)
    C = prefactor(ctx, alpha)

    def double(x) -> float:
        try:
            v = float(x)
        except OverflowError:
            v = math.inf
        if not math.isfinite(v):
            raise OverflowError(f"estimate overflows a double at x_exp={N}")
        return v

    with ctx.workprec():
        scale = C * ctx.p_pow(N)
        top = ctx.p_pow((alpha - 1) * N)
        double(scale * top)
    stream = seed if isinstance(seed, RandomStream) else RandomStream(seed)
    j, e, counts = sample_kernel_exponents(ctx, N, samples, stream)
    with ctx.workprec():
        f_N = eval_sphere(f, N, ctx)

        def term(d):
            if d > 0:
                inner = ctx.p_pow((alpha - 1) * (N - d))
                return scale * (top - inner) * eval_sphere(f, N - d, ctx)
            return scale * (ctx.p_pow((alpha - 1) * (N + d)) - top) * f_N

        values = np.array(
            [double(term(d)) if c else 0.0 for d, c in zip((e - j).tolist(), counts)]
        )
    size = 2.0 ** math.frexp(float(np.abs(values).max()))[1]
    unit = values / size
    mean = float(counts @ unit) / samples
    spread = float(counts @ (unit - mean) ** 2)
    return size * mean, size * math.sqrt(spread / (samples - 1) / samples)
