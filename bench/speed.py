"""Machine-speed probes: rescale measured times to a reference speed.

The hosts this benchmark runs on are shared.  Their speed drifts by up to
±30 % over a few seconds while the process stays on-CPU (thread time over
wall time stays near 0.98), so raw wall times of identical work differ more
between runs than most code changes move them.  A fixed probe kernel,
independent of ``padic_ialpha`` and of the same kind of work as the
workload, runs between operations.  Each measured duration is multiplied by
the probe's nominal time over the median of the probe times around it: it
reads as it would on a machine where the probe takes its nominal time.
Raw wall-clock figures are printed next to the scaled ones.

Probe kinds:

* ``mpmath``: 256-bit mpmath powers and logs, like the sphere loop;
* ``numpy``: a random digit matrix (24 MB) and reductions, like the MC
  sampler, large enough to be bound by memory as the sampler is;
* ``spawn``: a fresh interpreter importing numpy, like a set-up probe.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time


def _mpmath_kernel():
    from mpmath import mp

    with mp.workprec(256):
        acc = mp.mpf(0)
        for j in range(1, 40):
            acc += mp.power(3, mp.mpf(j) / 7) * j - mp.log(j + 1)


def _numpy_kernel():
    import numpy as np

    rng = np.random.default_rng(12345)
    differs = rng.integers(0, 3, size=(200_000, 15)) != 1
    first = differs.argmax(axis=1)
    weights = rng.geometric(0.5, size=200_000)
    float((np.power(2.0, 0.7 * first) * weights)[differs.any(axis=1)].mean())


def _spawn_kernel():
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120)


# kind: (kernel, nominal ns on a 2.1 GHz Xeon VM with Python 3.11,
#        measured ns between probes, probes on each side that set a scale)
KINDS = {
    "mpmath": (_mpmath_kernel, 1_600_000, 50_000_000, 5),
    "numpy": (_numpy_kernel, 40_000_000, 400_000_000, 2),
    "spawn": (_spawn_kernel, 185_000_000, 1_500_000_000, 3),
}


class SpeedTrack:
    """Probe times taken between operations, keyed by the next op's index."""

    def __init__(self, kind: str):
        self.kernel, self.nominal_ns, self.every_ns, self.window = KINDS[kind]
        self.at: list[int] = []
        self.ns: list[int] = []

    def mark(self, index: int):
        t0 = time.perf_counter_ns()
        self.kernel()
        self.ns.append(time.perf_counter_ns() - t0)
        self.at.append(index)

    def scale(self, index: int) -> float:
        """Factor that takes a duration measured at op ``index`` to reference speed."""
        j = bisect.bisect_right(self.at, index)
        nearby = self.ns[max(0, j - self.window): j + self.window]
        return self.nominal_ns / statistics.median(nearby)

    def overall(self) -> float:
        return self.nominal_ns / statistics.median(self.ns)
