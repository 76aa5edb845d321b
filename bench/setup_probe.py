"""Set-up probe: a fresh interpreter brought to workload-ready.

Usage: ``python3 bench/setup_probe.py <workload> <seed> [cycle]``.  It
imports the package, builds every context, profile and table of the seed's
operations and prints ``ready``; ``run.py`` times spawn-to-ready over
several probes.  With ``cycle`` it then runs each operation of one cycle
once and prints the process's peak resident memory in MB, away from the
timed run and its speed probes.
"""

import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def peak_rss_mb():
    """Peak resident memory of this program, in MB.

    Linux's ``ru_maxrss`` survives exec, so it would also count the forked
    copy of the parent; ``VmHWM`` belongs to the program's own memory map.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


ops = workloads.prepare(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
if sys.argv[3:] == ["cycle"]:
    diag = workloads.Diagnostics()
    failed = sum(not workloads.untraced_attempt(op, i, diag)[0] for i, op in enumerate(ops))
    print(peak_rss_mb())
    sys.exit(1 if failed > diag.z_failures else 0)
