"""Spans around every call into the package's layers, installed from outside.

``install`` wraps each public function of the layer modules (``core``,
``radial``, ``ialpha``, ``asymptotics``, ``verify``, ``cli``) and rebinds
the wrapper in every ``padic_ialpha`` module namespace that holds the
original, because the modules import names directly (``ialpha.py`` does
``from .radial import eval_sphere``).  ``NumericContext.p_pow`` is wrapped
on the class.  ``src/`` is not edited; ``uninstall`` restores everything.

Spans are aggregated in memory per name: calls, covered time (nested
spans of the same name are not counted twice) and self time, which is the
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("core", "radial", "ialpha", "asymptotics", "verify", "cli")
# public names that a layer does not list in __all__ but that carry work
EXTRA = {"core": ("general_power",)}


class Tracer:
    """Per-name span statistics: [calls, covered_ns, self_ns, active]."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}
        self.hooks: dict[str, object] = {}
        self._child: list[int] = []  # child time of each open span

    def _slot(self, name):
        return self.stats.setdefault(name, [0, 0, 0, 0])

    def _open(self, slot) -> int:
        self._child.append(0)
        slot[3] += 1
        return time.perf_counter_ns()

    def _close(self, slot, t0) -> int:
        dt = time.perf_counter_ns() - t0
        inner = self._child.pop()
        slot[3] -= 1
        slot[0] += 1
        slot[2] += dt - inner
        if not slot[3]:
            slot[1] += dt
        if self._child:
            self._child[-1] += dt
        return dt

    def wrap(self, name, fn):
        slot = self._slot(name)
        hooks = self.hooks

        def traced(*args, **kwargs):
            t0 = self._open(slot)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(slot, t0)
            hook = hooks.get(name)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def span(self, name):
        return _Span(self, self._slot(name))

    def calls(self, name):
        return self.stats.get(name, (0,))[0]

    def covered_s(self, name):
        return self.stats.get(name, (0, 0))[1] / 1e9

    def self_s(self, name):
        return self.stats.get(name, (0, 0, 0))[2] / 1e9

    def dump(self):
        return {name: s[:3] for name, s in self.stats.items() if s[0]}


class _Span:
    """Context-manager span for the benchmark's own steps; ``ns`` is its duration."""

    __slots__ = ("tracer", "slot", "t0", "ns")

    def __init__(self, tracer, slot):
        self.tracer = tracer
        self.slot = slot

    def __enter__(self):
        self.t0 = self.tracer._open(self.slot)
        return self

    def __exit__(self, *exc):
        self.ns = self.tracer._close(self.slot, self.t0)
        return False


def install(tracer: Tracer):
    """Wrap every layer's public functions; returns the undo list."""
    for layer in LAYERS:
        importlib.import_module(f"padic_ialpha.{layer}")
    modules = [m for n, m in list(sys.modules.items())
               if n == "padic_ialpha" or n.startswith("padic_ialpha.")]
    undo = []
    for layer in LAYERS:
        mod = sys.modules[f"padic_ialpha.{layer}"]
        for name in (*mod.__all__, *EXTRA.get(layer, ())):
            orig = getattr(mod, name, None)
            if not inspect.isfunction(orig) or orig.__module__ != mod.__name__:
                continue
            wrapped = tracer.wrap(f"{layer}.{name}", orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        undo.append((m, attr, orig))
                        setattr(m, attr, wrapped)
    cls = sys.modules["padic_ialpha.core"].NumericContext
    orig = cls.__dict__["p_pow"]
    undo.append((cls, "p_pow", orig))
    setattr(cls, "p_pow", tracer.wrap("core.p_pow", orig))
    return undo


def uninstall(undo):
    for obj, attr, orig in reversed(undo):
        setattr(obj, attr, orig)
