"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions of the balltrack modules
(and a few named class methods) with a wrapper that records a span: the
function's name, its layer (the module it lives in), its duration and the
time covered by nested spans.  The replacement is made in every module
namespace that holds the function and in the default arguments that hold
it, so calls made through ``from .x import f`` bindings and through
``physics_window=physics_refine_window`` defaults are seen too.

Spans are aggregated in memory while ``active`` is true and read out with
``totals``.  Nothing in the program is edited; ``uninstall`` puts every
original object back.
"""

from __future__ import annotations

import time
import types
from collections import defaultdict

LAYERS = ("rng", "sim", "video", "tracker", "heatmaps", "physics", "autodiff",
          "losses", "factorial", "selfcheck", "cli")

# autodiff's elementwise helpers (value, relu, asum, ...) run tens of
# thousands of times per selfcheck; a span on each would cost more than the
# work it measures, so that layer is traced at its jacobian entry points
ONLY = {"autodiff": {"jacobian_forward", "jacobian_fd"}}

# class methods traced by name, as "<Class>.<method>"
CLASS_METHODS = {
    "rng": {"RandomStream": ("from_seed", "spawn", "random", "uniform", "normal")},
    "factorial": {"ResponseTable": ("add", "from_rows", "metrics", "value", "missing_cells",
                                    "responses", "add_aggregates")},
}


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0       # inclusive seconds of outermost calls
        self.self_time = 0.0   # seconds not covered by nested spans


class Tracer:
    """Span recorder; one per process, installed once."""

    def __init__(self):
        self.active = False
        self.functions: dict[str, Stat] = defaultdict(Stat)  # "<layer>.<name>"
        self.layers: dict[str, Stat] = defaultdict(Stat)     # entries while the layer is idle
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []   # [layer, name, child_seconds]
        self._undo: list = []

    # ---- recording -----------------------------------------------------
    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        key = f"{layer}.{name}"

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            recursive = any(frame[1] == key for frame in stack)
            entering = not any(frame[0] == layer for frame in stack)
            frame = [layer, key, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][2] += elapsed
                stat = tracer.functions[key]
                stat.calls += 1
                stat.self_time += elapsed - frame[2]
                if not recursive:
                    stat.total += elapsed
                if entering:
                    lstat = tracer.layers[layer]
                    lstat.calls += 1
                    lstat.total += elapsed

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def count(self, key: str, fn):
        """Wrapper that only counts calls (for foreign functions such as FFTs)."""
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    # ---- installation --------------------------------------------------
    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        import importlib

        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        namespaces = [package.__dict__] + [m.__dict__ for m in modules.values()]
        replaced: dict[int, object] = {}

        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ != module.__name__ or name not in ONLY.get(layer, {name}):
                    continue
                # cli commands are named by subcommand: cmd_track -> cli.track
                span = name[4:] if layer == "cli" and name.startswith("cmd_") else name
                replaced[id(obj)] = (obj, self._wrap(layer, span, obj))
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(layer, f"{cls_name}.{meth}", raw.__func__))
                    else:
                        new = self._wrap(layer, f"{cls_name}.{meth}", raw)
                    setattr(cls, meth, new)
                    self._undo.append((setattr, cls, meth, raw))

        for ns in namespaces:
            for name, obj in list(ns.items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    ns[name] = hit[1]
                    self._undo.append((ns.__setitem__, name, obj))
        for original, _ in replaced.values():
            defaults = original.__defaults__
            if defaults and any(id(d) in replaced for d in defaults):
                original.__defaults__ = tuple(
                    replaced[id(d)][1] if id(d) in replaced and replaced[id(d)][0] is d else d
                    for d in defaults)
                self._undo.append((setattr, original, "__defaults__", defaults))

        tracker = modules["tracker"]
        fft = tracker.fftconvolve
        tracker.fftconvolve = self.count("tracker.fft_calls", fft)
        self._undo.append((setattr, tracker, "fftconvolve", fft))

    def uninstall(self) -> None:
        while self._undo:
            fn, *args = self._undo.pop()
            fn(*args)

    # ---- read-out --------------------------------------------------------
    def totals(self) -> dict[str, float]:
        """Flat sums: '<layer>.<fn>.ms|self_ms|calls' and '<layer>.ms|calls'.

        A layer's time is the time during which at least one of its spans was
        open, and its calls are the entries made while none was.
        """
        out: dict[str, float] = {}
        for key, stat in self.functions.items():
            out[f"{key}.ms"] = stat.total * 1e3
            out[f"{key}.self_ms"] = stat.self_time * 1e3
            out[f"{key}.calls"] = float(stat.calls)
        for layer, stat in self.layers.items():
            out[f"{layer}.ms"] = stat.total * 1e3
            out[f"{layer}.calls"] = float(stat.calls)
        for key, n in self.counters.items():
            out[key] = float(n)
        return out
