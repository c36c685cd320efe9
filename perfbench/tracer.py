"""Span tracer for the traced benchmark run.

The program is not instrumented. Instead, every public function of each
bevsim layer module is wrapped at every place it is bound: the defining
module, the package namespace, and every bevsim module that imported it by
name (``engine`` binds ``pi_step``, ``split_command``, ``battery_step`` and
``target_speed``; ``experiments`` and ``cli`` bind ``run``). Patching only
the defining module would miss those callers.

Each wrapped call records a span (name, start, end, parent span, request
id) into flat typed arrays, so millions of per-step spans stay compact in
memory; they are written out once, at the end. ``experiments``'s process
pool is replaced by a subclass that counts the silent serial fallbacks of
``regen_comparison``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np

LAYERS = (
    "params",
    "cycle",
    "engine",
    "driver",
    "dynamics",
    "powertrain",
    "experiments",
    "cli",
    "plots",
)

# Spans recorded outside any request (benchmark checks) are dropped.
NOT_RECORDING = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = NOT_RECORDING
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function at every bevsim binding site."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        layer_modules = {
            layer: importlib.import_module(f"bevsim.{layer}") for layer in LAYERS
        }
        sites = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "bevsim" or name.startswith("bevsim.")
        ]
        for layer, mod in layer_modules.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for site in sites:
                    for key, value in list(vars(site).items()):
                        if value is fn:
                            setattr(site, key, wrapper)
                            self._patched.append((site, key, fn))
        experiments = layer_modules["experiments"]
        self._patched.append(
            (experiments, "ProcessPoolExecutor", experiments.ProcessPoolExecutor)
        )
        experiments.ProcessPoolExecutor = self._counting_pool()

    def uninstall(self) -> None:
        for site, key, original in reversed(self._patched):
            setattr(site, key, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = _RETURN_HOOKS.get(name)
        starts, ends, names, parents, requests = (
            self.start, self.end, self.name, self.parent, self.request
        )
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rid = tracer.request_id
            if rid == NOT_RECORDING:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(rid)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    def _counting_pool(self):
        counters = self.counters

        class CountingPool(ProcessPoolExecutor):
            """Counts the OSError/RuntimeError escapes that make
            ``regen_comparison`` fall back to serial legs."""

            def __init__(self, *args, **kwargs):
                try:
                    super().__init__(*args, **kwargs)
                except (OSError, RuntimeError):
                    counters["experiments.pool_fallbacks"] += 1
                    raise

            def __exit__(self, exc_type, exc, tb):
                if exc_type is not None and issubclass(
                    exc_type, (OSError, RuntimeError)
                ):
                    counters["experiments.pool_fallbacks"] += 1
                return super().__exit__(exc_type, exc, tb)

        return CountingPool

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(start)
        )
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "request": np.frombuffer(self.request, dtype=np.int32),
            "duration": duration,
            "self": duration - child_time,
        }

    def write(self, path: str) -> None:
        """Write every span (plus the name table) as one .npz file."""
        a = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name=a["name"],
            start=a["start"],
            end=a["end"],
            parent=a["parent"],
            request=a["request"],
        )

    def layer_stats(self, functions: tuple[str, ...]) -> dict[str, float]:
        """Calls, busy time and self time per layer and per named function.

        A layer's busy time counts a span only when no enclosing span
        belongs to the same layer, so calls nested inside one layer are not
        counted twice. A function's busy time is its spans' total duration
        (none of the named functions recurse).
        """
        a = self.arrays()
        name = a["name"]
        layer_of_name = [LAYERS.index(n.split(".")[0]) for n in self.names]
        layer = np.asarray(layer_of_name, dtype=np.int64)[name]
        # Parents precede children, so one forward pass gives each span the
        # set of layers among its ancestors (one bit per layer).
        layers = layer.tolist()
        ancestors = [0] * len(layers)
        for i, p in enumerate(a["parent"].tolist()):
            if p >= 0:
                ancestors[i] = ancestors[p] | (1 << layers[p])
        outermost = (np.asarray(ancestors, dtype=np.int64) >> layer) & 1 == 0

        def add(prefix: str, mask: np.ndarray, busy: np.ndarray) -> None:
            stats[f"{prefix}.calls"] = int(np.count_nonzero(mask))
            stats[f"{prefix}.busy_s"] = float(a["duration"][busy].sum())
            stats[f"{prefix}.self_s"] = float(a["self"][mask].sum())

        stats: dict[str, float] = {}
        for li, lname in enumerate(LAYERS):
            mask = layer == li
            add(lname, mask, mask & outermost)
        for fname in functions:
            mask = name == self.names.index(fname)
            add(fname, mask, mask)
        return stats


def _count_run(counters, args, kwargs, result) -> None:
    trace, summary, _ = result
    config = args[0]
    counters["engine.run_steps"] += round(summary.duration_s / config.sim.dt)
    counters["engine.trace_rows"] += len(trace)


def _count_step(counters, args, kwargs, result) -> None:
    counters["engine.step_steps"] += 1


def _count_plot_input(counters, args, kwargs, result) -> None:
    # Input points per series of a trace plot; the SVG gives points kept.
    counters["plots.points_in"] += len(args[0])


_RETURN_HOOKS = {
    "engine.run": _count_run,
    "engine.step": _count_step,
    "plots.emit_plot": _count_plot_input,
}
