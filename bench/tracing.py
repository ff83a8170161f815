"""Per-layer spans, recorded from outside the library.

``Tracer.install`` rebinds every public function of the five library
modules, on its own module and on every loaded ``spinwigner`` module that
imported it by name (``rindler.validate_density``, ``cli.evaluate``, the
package namespace, ...), to a wrapper that records a span: name, start,
end and parent.  Spans stay in memory while a pass runs.  The library's
files are not edited, and ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
import types
from pathlib import Path

import numpy as np

LAYERS = ("linalg", "su2kernel", "states", "rindler", "quasiprob")


class Tracer:
    def __init__(self, package: types.ModuleType):
        self.package = package
        self.active = False
        self.names: list[str] = []
        self._bindings: list[tuple[types.ModuleType, str, object]] = []
        self._clear()

    def _clear(self) -> None:
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = []
        self.origin = time.perf_counter()

    def begin(self) -> None:
        """Drop the spans held so far and start recording."""
        self._clear()
        self.active = True

    def stop(self) -> None:
        self.active = False

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{self.package.__name__}.{layer}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                ):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        prefix = self.package.__name__ + "."
        modules = [self.package] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)
        ]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._bindings.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._bindings):
            setattr(module, attr, obj)
        self._bindings.clear()

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(self.span_name)
            self.span_name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self._stack.pop()

        return traced

    def summary(self, clock=None) -> tuple[dict[str, tuple[int, float, float]], float]:
        """Per wrapped function: (calls, total_s, self_s); and the summed
        duration of the top-level spans, i.e. all time spent in the library.

        Self time is a span's duration minus that of its direct children.
        ``clock`` maps perf_counter stamps to the times to report (for
        example ``SpeedClock.normalizer()``); by default wall seconds.
        """
        names = np.asarray(self.span_name, dtype=np.intp)
        parent = np.asarray(self.parent, dtype=np.intp)
        clock = clock or np.asarray
        duration = clock(self.end) - clock(self.start)
        nested = parent >= 0
        children = np.zeros_like(duration)
        np.add.at(children, parent[nested], duration[nested])
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        total = np.bincount(names, weights=duration, minlength=width)
        own = np.bincount(names, weights=duration - children, minlength=width)
        per_function = {
            name: (int(calls[i]), float(total[i]), float(own[i])) for i, name in enumerate(self.names)
        }
        return per_function, float(duration[~nested].sum())

    def write_spans(self, path: Path) -> None:
        """Write the spans held as CSV: id, parent, name, start_s, end_s,
        times in seconds since ``begin``."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("id", "parent", "name", "start_s", "end_s"))
            for i, (n, p, s, e) in enumerate(zip(self.span_name, self.parent, self.start, self.end)):
                out.writerow((i, p, self.names[n], f"{s - self.origin:.9f}", f"{e - self.origin:.9f}"))
