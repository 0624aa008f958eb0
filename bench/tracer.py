"""Layer spans recorded from outside the program.

`Tracer.install()` wraps every public function that the layer modules of
`dfedsim` define, at each module attribute of the package that holds it.
`scenarios` calls `train_classifier` through its own `scenarios` binding,
`ml_core._sgd` calls `loss_gradients` through `ml_core`, and so on, so
replacing every binding of the function object is what makes the program
call the wrapper. Nothing under `src/` changes.

Spans are folded into per-name totals as they close, rather than kept, so a
traced run holds one record per wrapped function however many calls it
makes. Self time is a span's duration minus the time of the wrapped spans
nested directly inside it. The tracer assumes one thread, which is how the
benchmark drives the program, and no wrapped function that calls itself,
which none of the workloads reach.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "dfedsim"
LAYERS = (
    "ml_core",
    "aggregation",
    "data",
    "clustering",
    "head_selection",
    "energy",
    "scenarios",
    "cli",
)


class Tracer:
    def __init__(self):
        self.wrapped: set[str] = set()
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {}

    def _wrap(self, name: str, fn):
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                record = self.stats.setdefault(name, [0, 0.0, 0.0])
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[0]

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for layer in LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue  # imported from another layer, wrapped there
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn)
                self.wrapped.add(name)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, key, fn))
                            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
