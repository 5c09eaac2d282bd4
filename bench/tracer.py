"""Outside-in tracer for the levelspectra package.

Wraps the public functions of each layer at every place a ``levelspectra``
module bound them (``from .spectra import exact_zero_multiplicity`` in
``verify`` is a binding of its own, so patching only the defining module
would miss those calls). Each wrapped call records a span: name, start, end
and the index of the enclosing span. Spans stay in memory as parallel lists
of plain numbers, so the garbage collector has nothing to scan while the
program runs; :meth:`Tracer.dump` writes them out at the end.

Nothing inside the program is changed; the wrappers are removed again by
:meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

#: Layer (module) -> public functions whose calls are traced.
LAYERS: dict[str, tuple[str, ...]] = {
    "trees": ("enumerate_rooted_trees", "tree_from_level_sequence",
              "canonical_level_sequence", "delete_leaf"),
    "levelmatrix": ("build_level_matrix", "distance_matrix", "row_sum_difference"),
    "eigen": ("symmetric_eigh",),
    "spectra": ("symmetric_eigenvalues", "exact_zero_multiplicity"),
    "bounds": ("evaluate_checks",),
    "verify": ("verify_order", "extremal_sweep"),
    "cli": ("main",),
}

#: Functions whose dense work is reported as the sum of n**3 over calls.
N3_WORK = ("eigen.symmetric_eigh", "spectra.exact_zero_multiplicity")

NO_PARENT = -1


def _order(matrix) -> int:
    """Order of a square matrix given as an array or a LevelMatrix."""
    return len(getattr(matrix, "entries", matrix))


class Tracer:
    """Collects spans from wrapped layer functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.calls: dict[str, int] = {}
        self.yields: dict[str, int] = {}
        self.n3: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else NO_PARENT)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, func):
        tracer = self
        tracer.calls[name] = 0
        if inspect.isgeneratorfunction(func):
            # A generator does its work inside next(); one span per resumption.
            tracer.yields[name] = 0

            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                inner = func(*args, **kwargs)

                def resume():
                    while True:
                        span = tracer._open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(span)
                        tracer.yields[name] += 1
                        yield item

                return resume()

            return gen_wrapper

        sized = name in N3_WORK
        if sized:
            tracer.n3[name] = 0

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if sized:
                tracer.n3[name] += _order(args[0]) ** 3
            span = tracer._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(span)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package: str = "levelspectra") -> None:
        """Replace every binding of a layer function in the package's
        modules with a tracing wrapper."""
        targets = {}
        for layer, funcs in LAYERS.items():
            module = sys.modules[f"{package}.{layer}"]
            for func_name in funcs:
                func = getattr(module, func_name)
                targets[id(func)] = (func, self._wrap(f"{layer}.{func_name}", func))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the time its child spans cover."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent != NO_PARENT:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, yields, inclusive seconds (outermost spans
        only), self seconds and the n**3 work sum."""
        out: dict[str, dict[str, float]] = {
            name: {"calls": calls, "count": self.yields.get(name, calls),
                   "s": 0.0, "self_s": 0.0, "n3_sum": self.n3.get(name, 0)}
            for name, calls in self.calls.items()
        }
        own = self.self_times()
        for index, name in enumerate(self.names):
            entry = out[name]
            entry["self_s"] += own[index]
            parent = self.parents[index]
            while parent != NO_PARENT and self.names[parent] != name:
                parent = self.parents[parent]
            if parent == NO_PARENT:
                entry["s"] += self.ends[index] - self.starts[index]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": list(zip(self.names, self.starts, self.ends, self.parents))},
                      fh, separators=(",", ":"))
