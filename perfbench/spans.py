"""Span tracing of iterl2norm from outside the package.

`Tracer.install` replaces every binding of each traced function in every
loaded `iterl2norm` module with a wrapper: `round_array` is imported by name
into `norm_core`, `baselines` and `experiments`, and `round_value` and
`tree_sum_values` call the `fpformat` global, so patching one module would
miss most calls.  `Tracer.uninstall` puts the original objects back.

A span's self time is its duration minus the time covered by the traced
spans it encloses.  Spans are aggregated per layer as they close (calls and
self seconds) instead of being kept one by one: a single
pass over a workload closes tens of thousands of `round_array` spans.
Counters (elements rounded, bytes read and written, iteration steps) are
taken at the same boundaries.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0


def _count_round_array(tr: "Tracer", args, kwargs, result) -> None:
    tr.counts["fpformat.round_array.elements"] += int(np.size(args[0]))


def _count_iterl2(tr: "Tracer", args, kwargs, result) -> None:
    tr.steps_hist[int(result.steps_taken)] += 1
    if not result.converged:
        tr.counts["norm_core.not_converged_rows"] += 1


def _count_batch(tr: "Tracer", args, kwargs, result) -> None:
    tr.counts["norm_core.normalize_batch.rows"] += int(result.z.shape[0])
    tr.steps_hist[int(result.steps_taken)] += int(result.z.shape[0])


def _count_fisr(tr: "Tracer", args, kwargs, result) -> None:
    tr.counts["baselines.fisr_batch.rows"] += int(result.z.shape[0])


def _count_read(tr: "Tracer", args, kwargs, result) -> None:
    tr.counts["vecio.bytes_read"] += os.path.getsize(args[0])


def _count_write(tr: "Tracer", args, kwargs, result) -> None:
    tr.counts["vecio.bytes_written"] += os.path.getsize(args[0])


# (module, function, counter); each is the layer "<module>.<function>".
TARGETS = (
    ("fpformat", "round_array", _count_round_array),
    ("fpformat", "tree_sum_values", None),
    ("norm_core", "layernorm_iterl2", _count_iterl2),
    ("norm_core", "normalize_batch", _count_batch),
    ("baselines", "reference_batch", None),
    ("baselines", "fisr_batch", _count_fisr),
    ("vecio", "read_vectors", _count_read),
    ("vecio", "write_vectors", _count_write),
    ("cli", "main", None),
)

# Every function of `experiments` together forms the layer "experiments".
LAYERS = tuple(f"{mod}.{fn}" for mod, fn, _ in TARGETS) + ("experiments",)
COUNTS = ("fpformat.round_array.elements", "norm_core.not_converged_rows",
          "norm_core.normalize_batch.rows", "baselines.fisr_batch.rows",
          "vecio.bytes_read", "vecio.bytes_written")


class Tracer:
    """Per-layer spans and counters over the loaded `iterl2norm` modules."""

    def __init__(self) -> None:
        self.reset()
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self.counts: Counter[str] = Counter(dict.fromkeys(COUNTS, 0))
        self.steps_hist: Counter[int] = Counter()
        self._stack: list[float] = []

    def _wrap(self, layer: str, fn, counter):
        stats = self.stats
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                st = stats[layer]
                st.calls += 1
                st.self_s += dt - child
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of every traced function in `iterl2norm.*`."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {name: m for name, m in list(sys.modules.items())
                if m is not None and (name == "iterl2norm" or name.startswith("iterl2norm."))}
        replace: dict[int, object] = {}
        for mod, fn, counter in TARGETS:
            orig = getattr(mods[f"iterl2norm.{mod}"], fn)
            replace[id(orig)] = self._wrap(f"{mod}.{fn}", orig, counter)
        # Every function the experiments module defines forms one layer
        # (input draws, error statistics, CSV rendering, the runners).
        exp = mods["iterl2norm.experiments"]
        for name, obj in vars(exp).items():
            if callable(obj) and getattr(obj, "__module__", None) == exp.__name__ \
                    and not isinstance(obj, type) and id(obj) not in replace:
                replace[id(obj)] = self._wrap("experiments", obj, None)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                new = replace.get(id(obj))
                if new is not None:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, new)
        stats_cls = exp.ErrorStats
        orig_cm = stats_cls.__dict__["from_errors"]
        self._restore.append((stats_cls, "from_errors", orig_cm))
        stats_cls.from_errors = classmethod(self._wrap("experiments", orig_cm.__func__, None))

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()
