"""Per-layer tracing installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper on
every name the package reaches it through: module globals (so
``intervals`` calling its imported ``Phi_interval`` is seen) and values
of module-level dicts (so ``min_coverage`` calling through
``intervals._COVERAGE_BY_RULE`` is seen).  Each wrapper records a span
(name, start, end, parent) and bumps its counters.  A layer's self time
is its spans' duration minus the time covered by their child spans;
calls are sequential, so child spans never overlap.  ``total_s`` is the
duration itself, children included.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

import numpy as np

#: (module, function, metric prefix) for every traced public function.
TARGETS = (
    ("smoothci.gauss", "Phi_interval", "gauss.Phi_interval"),
    ("smoothci.gauss", "Phi", "gauss.Phi"),
    ("smoothci.gauss", "phi", "gauss.phi"),
    ("smoothci.gauss", "quadrature_rule", "gauss.quadrature_rule"),
    ("smoothci.kernel", "k", "kernel.k"),
    ("smoothci.kernel", "r", "kernel.r"),
    ("smoothci.kernel", "r_delta", "kernel.r_delta"),
    ("smoothci.intervals", "coverage_sd", "intervals.coverage_sd"),
    ("smoothci.intervals", "coverage_sd_delta", "intervals.coverage_sd_delta"),
    ("smoothci.intervals", "coverage_pms", "intervals.coverage_pms"),
    ("smoothci.intervals", "sel_sd", "intervals.sel_sd"),
    ("smoothci.intervals", "sel_sd_delta", "intervals.sel_sd_delta"),
    ("smoothci.intervals", "min_coverage", "intervals.min_coverage"),
    ("smoothci.intervals", "curve", "intervals.curve"),
    ("smoothci.intervals", "build_interval", "intervals.build_interval"),
    ("smoothci.oracle", "run", "oracle.run"),
    ("smoothci.oracle", "simulate_pair", "oracle.simulate_pair"),
    ("smoothci.linmod", "load_dataset", "linmod.load_dataset"),
    ("smoothci.linmod", "fit", "linmod.fit"),
    ("smoothci.linmod", "residual_check", "linmod.residual_check"),
    ("smoothci.cli", "main", "cli.main"),
)

_COVERAGE = {
    "intervals.coverage_sd",
    "intervals.coverage_sd_delta",
    "intervals.coverage_pms",
}


class Tracer:
    """Spans and counters for one round of a workload."""

    def __init__(self) -> None:
        self._undo: list = []
        self._stack: list[int] = []
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._rule_ids: set[int] = set()

    def install(self) -> None:
        """Wrap every traced function on every name the package uses."""
        for module_name, attr, prefix in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(prefix, original)
            for name, module in list(sys.modules.items()):
                if name != "smoothci" and not name.startswith("smoothci."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((setattr, module, key, original))
                    elif isinstance(value, dict):
                        for dkey, dval in list(value.items()):
                            if dval is original:
                                value[dkey] = wrapper
                                self._undo.append((dict.__setitem__, value, dkey, original))

    def uninstall(self) -> None:
        for restore, target, key, original in reversed(self._undo):
            restore(target, key, original)
        self._undo.clear()

    def end_operation(self) -> None:
        """Close one operation: its distinct quadrature rules are counted."""
        self.counts["gauss.quadrature_rule.distinct_keys"] += len(self._rule_ids)
        self._rule_ids.clear()

    def _wrap(self, prefix: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((prefix, 0.0, 0.0, parent))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (prefix, start, end, parent)
            counts[prefix + ".calls"] += 1
            if prefix in ("gauss.Phi_interval", "gauss.Phi", "gauss.phi",
                          "kernel.k", "kernel.r", "kernel.r_delta"):
                counts[prefix + ".points"] += int(np.size(result))
            elif prefix == "gauss.quadrature_rule":
                self._rule_ids.add(id(result))
            elif prefix == "oracle.run":
                counts["oracle.run.reps"] += args[0].replications
            elif prefix == "linmod.load_dataset":
                counts["linmod.load_dataset.bytes"] += sum(os.path.getsize(p) for p in args[:4])
            if prefix in _COVERAGE and parent >= 0 and spans[parent][0] == "intervals.min_coverage":
                counts["intervals.min_coverage.coverage_evals"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def take_round(self, names) -> dict[str, float]:
        """The named per-layer metrics of the spans and counts since the last call.

        A name ending in ``self_s`` or ``total_s`` is a time of the span
        its prefix names; any other is a counter, zero where the layer
        did no work.
        """
        self_time: Counter = Counter()
        total_time: Counter = Counter()
        child_time: Counter = Counter()
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            self_time[name] += (end - start) - child_time[index]
            total_time[name] += end - start
        out = {}
        for metric in names:
            prefix, _, field = metric.rpartition(".")
            if field == "self_s":
                out[metric] = float(self_time[prefix])
            elif field == "total_s":
                out[metric] = float(total_time[prefix])
            else:
                out[metric] = float(self.counts[metric])
        self.spans.clear()
        self.counts.clear()
        return out
