"""In-memory span tracing of the package's public functions.

The tracer wraps each function named in LAYERS and also replaces every copy
another module imported (`cli.audit_state`, `bounds.upsilon`, the package
namespace, ...), so calls are caught whichever name they go through.  A span
is (function, start_ns, end_ns, parent span, run id).  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from collections import Counter

PACKAGE = "design_uncertainty"

# module -> wrapped functions; names in the output are "<module>.<function>"
LAYERS = {
    "upsilon": ("upsilon", "upsilon_nr1"),
    "bounds": ("audit_state", "bound_prop1", "bound_prop2",
               "landau_pollak_cap"),
    "moments": ("sym_moment", "beta_parameters"),
    "quantum": ("power_moments", "partial_trace", "random_density"),
    "designs": ("all_outcome_probabilities", "outcome_probabilities",
                "builtin_design", "assign_povms"),
    "entropy": ("renyi_entropy", "conditional_renyi_arimoto"),
    "steering": ("conditioned_ensemble", "steering_check_renyi",
                 "steering_check_maxprob"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# functions whose per-call latency percentiles are reported
PERCENTILES = {"upsilon.upsilon": ("p50_us", "p99_us"),
               "bounds.audit_state": ("p50_us", "p99_us"),
               "steering.conditioned_ensemble": ("p50_us",)}

# upsilon iteration histogram: (metric suffix, lowest, highest) inclusive
ITER_BINS = (("iters_0", 0, 0), ("iters_1_4", 1, 4), ("iters_5_8", 5, 8),
             ("iters_9_32", 9, 32), ("iters_33_up", 33, None))
DEFAULT_MAX_ITER = 200


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.calls_per_item"] = "1/item"
        units[f"{name}.self_ms"] = "ms"
        for stat in PERCENTILES.get(name, ()):
            units[f"{name}.{stat}"] = "us"
    ups = "upsilon.upsilon"
    units[f"{ups}.iters_mean"] = "count"
    units[f"{ups}.iters_max"] = "count"
    units[f"{ups}.maxiter_hits"] = "count"
    for suffix, _, _ in ITER_BINS:
        units[f"{ups}.{suffix}"] = "count"
    units[f"{ups}.distinct_beta_frac"] = "ratio"
    units[f"{ups}.residual_max"] = "rel"
    units["cli.output_bytes"] = "bytes"
    units["trace.overhead_frac"] = "ratio"
    return units


def is_count(name: str) -> bool:
    """Whether a per-layer metric must repeat exactly on one seed."""
    return not (name.endswith(("_ms", "_us")) or name == "trace.overhead_frac")


class Tracer:
    """Records spans for the wrapped functions between install() and
    uninstall().  Each traced rep gets its own run id."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.upsilon_calls: list[tuple] = []   # (run, args, kwargs, result)
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        upsilon_mod = sys.modules[f"{PACKAGE}.upsilon"]
        self._upsilon_sig = inspect.signature(upsilon_mod.upsilon)

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for mod_name, fns in LAYERS.items():
            owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if owner is None:          # not imported by this workload
                continue
            for fn in fns:
                original = getattr(owner, fn)
                wrapper = self._wrap(f"{mod_name}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = self._observe_upsilon if name == "upsilon.upsilon" else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_upsilon(self, args, kwargs, result) -> None:
        self.upsilon_calls.append((self.run_id, args, kwargs, result))

    def _upsilon_records(self, run) -> list[tuple]:
        """(query key, iterations, residual) of each upsilon call in a run."""
        records = []
        for call_run, args, kwargs, result in self.upsilon_calls:
            if call_run != run:
                continue
            bound = self._upsilon_sig.bind(*args, **kwargs).arguments
            records.append(((bound["n"], bound["t"], float(bound["beta"])),
                            getattr(result, "iterations", None),
                            getattr(result, "residual", None)))
        return records

    def write_spans(self, path, run_id: int) -> None:
        """Write the spans of one traced rep as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start_ns", "end_ns", "parent",
                                 "run"]) + "\n")
            for span in self.spans:
                if span[4] == run_id:
                    fh.write(json.dumps(span) + "\n")

    def metrics(self, items: int, traced_walls: list[float],
                untraced_walls: list[float], output_bytes: int,
                max_iter: int = DEFAULT_MAX_ITER) -> dict[str, float]:
        """Per-layer metrics over the traced reps (run ids 1..R).

        Counts come from the reps and must be identical in every one of
        them; times are the median over reps (self time) or pooled over
        every call (percentiles)."""
        runs = sorted({span[4] for span in self.spans})
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = {run: Counter() for run in runs}
        self_ns = {run: Counter() for run in runs}
        durations: dict[str, list[int]] = {name: [] for name in PERCENTILES}
        for i, (name, start, end, _, run) in enumerate(self.spans):
            calls[run][name] += 1
            self_ns[run][name] += end - start - child[i]
            if name in PERCENTILES:
                durations[name].append(end - start)
        for run in runs[1:]:
            if calls[run] != calls[runs[0]]:
                raise RuntimeError("call counts differ between traced reps "
                                   "of the same input")
        out: dict[str, float] = {}
        first = calls[runs[0]]
        for name in FUNCTIONS:
            out[f"{name}.calls"] = first[name]
            out[f"{name}.calls_per_item"] = first[name] / items
            out[f"{name}.self_ms"] = statistics.median(
                self_ns[run][name] for run in runs) / 1e6
            for stat in PERCENTILES.get(name, ()):
                q = 0.5 if stat == "p50_us" else 0.99
                out[f"{name}.{stat}"] = _quantile(durations[name], q) / 1e3
        out.update(self._upsilon_stats(runs[0], max_iter))
        out["cli.output_bytes"] = output_bytes
        out["trace.overhead_frac"] = (statistics.median(traced_walls)
                                      / statistics.median(untraced_walls) - 1.0)
        return out

    def _upsilon_stats(self, run, max_iter: int) -> dict[str, float]:
        ups = "upsilon.upsilon"
        calls = self._upsilon_records(run)
        other_runs = {call[0] for call in self.upsilon_calls} - {run}
        for other in other_runs:
            if self._upsilon_records(other) != calls:
                raise RuntimeError("upsilon calls differ between traced reps "
                                   "of the same input")
        iters = [c[1] for c in calls if c[1] is not None]
        residuals = [c[2] for c in calls if c[2] is not None]
        out = {f"{ups}.iters_mean": statistics.fmean(iters) if iters else 0.0,
               f"{ups}.iters_max": max(iters, default=0),
               f"{ups}.maxiter_hits": sum(i >= max_iter for i in iters)}
        for suffix, lo, hi in ITER_BINS:
            out[f"{ups}.{suffix}"] = sum(
                lo <= i and (hi is None or i <= hi) for i in iters)
        out[f"{ups}.distinct_beta_frac"] = (
            len({c[0] for c in calls}) / len(calls) if calls else 0.0)
        out[f"{ups}.residual_max"] = max(residuals, default=0.0)
        return out


def _quantile(values: list[int], q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])
