"""Spans recorded around calls into coalstab, from outside the program.

Each traced function is replaced by a wrapper at every module where its name
is bound (``subset_structure_table`` lives in both ``cores`` and ``sam``, the
CLI binds several library functions), so calls are caught whichever binding
the caller uses. A span is (op, name, start, end, parent); counts derived
from a call's arguments and result ride on the span. Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time


def _cells(args, kwargs, result):
    return {"cells": 3 ** args[1]}


def _steps(args, kwargs, result):
    return {"steps": len(result.steps)}


def _lp(args, kwargs, result):
    lp = args[0]
    return {"rows": len(lp.constraints), "vars": lp.num_vars,
            "feasible": int(result.status == "optimal")}


def _weak_cells(args, kwargs, result):
    # the deficiency table is only built for efficient, individually rational inputs
    return {"cells": 0 if result.reason else 3 ** args[0].n}


def _partitions(args, kwargs, result):
    return {"partitions": len(result)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, function, counts derived from arguments and result)
TARGETS = (
    ("cores", "subset_structure_table", _cells),
    ("sam", "sam_run", _steps),
    ("sam", "best_coarsening", None),
    ("sam", "best_refinement", None),
    ("ratlp", "lp_solve", _lp),
    ("ratlp", "balancedness_value", None),
    ("cores", "weak_core_nonempty", None),
    ("cores", "weak_core_contains", _weak_cells),
    ("cores", "strong_core_nonempty", None),
    ("cores", "strong_core_contains", None),
    ("cores", "medium_core_contains", None),
    ("stability", "stable_contains", None),
    ("stability", "blockwise_core_contains", None),
    ("stability", "blockwise_core_nonempty", None),
    ("stability", "enumerate_stable_partitions", None),
    ("lattice", "all_partitions", _partitions),
    ("game", "subgame", None),
    ("io", "load_game", _file_bytes),
    ("cli", "main", None),
)

# per-layer metric name -> unit, in report order
LAYER_METRICS = {}
for _module, _fn, _count in TARGETS:
    _base = f"{_module}.{_fn}"
    LAYER_METRICS[f"{_base}.calls"] = "count"
    LAYER_METRICS[f"{_base}.self_s"] = "s"
LAYER_METRICS.update({
    "cores.subset_structure_table.cells": "count",
    "sam.sam_run.steps": "count",
    "ratlp.lp_solve.rows": "count",
    "ratlp.lp_solve.vars": "count",
    "ratlp.lp_solve.feasible_ratio": "ratio",
    "cores.weak_core_nonempty.lp_solves": "count",
    "cores.weak_core_contains.cells": "count",
    "lattice.all_partitions.partitions": "count",
    "io.load_game.bytes": "bytes",
    "cli.main.stdout_bytes": "bytes",
})


class Tracer:
    """In-memory span store with a stack of open spans (one thread only)."""

    def __init__(self):
        self.spans = []  # [op, name, start, end, parent, counts]
        self.stack = []
        self.op = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.op, name, time.perf_counter(), None, parent, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        # an op abandoned at its deadline can leave inner spans open
        while self.stack and self.stack.pop() != idx:
            pass

    def end_op(self) -> None:
        """Close whatever an abandoned op left open."""
        now = time.perf_counter()
        for idx in self.stack:
            self.spans[idx][3] = now
        self.stack.clear()

    def clear(self) -> None:
        self.spans.clear()
        self.stack.clear()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for op, name, start, end, parent, counts in self.spans:
                handle.write(json.dumps({"op": op, "name": name, "start": start, "end": end,
                                         "parent": parent, "counts": counts}) + "\n")

    def metrics(self) -> dict:
        """Per-layer totals: calls, self time, and the derived counts."""
        child_time = [0.0] * len(self.spans)
        for op, name, start, end, parent, counts in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out = {name: 0 for name in LAYER_METRICS}
        feasible = 0
        for idx, (op, name, start, end, parent, counts) in enumerate(self.spans):
            if name not in _TRACED_NAMES or end is None:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[idx]
            for key, value in (counts or {}).items():
                if key == "feasible":
                    feasible += value
                else:
                    out[f"{name}.{key}"] += value
            if name == "ratlp.lp_solve" and self._has_ancestor(idx, "cores.weak_core_nonempty"):
                out["cores.weak_core_nonempty.lp_solves"] += 1
        calls = out["ratlp.lp_solve.calls"]
        out["ratlp.lp_solve.feasible_ratio"] = feasible / calls if calls else 0.0
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][4]
        while parent >= 0:
            if self.spans[parent][1] == name:
                return True
            parent = self.spans[parent][4]
        return False


_TRACED_NAMES = {f"{module}.{fn}" for module, fn, _ in TARGETS}


def _wrap(tracer: Tracer, name: str, fn, count):
    if inspect.isgeneratorfunction(fn):
        # timed over its full consumption: open at the first resume, close at
        # exhaustion, and be the parent of whatever runs while it is resumed
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            inner = fn(*args, **kwargs)
            idx = None
            try:
                while True:
                    if idx is None:
                        idx = tracer.open(name)
                    else:
                        tracer.stack.append(idx)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        if tracer.stack and tracer.stack[-1] == idx:
                            tracer.stack.pop()
                    yield item
            finally:
                inner.close()
                if idx is not None:
                    tracer.spans[idx][3] = time.perf_counter()
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            tracer.spans[idx][5] = count(args, kwargs, result)
        return result
    return traced


def _cli_main(tracer: Tracer, fn):
    """``cli.main`` also counts what it printed to the captured stdout."""
    @functools.wraps(fn)
    def traced(argv=None):
        before = len(sys.stdout.getvalue().encode())
        idx = tracer.open("cli.main")
        try:
            result = fn(argv)
        finally:
            tracer.close(idx)
        tracer.spans[idx][5] = {"stdout_bytes": len(sys.stdout.getvalue().encode()) - before}
        return result
    return traced


def install(package, tracer: Tracer) -> list:
    """Wrap every target at every binding inside ``package``; returns the
    (module, attribute, original) list that :func:`uninstall` restores."""
    prefix = package.__name__
    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == prefix or key.startswith(prefix + "."))]
    patched = []
    for module_name, fn_name, count in TARGETS:
        original = getattr(sys.modules[f"{prefix}.{module_name}"], fn_name)
        name = f"{module_name}.{fn_name}"
        if name == "cli.main":
            wrapper = _cli_main(tracer, original)
        else:
            wrapper = _wrap(tracer, name, original, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))
    return patched


def uninstall(patched: list) -> None:
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)
