"""Call recording for the benchmark, applied from outside the program.

`Recorder.install(module)` rebinds, in that module's namespace, every public
function the module imported by name from another `l1risk` module
(`l1risk.experiments` and `l1risk.cli` bind them at import). The defining
modules are left alone, so a call from `generate` to `gen_section4` inside
`l1risk.simgen` is not recorded twice. A function's layer is the name of the
module that defines it.

Every round writes into a fresh `RoundLog`. Both timed and traced rounds keep
the cell clock (first and last call time of each cell), the solve reports and
the exact counters; a traced round also keeps one span per call:
`(name, start, end, thread, cell)`. Times come from `time.perf_counter`,
which is the system-wide monotonic clock on Linux, so spans written by other
processes line up with the parent's.

A cell starts at a draw (a `simgen` function whose name starts with `gen`)
made on a thread whose current cell has already done other work; its
identifier is the draw's seed list, e.g. `[seed, li, rep, 0]`. The cell ends
at the end of the last call it made.
"""
from __future__ import annotations

import functools
import inspect
import math
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# A solve counts as certified at this residual. It equals the solver's own
# threshold today and is fixed here so the benchmark's definition stays put.
CERTIFICATE_TOL = 1e-5


def layer_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def _jsonable_seed(seed):
    if seed is None:
        return None
    try:
        return [int(s) for s in seed]
    except TypeError:
        return int(seed)


def _paths(bound_args):
    return [v for v in bound_args.values() if isinstance(v, (str, os.PathLike))]


class RoundLog:
    """Everything one round recorded."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans = []  # [name, start, end, thread, cell id]
        self.cells = []  # {"id", "start", "end", "thread"}
        # (iterations, rejections, kkt_residual, design bytes, seconds)
        self.solves = []
        self.counters = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, key: str, amount) -> None:
        with self._lock:
            self.counters[key] += amount

    @contextmanager
    def span(self, name: str):
        """Span around a call the benchmark itself makes (not part of a cell)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            if self.traced:
                self.spans.append([name, start, time.perf_counter(),
                                   threading.current_thread().name, None])

    def enter(self, starts_cell: bool, seed, start: float):
        state = self._local
        cell = getattr(state, "cell", None)
        if starts_cell and (cell is None or state.had_work):
            cell = {"id": _jsonable_seed(seed), "start": start, "end": None,
                    "thread": threading.current_thread().name}
            self.cells.append(cell)
            state.cell = cell
            state.had_work = False
        return cell

    def leave(self, name: str, is_draw: bool, cell, start: float, end: float):
        if cell is not None:
            cell["end"] = end
            if not is_draw:
                self._local.had_work = True
        if self.traced:
            self.spans.append([name, start, end,
                               threading.current_thread().name,
                               cell["id"] if cell is not None else None])

    def merge(self, dump: dict) -> None:
        """Add what a recorder in another process wrote (see `dump`)."""
        self.spans.extend(dump["spans"])
        self.solves.extend(tuple(s) for s in dump["solves"])
        for key, value in dump["counters"].items():
            self.counters[key] += value

    def dump(self) -> dict:
        return {"spans": self.spans, "solves": self.solves,
                "counters": dict(self.counters)}

    def cell_seconds(self) -> list:
        return [c["end"] - c["start"] for c in self.cells if c["end"] is not None]


class Recorder:
    """Rebinds l1risk functions so that each call lands in the current log."""

    def __init__(self):
        self.log = None
        self._installed = []  # (module, name, original)

    def install(self, module) -> None:
        for name, obj in list(vars(module).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("l1risk.")
                    or obj.__module__ == module.__name__):
                continue
            self._installed.append((module, name, obj))
            setattr(module, name, self._wrap(obj))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._installed):
            setattr(module, name, original)
        self._installed.clear()

    def _wrap(self, fn):
        layer = layer_of(fn)
        name = f"{layer}.{fn.__name__}"
        is_draw = layer == "simgen" and fn.__name__.startswith("gen")
        signature = inspect.signature(fn)
        count = _COUNTERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = self.log
            if log is None:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments
            start = time.perf_counter()
            cell = log.enter(is_draw, bound.get("seed"), start)
            if layer == "io" and "read" in fn.__name__:
                _count_io(log, "io.bytes_read", bound)
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            log.leave(name, is_draw, cell, start, end)
            if count is not None:
                count(log, fn.__name__, bound, result, end - start)
            return result

        return wrapper


def _count_io(log, key, bound):
    from l1risk.io import meta_path

    total = 0
    for path in _paths(bound):
        for p in (path, meta_path(path)):
            if os.path.isfile(p):
                total += os.path.getsize(p)
    log.add(key, total)


def _count_simgen(log, name, bound, result, seconds):
    if hasattr(result, "x"):
        log.add("simgen.values_drawn", int(result.x.size))


def _count_solvers(log, name, bound, result, seconds):
    if isinstance(result, tuple) and len(result) == 2 \
            and hasattr(result[1], "step_rejections"):
        report = result[1]
        design = next(iter(bound.values()))
        log.solves.append((int(report.iterations), int(report.step_rejections),
                           float(report.kkt_residual), int(design.x.nbytes),
                           seconds))


def _count_io_write(log, name, bound, result, seconds):
    if "write" in name:
        _count_io(log, "io.bytes_written", bound)


def _count_maurey(log, name, bound, result, seconds):
    if hasattr(result, "kappa"):
        log.add("maurey.draws", int(result.kappa))


def _count_oracle(log, name, bound, result, seconds):
    if name == "best_subset":
        log.add("oracle.subsets", math.comb(bound["d"].m, int(bound["k"])))


_COUNTERS = {
    "simgen": _count_simgen,
    "solvers": _count_solvers,
    "io": _count_io_write,
    "maurey": _count_maurey,
    "oracle": _count_oracle,
}


def solve_totals(solves) -> dict:
    """Exact per-round solver counts from the recorded reports.

    A solve costs one product for the starting gradient, two per accepted
    step (trial margins and gradient) and one per rejected trial; each
    product streams the whole design, so bytes are computed, not measured.
    """
    iterations = sum(s[0] for s in solves)
    rejected = sum(s[1] for s in solves)
    return {
        "solvers.solves": len(solves),
        "solvers.certified": sum(1 for s in solves if s[2] <= CERTIFICATE_TOL),
        "solvers.iterations": iterations,
        "solvers.iterations_max": max((s[0] for s in solves), default=0),
        "solvers.rejected_trials": rejected,
        "solvers.matvecs_computed": sum(1 + 2 * s[0] + s[1] for s in solves),
        "solvers.bytes_computed": sum((1 + 2 * s[0] + s[1]) * s[3]
                                      for s in solves),
        "solvers.accepted_trials": iterations,
    }
