"""Run one workload: set-up probes, timed or traced rounds, checks, metrics.

Load is one closed-loop caller: the next round starts when the previous one
has finished. Rounds repeat until `seconds` have passed and the workload's
minimum number of rounds is done. With tracing on, rounds alternate between
untraced (even) and traced (odd); end-to-end metrics come only from timed
runs, per-layer metrics only from traced rounds.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

import l1risk
import l1risk.experiments
from recorder import Recorder, RoundLog, solve_totals
from workloads import python_env

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5
TAIL_BEYOND = 10
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cell_p50_ms": "ms",
    "cell_tail_ms": "ms",
    "round_s": "s",
    "solve_p50_ms": "ms",
    "certified_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "simgen.busy_s": "s", "simgen.calls": "count",
    "simgen.values_drawn": "count", "simgen.ns_per_value": "ns",
    "solvers.busy_s": "s", "solvers.solves": "count",
    "solvers.iterations": "count", "solvers.iterations_max": "count",
    "solvers.rejected_trials": "count", "solvers.accept_ratio": "ratio",
    "solvers.matvecs_computed": "count", "solvers.bytes_computed": "B",
    "solvers.us_per_matvec": "us", "solvers.kkt_max": "1",
    "risk.busy_s": "s", "risk.calls": "count",
    "experiments.cells": "count", "experiments.workers": "count",
    "experiments.busy_share": "ratio", "experiments.idle_s": "s",
    "io.read_s": "s", "io.write_s": "s", "io.bytes_read": "B",
    "io.bytes_written": "B", "io.read_MBps": "MB/s", "io.write_MBps": "MB/s",
    "cli.import_ms": "ms", "cli.simgen_ms": "ms", "cli.solve_ms": "ms",
    "cli.sparsify_ms": "ms", "cli.oracle_ms": "ms",
    "maurey.busy_ms": "ms", "maurey.draws": "count",
    "oracle.busy_ms": "ms", "oracle.subsets": "count",
    "oracle.us_per_subset": "us",
    "trace.overhead_frac": "ratio",
}

# Counts that must repeat exactly in every round of one commit and seed.
EXACT_COUNTS = ("solvers.solves", "solvers.certified", "solvers.iterations",
                "solvers.rejected_trials", "solvers.matvecs_computed",
                "simgen.values_drawn", "oracle.subsets", "maurey.draws",
                "experiments.cells")


def _blas_threads():
    """OpenBLAS's own thread count, read through its C API when present."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        **{name: os.environ.get(name) for name in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


def _cpu_jiffies():
    """(steal, total) jiffies of the machine so far; None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def source_hash() -> str:
    """Identifies the program under test: a hash of the l1risk sources."""
    h = hashlib.sha256()
    package = Path(l1risk.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def setup_probes(workload, count: int) -> list:
    """Time `count` fresh processes from spawn to the end of one warm-up solve."""
    params = json.dumps(asdict(workload))
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), params],
            env=python_env(), capture_output=True, text=True)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append({"wall_s": wall, **json.loads(proc.stdout)})
    return samples


def tail(values, base_count: int):
    """Highest percentile with at least TAIL_BEYOND of base_count samples
    beyond it, read off `values`.

    base_count is the cell count of the shortest run a workload allows, so
    runs of every length read the same percentile; a longer run has more
    than TAIL_BEYOND samples beyond it. Returns (value, percentile, count).
    """
    ordered = sorted(values)
    n = len(ordered)
    if base_count <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    kept = base_count - TAIL_BEYOND
    index = min(n - 1, -(-n * kept // base_count) - 1)  # nearest rank
    return ordered[index], 100.0 * kept / base_count, n


def _per(part, whole) -> float:
    return part / whole if whole else 0.0


def round_cells(log: RoundLog, outcome) -> int:
    """Cells of one round: commands in cli-cold, train draws otherwise."""
    return len(outcome.commands) if outcome.commands else len(log.cells)


def exact_counts(log: RoundLog, cells: int) -> dict:
    totals = solve_totals(log.solves)
    counts = {key: totals.get(key, log.counters.get(key, 0))
              for key in EXACT_COUNTS}
    counts["experiments.cells"] = cells
    return counts


def layer_figures(log: RoundLog, wall: float, workers: int, cells: int,
                  commands) -> dict:
    """Per-layer figures of one traced round."""
    busy, calls = {}, {}
    io_read = io_write = 0.0
    for name, start, end, _thread, _cell in log.spans:
        layer, fn = name.split(".", 1)
        busy[layer] = busy.get(layer, 0.0) + (end - start)
        calls[layer] = calls.get(layer, 0) + 1
        if layer == "io":
            if "read" in fn:
                io_read += end - start
            elif "write" in fn:
                io_write += end - start
    leaf_busy = sum(v for k, v in busy.items() if k != "experiments")
    totals = solve_totals(log.solves)
    c = log.counters
    matvecs = totals["solvers.matvecs_computed"]
    trials = totals["solvers.accepted_trials"] + totals["solvers.rejected_trials"]

    def cli_ms(label):
        return 1000.0 * sum(w for name, w, _ in commands if name == label)

    imports = [d["import_ms"] for _, _, d in commands if d]
    return {
        "simgen.busy_s": busy.get("simgen", 0.0),
        "simgen.calls": calls.get("simgen", 0),
        "simgen.values_drawn": c["simgen.values_drawn"],
        "simgen.ns_per_value": _per(1e9 * busy.get("simgen", 0.0),
                                    c["simgen.values_drawn"]),
        "solvers.busy_s": busy.get("solvers", 0.0),
        "solvers.solves": totals["solvers.solves"],
        "solvers.iterations": totals["solvers.iterations"],
        "solvers.iterations_max": totals["solvers.iterations_max"],
        "solvers.rejected_trials": totals["solvers.rejected_trials"],
        "solvers.accept_ratio": _per(totals["solvers.accepted_trials"], trials),
        "solvers.matvecs_computed": matvecs,
        "solvers.bytes_computed": totals["solvers.bytes_computed"],
        "solvers.us_per_matvec": _per(1e6 * busy.get("solvers", 0.0), matvecs),
        "solvers.kkt_max": max((s[2] for s in log.solves), default=0.0),
        "risk.busy_s": busy.get("risk", 0.0),
        "risk.calls": calls.get("risk", 0),
        "experiments.cells": cells,
        "experiments.workers": workers,
        "experiments.busy_share": leaf_busy / (wall * workers),
        "experiments.idle_s": wall * workers - leaf_busy,
        "io.read_s": io_read,
        "io.write_s": io_write,
        "io.bytes_read": c["io.bytes_read"],
        "io.bytes_written": c["io.bytes_written"],
        "io.read_MBps": _per(c["io.bytes_read"] / 1e6, io_read),
        "io.write_MBps": _per(c["io.bytes_written"] / 1e6, io_write),
        "cli.import_ms": statistics.median(imports) if imports else 0.0,
        "cli.simgen_ms": cli_ms("simgen"),
        "cli.solve_ms": cli_ms("solve"),
        "cli.sparsify_ms": cli_ms("sparsify"),
        "cli.oracle_ms": cli_ms("oracle"),
        "maurey.busy_ms": 1000.0 * busy.get("maurey", 0.0),
        "maurey.draws": c["maurey.draws"],
        "oracle.busy_ms": 1000.0 * busy.get("oracle", 0.0),
        "oracle.subsets": c["oracle.subsets"],
        "oracle.us_per_subset": _per(1e6 * busy.get("oracle", 0.0),
                                     c["oracle.subsets"]),
    }


def _check_store(store_path: Path, key: str, digest: str, counts: dict) -> list:
    """Compare with earlier runs of the same commit and seed; remember this one."""
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    earlier = store.setdefault(key, {"digest": digest, "counts": {}})
    misses = []
    if earlier["digest"] != digest:
        misses.append(f"digest {digest[:12]} differs from an earlier run's "
                      f"{earlier['digest'][:12]}")
    for name, value in counts.items():
        known = earlier["counts"].setdefault(name, value)
        if known != value:
            misses.append(f"{name} {value} differs from an earlier run's {known}")
    if not misses:
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, store_path)
    return misses


def run(workload, seed: int, seconds: float, trace: bool,
        out_dir: Path, probes: int = SETUP_PROBES) -> dict:
    """Run `workload` and return the full result record."""
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    env = environment(seed)
    jiffies = _cpu_jiffies()
    recorder = Recorder()
    recorder.install(l1risk.experiments)
    try:
        if workload.in_process:
            workload.warm_up()
        probe_samples = setup_probes(workload, probes)

        rounds = []
        started = time.perf_counter()
        while (len(rounds) < workload.min_rounds
               or time.perf_counter() - started < seconds):
            log = RoundLog(traced=trace and len(rounds) % 2 == 1)
            recorder.log = log
            start = time.perf_counter()
            try:
                outcome = workload.run_round(seed, log, workdir)
                error = None
            except Exception as exc:  # reported as a failed operation
                traceback.print_exc()
                outcome, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            recorder.log = None
            rounds.append((log, wall, outcome, error))
            if error is not None:
                break
    finally:
        recorder.uninstall()
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
    end = _cpu_jiffies()
    if jiffies is not None and end is not None:
        # time the hypervisor gave the machine's CPUs to other guests: the
        # noise a timing taken on a shared host cannot remove
        steal, total = (b - a for a, b in zip(jiffies, end))
        env["steal_share"] = _per(steal, total)

    return summarize(workload, seed, trace, env, probe_samples, rounds,
                     out_dir)


def summarize(workload, seed, trace, env, probe_samples, rounds, out_dir):
    failures, per_round, attempted, failed = [], [], 0, 0
    first, first_counts = None, {}
    for index, (log, wall, outcome, error) in enumerate(rounds):
        if error is not None:
            failures.append(f"round {index}: {error}")
            attempted += 1
            failed += 1
            continue
        cells = round_cells(log, outcome)
        counts = exact_counts(log, cells)
        if outcome.commands and not log.traced:
            # an untraced command is opaque: only its output files are seen
            counts = {"solvers.certified": outcome.certified[0],
                      "solvers.solves": outcome.certified[1],
                      "experiments.cells": cells}
        misses = [f"round {index}: {m}" for m in outcome.failed]
        if first is None:
            first = outcome.digest
        elif outcome.digest != first:
            misses.append(f"round {index}: digest differs from round 0")
        # untraced cli-cold rounds see no counters, so compare like with like
        earlier = first_counts.setdefault(log.traced, (index, counts))
        misses += [f"round {index}: {k} {v} != round {earlier[0]}'s "
                   f"{earlier[1][k]}"
                   for k, v in counts.items() if earlier[1][k] != v]
        failures += misses
        attempted += outcome.operations
        failed += min(outcome.operations, len(misses))
        per_round.append({"traced": log.traced, "wall_s": wall,
                          "digest": outcome.digest, "counts": counts})

    counts = first_counts.get(trace, first_counts.get(False, (0, None)))[1]
    if first is not None and not failures:
        key = "|".join([workload.name, f"seed={seed}",
                        f"blas_threads={env['blas_threads']}",
                        f"src={source_hash()}",
                        hashlib.sha256(json.dumps(asdict(workload)).encode())
                        .hexdigest()[:8]])
        cross = _check_store(out_dir / "digests.json", key, first, counts)
        failures += cross
        failed += min(len(cross), attempted)

    metrics, detail = {}, {}
    untraced = [(log, wall, o) for log, wall, o, err in rounds
                if err is None and not log.traced]
    traced = [(log, wall, o) for log, wall, o, err in rounds
              if err is None and log.traced]
    if untraced and not trace:
        metrics, detail = end_to_end(workload, untraced, probe_samples)
    if traced:
        metrics = per_layer(workload, traced, untraced)

    result = {
        "workload": workload.name,
        "why": workload.why,
        "trace": trace,
        "environment": env,
        "source": source_hash(),
        "digest": first,
        "exact_counts": counts,
        "rounds": per_round,
        "setup_probes": probe_samples,
        "detail": detail,
        "failed_frac": _per(failed, attempted),
        "failures": failures,
        "correct": not failures and bool(per_round),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": {**END_TO_END, **PER_LAYER}[name]}
                    for name, value in metrics.items()},
    }
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    (out_dir / f"result-{stem}.json").write_text(json.dumps(result, indent=1)
                                                  + "\n")
    if traced:
        spans = [s for log, _, _ in traced for s in log.spans]
        (out_dir / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n")
    return result


def end_to_end(workload, untraced, probe_samples):
    walls = [wall for _, wall, _ in untraced]
    cells_per_round = [round_cells(log, o) for log, _, o in untraced]
    if workload.in_process:
        cells = [s for log, _, _ in untraced for s in log.cell_seconds()]
        solves = [s for log, _, _ in untraced for s in log.solves]
        totals = solve_totals(solves)
        certified = (totals["solvers.certified"], totals["solvers.solves"])
        solve = statistics.median(s[4] for s in solves)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        commands = [c for _, _, o in untraced for c in o.commands]
        cells = [wall for _, wall, _ in commands]
        certified = tuple(map(sum, zip(*(o.certified for _, _, o in untraced))))
        solve = statistics.median(w for name, w, _ in commands
                                  if name == "solve")
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    tail_s, tail_pct, count = tail(
        cells, cells_per_round[0] * workload.min_rounds)
    metrics = {
        "setup_s": statistics.median(p["wall_s"] for p in probe_samples),
        "cells_per_s": statistics.median(n / wall for n, wall in
                                         zip(cells_per_round, walls)),
        "cell_p50_ms": 1000.0 * statistics.median(cells),
        "cell_tail_ms": 1000.0 * tail_s,
        "round_s": statistics.median(walls),
        "solve_p50_ms": 1000.0 * solve,
        "certified_frac": _per(*certified),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    detail = {"cell_tail_percentile": tail_pct, "cells": count,
              "rounds": len(untraced), "certified": list(certified)}
    return metrics, detail


def per_layer(workload, traced, untraced):
    figures = [layer_figures(log, wall, workload.workers,
                             round_cells(log, o), o.commands)
               for log, wall, o in traced]
    metrics = {name: statistics.median(f[name] for f in figures)
               for name in figures[0]}
    traced_wall = statistics.median(wall for _, wall, _ in traced)
    untraced_wall = statistics.median(wall for _, wall, _ in untraced)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return metrics


def report_lines(result: dict) -> list:
    """Human-readable summary printed before the one-line JSON result."""
    lines = [f"workload {result['workload']}: {result['why']}",
             "environment " + json.dumps(result["environment"]),
             f"digest {result['digest']} (blas_threads "
             f"{result['environment']['blas_threads']})",
             "exact counts " + json.dumps(result["exact_counts"])]
    if result["detail"]:
        lines.append("detail " + json.dumps(result["detail"]))
    for name, m in result["metrics"].items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    lines.append(f"failed_frac {result['failed_frac']:.6g} ratio "
                 f"({result['failed']} of {result['attempted']} operations)")
    lines += [f"FAIL {f}" for f in result["failures"]]
    return lines
