"""File formats: dataset CSV with JSON meta sidecar, coefficient JSON,
and the experiment result tables.

All floats are written with round-trip precision (shortest repr), so reading
back reproduces the exact binary values. Every writer goes through a
temp-file-and-rename so failures never leave partial output behind.
"""
from __future__ import annotations

import csv
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from l1risk.experiments import RidgeComparison, SweepRow
from l1risk.oracle import SubsetSolution
from l1risk.risk import Coefficients, Dataset
from l1risk.solvers import SolveReport


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a same-directory temp file and atomic rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."),
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def meta_path(path) -> Path:
    """Sidecar JSON path for a primary output: <stem>.meta.json."""
    path = Path(path)
    return path.with_name(path.stem + ".meta.json")


def _json_text(record) -> str:
    return json.dumps(record, indent=2) + "\n"


def write_dataset(d: Dataset, path) -> None:
    """CSV with header y,x1,...,xm plus the meta sidecar; without meta, a
    sidecar left at the path is removed so it cannot be read back."""
    header = ",".join(["y"] + [f"x{j}" for j in range(1, d.m + 1)])
    # repr of a Python float round-trips; convert row by row, since a
    # whole-table tolist() would hold 32 bytes per value at once
    lines = [header] + [",".join(map(repr, [y] + row.tolist()))
                        for y, row in zip(d.y.tolist(), d.x)]
    atomic_write_text(path, "\n".join(lines) + "\n")
    if d.meta:
        atomic_write_text(meta_path(path), _json_text(d.meta))
    else:
        meta_path(path).unlink(missing_ok=True)


def read_dataset(path) -> Dataset:
    """Read a dataset CSV; meta comes from the sidecar when present."""
    path = Path(path)
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header[0] != "y":
            raise ValueError(f"{path}: expected header starting with 'y'")
        expected = ["y"] + [f"x{j}" for j in range(1, len(header))]
        if header != expected:
            raise ValueError(f"{path}: malformed column header")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty: raised below
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[0] == 0:
        raise ValueError(f"{path}: no observations")
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {data.shape[1]} values per row, "
                         f"{len(header)} columns in the header")
    meta = None
    side = meta_path(path)
    if side.exists():
        meta = json.loads(side.read_text())
        if not isinstance(meta, dict):
            raise ValueError(f"{side}: expected a JSON object")
    return Dataset(data[:, 1:], data[:, 0], meta)


def write_coefficients(path, beta: Coefficients, report: SolveReport = None,
                       params: dict = None) -> None:
    """Coefficient JSON: m, 1-based ascending nonzeros, norms, support size.

    The solver report and any caller-supplied parameter record are embedded
    alongside the coefficients.
    """
    record = {
        "m": beta.m,
        "nonzeros": beta.nonzeros_1based(),
        "l1": float(beta.l1_norm),
        "l2": float(beta.l2_norm),
        "support": beta.support,
    }
    if report is not None:
        record["report"] = {
            "iterations": report.iterations,
            "objective": float(report.objective),
            "kkt_residual": float(report.kkt_residual),
            "converged": bool(report.converged),
            "reason": report.reason,
            "step_rejections": report.step_rejections,
        }
    if params is not None:
        record["params"] = params
    atomic_write_text(path, _json_text(record))


def read_coefficients(path) -> tuple[Coefficients, dict]:
    """Read coefficient JSON back; returns (coefficients, full record)."""
    record = json.loads(Path(path).read_text())
    if not isinstance(record, dict):
        raise ValueError(f"{path}: expected a JSON object")
    try:
        beta = Coefficients.from_1based(int(record["m"]), record["nonzeros"])
    except (KeyError, TypeError) as e:
        raise ValueError(f"{path}: 'm' must be an integer and 'nonzeros' a "
                         "list of [index, value] pairs") from e
    return beta, record


def _csv_text(header: list, rows: list) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(repr(float(c)) if isinstance(c, float) else str(c)
                            for c in row))
    return "\n".join(out) + "\n"


SWEEP_HEADER = ["lambda", "v_training", "v_real", "b1_norm", "b2_norm",
                "beta_l1", "reps", "seed"]


def write_sweep(path, rows: list, scenario_params: dict) -> None:
    """One CSV row per lambda plus a sidecar with the run's full parameters.

    The sidecar also records, per lambda, how many repetitions finished
    without the stationarity certificate.
    """
    body = [[r.lam, r.v_training, r.v_real, r.b1_norm, r.b2_norm, r.beta_l1,
             r.reps, r.seed] for r in rows]
    atomic_write_text(path, _csv_text(SWEEP_HEADER, body))
    side = {
        "kind": "sweep",
        "seed": rows[0].seed if rows else None,
        "params": scenario_params,
        "unconverged": [[r.lam, r.n_unconverged] for r in rows],
    }
    atomic_write_text(meta_path(path), _json_text(side))


def read_sweep(path) -> list:
    """Read a sweep CSV back into SweepRow records (sidecar counts included)."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != SWEEP_HEADER:
            raise ValueError(f"{path}: unexpected sweep header")
        raw = [row for row in reader if row]
    unconverged = {}
    side = meta_path(path)
    if side.exists():
        record = json.loads(side.read_text())
        if not isinstance(record, dict):
            raise ValueError(f"{side}: expected a JSON object")
        try:
            unconverged = {float(l): int(c)
                           for l, c in record.get("unconverged", [])}
        except (TypeError, ValueError) as e:
            raise ValueError(f"{side}: 'unconverged' must be a list of "
                             "[lambda, count] pairs") from e
    return [SweepRow(lam=float(r[0]), v_training=float(r[1]), v_real=float(r[2]),
                     b1_norm=float(r[3]), b2_norm=float(r[4]), beta_l1=float(r[5]),
                     reps=int(r[6]), seed=int(r[7]),
                     n_unconverged=unconverged.get(float(r[0]), 0))
            for r in raw]


PERSIST_HEADER = ["n", "m", "excess_risk", "budget", "reps", "seed"]


def write_persistence(path, points: list, reps: int, seed: int,
                      params: dict) -> None:
    """One CSV row per sample size plus the parameter sidecar."""
    body = [[p.n, p.m, p.excess_risk, p.budget, reps, seed] for p in points]
    atomic_write_text(path, _csv_text(PERSIST_HEADER, body))
    atomic_write_text(meta_path(path), _json_text(
        {"kind": "persistence", "seed": seed, "params": params}))


RIDGE_HEADER = ["kind", "param", "pop_risk", "boundary"]


def write_ridge_demo(path, cmp: RidgeComparison) -> None:
    """Comparison CSV: one `ridge` row (param = radius, boundary = mean
    ||beta||_2/radius), one `l1` row per budget, and one `l1_selected` row
    whose param is the mean held-out-selected budget."""
    rows = [["ridge", float(cmp.delta), cmp.ridge_risk_mean,
             float(np.mean(cmp.ridge_boundary))]]
    for budget, risk in cmp.budget_risks:
        rows.append(["l1", float(budget), float(risk), ""])
    rows.append(["l1_selected", float(np.mean(cmp.selected_budgets)),
                 cmp.selected_risk_mean, ""])
    atomic_write_text(path, _csv_text(RIDGE_HEADER, rows))
    atomic_write_text(meta_path(path), _json_text({
        "kind": "ridge_demo", "seed": cmp.seed,
        "params": {"n": cmp.n, "m": cmp.m, "sigma": cmp.sigma,
                   "delta": cmp.delta, "reps": cmp.reps,
                   "budgets": [float(b) for b, _ in cmp.budget_risks]},
        "selected_budgets": [float(b) for b in cmp.selected_budgets],
    }))


def write_subset_solution(path, sol: SubsetSolution, params: dict = None) -> None:
    """Subset-search JSON: 1-based subset, nonzero coefficients, risk."""
    record = {
        "subset": [int(j) + 1 for j in sol.subset],
        "beta": sol.beta.nonzeros_1based(),
        "risk": float(sol.risk),
        "unbounded": bool(sol.unbounded),
    }
    if params is not None:
        record["params"] = params
    atomic_write_text(path, _json_text(record))
