"""File formats: dataset CSV with JSON meta sidecar, coefficient JSON,
and the experiment result tables.

Datasets and coefficients are read back; the result tables (sweep,
persistence, ridge demo, subset search) are written only. All floats are
written with round-trip precision (shortest repr), so reading back reproduces
the exact binary values. Every writer goes through a temp-file-and-rename so
failures never leave partial output behind.

One writer, `_write_table`, writes every result CSV and its sidecar, whose
keys begin `kind`, `seed`, `params`; one, `atomic_write_json`, writes every
JSON record, and a dataset's meta sidecar takes the same formatting.

Dataset files are handled in bounded memory: rows are formatted and written
one at a time, so a write holds one row's text rather than the whole file,
and a read holds one design, the parsed table with x moved into place, not
the table plus a copy of x. A file that cannot be parsed, or that holds a
nonfinite entry, is a ValueError that names it.

Every output file gets the mode a plain `open` would give it: 0o666 less the
umask in force when the file is written.

Next to each dataset CSV the writer leaves `<stem>.cache.npy`: three
`np.save` records holding the sha256 of the CSV's bytes, y and x. A read
streams the CSV through sha256 and, when the digest matches, loads y and x
from the cache instead of parsing the text (the parse dominates a cold
command's time). A missing, unreadable or malformed cache, or one whose
digest names other bytes, is ignored and the CSV is parsed, so a CSV edited
by hand or written by another tool reads exactly as before, and deleting
the cache is always safe. The cache is written after the CSV and before the
meta sidecar, so a crash between the files leaves a stale digest, never a
cache that disagrees with its CSV.
"""
from __future__ import annotations

import contextlib
import json
import os
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from l1risk.risk import Coefficients, Dataset

if TYPE_CHECKING:
    from l1risk.experiments import RidgeComparison
    from l1risk.oracle import SubsetSolution
    from l1risk.solvers import SolveReport

_SHIFT_BLOCK = 8192  # values per block when a read moves x into place (64 KiB)
_HASH_CHUNK = 1 << 16  # bytes per read when a CSV is hashed (64 KiB)


@contextlib.contextmanager
def _atomic_writer(path, mode="w"):
    """Yield a file opened with mode ("w" text, "wb" binary) that replaces
    path, via a same-directory temp file and an atomic rename, only if the
    block completes; otherwise the temp file is removed and path is left as
    it was. The temp file is created like a plain `open` would create it, so
    the kernel applies the umask in force at this write."""
    path = Path(path)
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                 | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, mode, newline="" if mode == "w" else None) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a same-directory temp file and atomic rename."""
    with _atomic_writer(path) as fh:
        fh.write(text)


def atomic_write_json(path, record) -> None:
    """Write record as indented JSON, like atomic_write_text."""
    atomic_write_text(path, _json_text(record))


def meta_path(path) -> Path:
    """Sidecar JSON path for a primary output: <stem>.meta.json."""
    path = Path(path)
    return path.with_name(path.stem + ".meta.json")


def cache_path(path) -> Path:
    """Binary copy of a dataset CSV: <stem>.cache.npy."""
    path = Path(path)
    return path.with_name(path.stem + ".cache.npy")


def _json_text(record) -> str:
    return json.dumps(record, indent=2) + "\n"


def _read_json_object(path) -> dict:
    """The JSON object in path; text that does not parse, or parses to
    another JSON type, is a ValueError that names the file."""
    try:
        record = json.loads(Path(path).read_text())
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: {e}") from e
    if not isinstance(record, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return record


def _csv_digest(path) -> bytes:
    """sha256 of the file's bytes, read a chunk at a time."""
    import hashlib  # here, not at import: only dataset files are hashed

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            h.update(chunk)
    return h.digest()


def write_dataset(d: Dataset, path) -> None:
    """CSV with header y,x1,...,xm, its binary cache, and the meta sidecar;
    without meta, a sidecar left at the path is removed so it cannot be read
    back."""
    # serialize the meta before the CSV is replaced, so a meta that is not
    # JSON leaves the old pair in place rather than new rows with old meta
    side = _json_text(d.meta) if d.meta else None
    with _atomic_writer(path) as fh:
        fh.write(",".join(["y"] + [f"x{j}" for j in range(1, d.m + 1)]) + "\n")
        # repr of a Python float round-trips; one row's text at a time
        for y, row in zip(d.y.tolist(), d.x):
            fh.write(",".join(map(repr, [y] + row.tolist())) + "\n")
    digest = np.frombuffer(_csv_digest(path), dtype=np.uint8)
    with _atomic_writer(cache_path(path), "wb") as fh:
        for record in (digest, d.y, d.x):
            np.save(fh, record, allow_pickle=False)
    if side is None:
        meta_path(path).unlink(missing_ok=True)
    else:
        atomic_write_text(meta_path(path), side)


def _bad_line(path, header):
    """A ValueError naming the first data line of path that does not hold
    one value per header column, or the line and column of the first value
    that is not a number; None when every line parses. Blank lines and `#`
    comments are skipped, as the parser skips them."""
    with open(path, newline="") as fh:
        next(fh)  # the header
        for lineno, line in enumerate(fh, start=2):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.split(",")
            if len(fields) != len(header):
                return ValueError(f"{path}: line {lineno} has {len(fields)} "
                                  f"values, the header has {len(header)} "
                                  "columns")
            for name, field in zip(header, fields):
                try:
                    float(field)
                except ValueError:
                    return ValueError(f"{path}: line {lineno}, column "
                                      f"{name}: {field!r} is not a number")
    return None


def _read_cache(path):
    """(x, y) from the dataset's cache when it holds the digest of the CSV's
    current bytes and two float64 arrays of matching shapes; None when it is
    missing, unreadable, malformed or stale."""
    cache = cache_path(path)
    if not cache.is_file():
        return None
    digest = _csv_digest(path)
    try:
        with open(cache, "rb") as fh:
            stored = np.lib.format.read_array(fh, allow_pickle=False)
            if stored.dtype != np.uint8 or stored.tobytes() != digest:
                return None
            y = np.lib.format.read_array(fh, allow_pickle=False)
            x = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError):
        return None
    if x.dtype != float or y.dtype != float or x.ndim != 2 \
            or y.shape != x.shape[:1]:
        return None
    return x, y


def _parse_csv(path):
    """(x, y) parsed from the dataset CSV's text."""
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header[0] != "y":
            raise ValueError(f"{path}: expected header starting with 'y'")
        expected = ["y"] + [f"x{j}" for j in range(1, len(header))]
        if header != expected:
            raise ValueError(f"{path}: malformed column header")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty: raised below
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as e:
                raise _bad_line(path, header) \
                    or ValueError(f"{path}: {e}") from e
    n, width = data.shape
    if n == 0:
        raise ValueError(f"{path}: no observations")
    if width != len(header):
        raise ValueError(f"{path}: {width} values per row, "
                         f"{len(header)} columns in the header")
    y = data[:, 0].copy()
    # move x down over the y column a block of rows at a time, so the first
    # n*m values of the parsed buffer are x in C order and x is a view of
    # it; numpy stages a block that overlaps its destination through a copy
    m = width - 1
    flat = data.reshape(-1)
    rows = max(1, _SHIFT_BLOCK // width)
    for a in range(0, n, rows):
        b = min(n, a + rows)
        flat[a * m:b * m].reshape(b - a, m)[...] = data[a:b, 1:]
    return flat[:n * m].reshape(n, m), y


def read_dataset(path) -> Dataset:
    """Read a dataset CSV, from its cache when that holds the CSV's digest;
    meta comes from the sidecar when present."""
    path = Path(path)
    x, y = _read_cache(path) or _parse_csv(path)
    meta = None
    side = meta_path(path)
    if side.exists():
        meta = _read_json_object(side)
    try:
        return Dataset(x, y, meta)
    except ValueError as e:  # a nonfinite entry
        raise ValueError(f"{path}: {e}") from e


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
    atomic_write_json(path, record)


def read_coefficients(path) -> tuple[Coefficients, dict]:
    """Read coefficient JSON back; returns (coefficients, full record)."""
    record = _read_json_object(path)
    try:
        beta = Coefficients.from_1based(record["m"], record["nonzeros"])
    except (KeyError, TypeError) as e:
        raise ValueError(f"{path}: 'm' must be an integer and 'nonzeros' a "
                         "list of [index, value] pairs") from e
    except (ValueError, OverflowError) as e:
        raise ValueError(f"{path}: {e}") from e
    return beta, record


def _write_table(path, header, rows, kind, seed, params, **extra) -> None:
    """CSV table (floats in round-trip repr) and its sidecar
    {"kind", "seed", "params", **extra}."""
    atomic_write_text(path, "".join(
        ",".join(repr(float(c)) if isinstance(c, float) else str(c)
                 for c in row) + "\n" for row in [header, *rows]))
    atomic_write_json(meta_path(path), {"kind": kind, "seed": seed,
                                        "params": params, **extra})


SWEEP_HEADER = ["lambda", "v_training", "v_real", "b1_norm", "b2_norm",
                "beta_l1", "reps", "seed"]


def write_sweep(path, rows: list, scenario_params: dict) -> None:
    """One CSV row per lambda plus a sidecar with the run's full parameters.

    The sidecar also records, per lambda, how many repetitions finished
    without the stationarity certificate.
    """
    body = [[r.lam, r.v_training, r.v_real, r.b1_norm, r.b2_norm, r.beta_l1,
             r.reps, r.seed] for r in rows]
    _write_table(path, SWEEP_HEADER, body, "sweep",
                 rows[0].seed if rows else None, scenario_params,
                 unconverged=[[r.lam, r.n_unconverged] for r in rows])


PERSIST_HEADER = ["n", "m", "excess_risk", "budget", "reps", "seed"]


def write_persistence(path, points: list, reps: int, seed: int,
                      params: dict) -> None:
    """One CSV row per sample size plus the parameter sidecar."""
    body = [[p.n, p.m, p.excess_risk, p.budget, reps, seed] for p in points]
    _write_table(path, PERSIST_HEADER, body, "persistence", seed, params)


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
    _write_table(path, RIDGE_HEADER, rows, "ridge_demo", cmp.seed,
                 {"n": cmp.n, "m": cmp.m, "sigma": cmp.sigma,
                  "delta": cmp.delta, "reps": cmp.reps,
                  "budgets": [float(b) for b, _ in cmp.budget_risks]},
                 selected_budgets=[float(b) for b in cmp.selected_budgets])


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
    atomic_write_json(path, record)
