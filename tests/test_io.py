"""File formats: round trips, exact headers, atomicity."""

import csv
import hashlib
import json
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from l1risk.experiments import (
    PersistencePoint,
    RidgeComparison,
    SweepRow,
    ridge_vs_l1_demo,
)
from l1risk.io import (
    PERSIST_HEADER,
    RIDGE_HEADER,
    SWEEP_HEADER,
    atomic_write_text,
    cache_path,
    meta_path,
    read_coefficients,
    read_dataset,
    write_coefficients,
    write_dataset,
    write_persistence,
    write_ridge_demo,
    write_subset_solution,
    write_sweep,
)
from l1risk.oracle import best_subset
from l1risk.risk import SQUARED, Coefficients, Dataset
from l1risk.simgen import gen_null, gen_section4, gen_sparse_linear, ScenarioSpec
from l1risk.solvers import SolveConfig, solve_penalized


def test_dataset_round_trip(tmp_path):
    d = gen_section4(12, 25, seed=3)
    p = tmp_path / "d.csv"
    write_dataset(d, p)
    assert p.read_text().splitlines()[0] == \
        "y," + ",".join(f"x{j}" for j in range(1, 31))
    assert meta_path(p) == tmp_path / "d.meta.json"
    back = read_dataset(p)
    np.testing.assert_array_equal(back.x, d.x)
    np.testing.assert_array_equal(back.y, d.y)
    assert back.meta == d.meta


@pytest.mark.parametrize("n, m", [(4, 3), (5, 0), (1, 6), (1, 0)])
def test_read_dataset_returns_a_contiguous_bit_equal_design(n, m, tmp_path):
    rng = np.random.default_rng(n * 10 + m)
    d = Dataset(rng.standard_normal((n, m)), rng.standard_normal(n))
    p = tmp_path / "d.csv"
    write_dataset(d, p)
    back = read_dataset(p)
    assert back.x.shape == (n, m)
    assert back.x.flags.c_contiguous
    assert back.x.tobytes() == d.x.tobytes()
    assert back.y.tobytes() == d.y.tobytes()


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dataset_io_holds_bounded_memory(tmp_path):
    p = tmp_path / "d.csv"
    write_dataset(gen_null(2, 3, 1.0, seed=1), p)  # first-call allocations
    read_dataset(p)
    d = gen_null(1000, 1000, 1.0, seed=1)
    _, write_peak = _traced_peak(write_dataset, d, p)
    assert write_peak <= 0.05 * p.stat().st_size  # a row's text, not the file's
    back, read_peak = _traced_peak(read_dataset, p)
    assert read_peak <= 1.3 * back.x.nbytes  # the parsed table, no x copy
    cache_path(p).unlink()  # the read above loaded the cache; now parse
    _, parse_peak = _traced_peak(read_dataset, p)
    assert parse_peak <= 1.3 * back.x.nbytes


def test_failed_dataset_write_leaves_the_old_files(tmp_path):
    p = tmp_path / "d.csv"
    write_dataset(gen_null(5, 2, 1.0, seed=1), p)
    before = p.read_bytes(), cache_path(p).read_bytes(), meta_path(p).read_bytes()

    def rows():  # fails after some rows have reached the temp file
        yield from np.ones((3, 2))
        raise KeyboardInterrupt

    halfway = SimpleNamespace(m=2, y=np.zeros(6), x=rows(), meta={})
    with pytest.raises(KeyboardInterrupt):
        write_dataset(halfway, p)
    # a meta that is not JSON fails before the CSV is replaced, so the
    # new rows are never paired with the old sidecar
    unserializable = Dataset(np.ones((3, 2)), np.zeros(3), {"seed": np.int64(7)})
    with pytest.raises(TypeError):
        write_dataset(unserializable, p)
    assert (p.read_bytes(), cache_path(p).read_bytes(),
            meta_path(p).read_bytes()) == before
    assert list(tmp_path.glob("*.tmp")) == []


def _parsed(p):
    """read_dataset(p) through the CSV parser, the cache set aside."""
    cache = cache_path(p)
    aside = cache.with_name("aside.npy")
    cache.rename(aside)
    try:
        return read_dataset(p)
    finally:
        aside.rename(cache)


def _write_cache(p, *records):
    with open(cache_path(p), "wb") as fh:
        for record in records:
            np.save(fh, record)  # pickles an object array


def _csv_digest(p):
    return np.frombuffer(hashlib.sha256(p.read_bytes()).digest(), np.uint8)


def test_a_dataset_read_from_its_cache_equals_the_parse(tmp_path, monkeypatch):
    d = gen_section4(30, 25, seed=4)
    p = tmp_path / "d.csv"
    write_dataset(d, p)
    parsed = _parsed(p)

    def no_parse(*args, **kwargs):
        raise AssertionError("parsed a CSV that has a current cache")

    monkeypatch.setattr(np, "loadtxt", no_parse)
    cached = read_dataset(p)
    monkeypatch.undo()
    assert cached.x.tobytes() == parsed.x.tobytes() == d.x.tobytes()
    assert cached.y.tobytes() == parsed.y.tobytes() == d.y.tobytes()
    assert cached.x.shape == parsed.x.shape and cached.x.flags.c_contiguous
    assert cached.meta == parsed.meta == d.meta
    # the cache is the CSV's digest, then y, then x
    with open(cache_path(p), "rb") as fh:
        records = [np.load(fh) for _ in range(3)]
        assert fh.read() == b""
    assert records[0].tobytes() == _csv_digest(p).tobytes()
    assert records[1].tobytes() == d.y.tobytes()
    assert records[2].tobytes() == d.x.tobytes()


def test_a_csv_edited_after_the_write_reads_with_the_edit(tmp_path):
    p = tmp_path / "d.csv"
    write_dataset(Dataset(np.array([[1.5, 2.5]]), np.array([0.5])), p)
    text = p.read_text()
    p.write_text(text.replace("2.5", "2.7"))  # same length, one digit
    assert read_dataset(p).x.tolist() == [[1.5, 2.7]]


def test_a_truncated_cache_falls_back_to_the_parse(tmp_path):
    d = gen_null(20, 30, 1.0, seed=2)
    p = tmp_path / "d.csv"
    write_dataset(d, p)
    full = cache_path(p).read_bytes()
    for size in (0, 40, 200, len(full) // 2, len(full) - 1):
        cache_path(p).write_bytes(full[:size])
        back = read_dataset(p)
        assert back.x.tobytes() == d.x.tobytes()
        assert back.y.tobytes() == d.y.tobytes()


def test_a_cache_left_by_another_csv_falls_back_to_the_parse(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(gen_null(8, 3, 1.0, seed=1), a)
    write_dataset(gen_null(8, 3, 1.0, seed=2), b)
    cache_path(a).write_bytes(cache_path(b).read_bytes())
    assert read_dataset(a).x.tobytes() == _parsed(a).x.tobytes()
    assert read_dataset(a).x.tobytes() != read_dataset(b).x.tobytes()


def test_a_malformed_cache_falls_back_to_the_parse(tmp_path):
    d = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, -1.0]))
    p = tmp_path / "d.csv"
    write_dataset(d, p)
    digest, other_x = _csv_digest(p), np.array([[9.0, 9.0], [9.0, 9.0]])
    for records in (
            # an object array is never unpickled
            (digest, d.y, other_x.astype(object)),
            (digest, d.y, other_x.astype(np.float32)),
            (digest, d.y, other_x.astype(">f8")),
            (digest, d.y, other_x.ravel()),
            (digest, d.y[:1], other_x),
            (digest.astype(np.int64), d.y, other_x)):
        _write_cache(p, *records)
        back = read_dataset(p)
        assert back.x.tolist() == d.x.tolist()
        assert back.y.tolist() == d.y.tolist()
    cache_path(p).write_bytes(b"PK\x03\x04 not an npy file")
    assert read_dataset(p).x.tolist() == d.x.tolist()


def test_dataset_full_float_precision(tmp_path):
    # repr round-trips doubles exactly, including awkward ones
    x = np.array([[0.1 + 0.2, 1e-17], [np.pi, -2.0 / 3.0]])
    d = Dataset(x, np.array([1.0 / 3.0, 0.30000000000000004]))
    p = tmp_path / "tiny.csv"
    write_dataset(d, p)
    back = read_dataset(p)
    np.testing.assert_array_equal(back.x, x)
    np.testing.assert_array_equal(back.y, d.y)


def test_rewriting_a_dataset_without_meta_drops_the_old_sidecar(tmp_path):
    beta_star = Coefficients(np.array([1.0, -0.5, 0.0, 0.0]))
    spec = ScenarioSpec("sparse_linear", 20,
                        {"beta_star": beta_star, "sigma": 0.5})
    p = tmp_path / "d.csv"
    write_dataset(gen_sparse_linear(spec, seed=1), p)
    assert meta_path(p).exists()
    write_dataset(Dataset(np.ones((3, 2)), np.zeros(3)), p)
    assert not meta_path(p).exists()
    back = read_dataset(p)
    assert back.x.shape == (3, 2)
    assert not back.meta  # not the first dataset's beta_star


def test_read_dataset_rejects_bad_input(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("z,x1\n1.0,2.0\n")
    with pytest.raises(ValueError):
        read_dataset(p)
    p.write_text("y,x2\n1.0,2.0\n")
    with pytest.raises(ValueError):
        read_dataset(p)
    p.write_text("y,x1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no parser warning leaks out
        with pytest.raises(ValueError, match="no observations"):
            read_dataset(p)
    for body in ("y,x1\n1.0,2.0,3.0\n", "y,x1\n1.0\n", "y,x1\n1.0,abc\n"):
        p.write_text(body)
        with pytest.raises(ValueError):
            read_dataset(p)
    # a ragged row is named by its file line, skipped blank lines counted,
    # without the parser's advice to pass `usecols`
    for body, line, count in (("y,x1,x2\n1.0,2.0,3.0\n1.0,2.0\n", 3, 2),
                              ("y,x1,x2\n1,2,3\n\n1,2,3,4\n", 4, 4)):
        p.write_text(body)
        with pytest.raises(ValueError) as caught:
            read_dataset(p)
        assert str(caught.value) == (f"{p}: line {line} has {count} values, "
                                     "the header has 3 columns")
    # so is a non-number, with its column
    for body, line in (("y,x1,x2\n1.0,2.0,abc\n", 2),
                       ("y,x1,x2\n# c\n\n1.0,2.0,3.0\n1.0,2.0,abc\n", 5)):
        p.write_text(body)
        with pytest.raises(ValueError) as caught:
            read_dataset(p)
        assert str(caught.value) == (f"{p}: line {line}, column x2: 'abc' "
                                     "is not a number")
    # a nonfinite entry is named with the file, whether parsed or cached
    for body in ("y,x1\n1.0,nan\n", "y,x1\n1e400,2.0\n"):
        p.write_text(body)
        with pytest.raises(ValueError) as caught:
            read_dataset(p)
        assert str(caught.value) == f"{p}: dataset entries must all be finite"
    _write_cache(p, _csv_digest(p), np.array([np.inf]), np.array([[2.0]]))
    with pytest.raises(ValueError) as caught:
        read_dataset(p)
    assert str(caught.value) == f"{p}: dataset entries must all be finite"
    with pytest.raises(OSError):
        read_dataset(tmp_path / "absent.csv")


def test_coefficients_round_trip(tmp_path):
    beta = Coefficients(np.array([0.0, -1.5, 0.0, 2.25]))
    p = tmp_path / "beta.json"
    write_coefficients(p, beta, params={"lambda": 0.1})
    back, record = read_coefficients(p)
    np.testing.assert_array_equal(back.values, beta.values)
    assert record["m"] == 4
    assert record["nonzeros"] == [[2, -1.5], [4, 2.25]]  # 1-based, ascending
    assert record["support"] == 2
    assert record["l1"] == pytest.approx(3.75)
    assert record["params"] == {"lambda": 0.1}
    assert "report" not in record
    # 1-based: 0 would silently wrap to the last entry; the rest would be
    # silently converted, or a later pair would overwrite an earlier one
    for nonzeros in ([[0, 1.0]], [[5, 1.0]],
                     [[1, 0.5], [1, 0.7]],  # a duplicate index
                     [[2.9, 1.0]],  # a non-integral index
                     [[True, 2.0]],  # a boolean index
                     [["3", 1.0]], [[3, "1e0"]], [["3", "1e0"]],  # strings
                     [[3, False]]):
        p.write_text(json.dumps({"m": 4, "nonzeros": nonzeros}))
        with pytest.raises(ValueError) as caught:
            read_coefficients(p)
        assert str(caught.value).startswith(f"{p}: ")
    for m in ("4", 4.5, True):
        p.write_text(json.dumps({"m": m, "nonzeros": []}))
        with pytest.raises(ValueError) as caught:
            read_coefficients(p)
        assert str(caught.value).startswith(f"{p}: ")
    # a whole-number float is still an index, as other JSON writers emit it
    p.write_text(json.dumps({"m": 4.0, "nonzeros": [[3.0, 1]]}))
    assert read_coefficients(p)[0].values.tolist() == [0.0, 0.0, 1.0, 0.0]


def test_coefficients_embed_the_solver_report(tmp_path, hadamard):
    beta, report = solve_penalized(hadamard, SQUARED, 1.0,
                                   SolveConfig(tol=1e-13))
    p = tmp_path / "fit.json"
    write_coefficients(p, beta, report)
    _, record = read_coefficients(p)
    assert record["report"]["converged"] is True
    assert record["report"]["iterations"] == report.iterations
    assert record["report"]["kkt_residual"] <= 1e-5


def test_sweep_round_trip(tmp_path):
    rows = [
        SweepRow(0.01, 0.3, 0.9, 2.0, 0.5, 3.0, reps=4, seed=7,
                 n_unconverged=1),
        SweepRow(0.05, 0.1 + 0.2, 1 / 3, 1.5, 0.25, 2.0, reps=4, seed=7),
    ]
    p = tmp_path / "sweep.csv"
    write_sweep(p, rows, {"n": 100, "big_m": 50})
    with open(p, newline="") as fh:
        header, *body = csv.reader(fh)
    assert header == SWEEP_HEADER
    assert len(body) == len(rows)
    for text, row in zip(body, rows):
        want = [row.lam, row.v_training, row.v_real, row.b1_norm, row.b2_norm,
                row.beta_l1, row.reps, row.seed]
        # every float is written so that parsing it back is exact
        assert [float(t) for t in text[:6]] == want[:6]
        assert [int(t) for t in text[6:]] == want[6:]
    side = json.loads(meta_path(p).read_text())
    assert side["kind"] == "sweep"
    assert side["params"] == {"n": 100, "big_m": 50}
    assert side["unconverged"] == [[0.01, 1], [0.05, 0]]


def test_persistence_file(tmp_path):
    points = [PersistencePoint(100, 251, 0.5, 1.4142135623730951),
              PersistencePoint(400, 1320, 0.2, 1.4142135623730951)]
    p = tmp_path / "persist.csv"
    write_persistence(p, points, reps=5, seed=3, params={"alpha": 1.2})
    lines = p.read_text().splitlines()
    assert lines[0] == ",".join(PERSIST_HEADER)
    assert lines[1].startswith("100,251,0.5,")
    assert lines[1].endswith(",5,3")
    assert json.loads(meta_path(p).read_text())["params"] == {"alpha": 1.2}


def test_ridge_demo_file(tmp_path):
    cmp = ridge_vs_l1_demo(20, 10, 1.0, 0.25, (0.0, 1.0), reps=2, seed=1)
    p = tmp_path / "ridge.csv"
    write_ridge_demo(p, cmp)
    lines = p.read_text().splitlines()
    assert lines[0] == ",".join(RIDGE_HEADER)
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds == ["ridge", "l1", "l1", "l1_selected"]
    side = json.loads(meta_path(p).read_text())
    assert side["params"]["budgets"] == [0.0, 1.0]


# Each table writer's exact output, as (write, CSV text, sidecar text), for
# rows built by hand: no solver runs, so no BLAS kernel can move a digit
TABLE_TEXTS = {
    "sweep": (
        lambda p: write_sweep(p, [
            SweepRow(0.01, 0.3, 0.9, 2.0, 0.5, 3.0, reps=4, seed=7,
                     n_unconverged=1),
            SweepRow(0.05, 0.1 + 0.2, 1 / 3, 1.5, 0.25, 2.0, reps=4, seed=7)],
            {"scenario": "section4", "n": 100, "big_m": 50,
             "lambdas": [0.01, 0.05]}),
        "lambda,v_training,v_real,b1_norm,b2_norm,beta_l1,reps,seed\n"
        "0.01,0.3,0.9,2.0,0.5,3.0,4,7\n"
        "0.05,0.30000000000000004,0.3333333333333333,1.5,0.25,2.0,4,7\n",
        """{
  "kind": "sweep",
  "seed": 7,
  "params": {
    "scenario": "section4",
    "n": 100,
    "big_m": 50,
    "lambdas": [
      0.01,
      0.05
    ]
  },
  "unconverged": [
    [
      0.01,
      1
    ],
    [
      0.05,
      0
    ]
  ]
}
"""),
    "persistence": (
        lambda p: write_persistence(
            p, [PersistencePoint(100, 251, 0.5, 2 ** 0.5),
                PersistencePoint(400, 1320, 0.1 + 0.2, 2 ** 0.5)],
            reps=5, seed=3, params={"ns": [100, 400], "alpha": 1.2}),
        "n,m,excess_risk,budget,reps,seed\n"
        "100,251,0.5,1.4142135623730951,5,3\n"
        "400,1320,0.30000000000000004,1.4142135623730951,5,3\n",
        """{
  "kind": "persistence",
  "seed": 3,
  "params": {
    "ns": [
      100,
      400
    ],
    "alpha": 1.2
  }
}
"""),
    "ridge demo": (
        lambda p: write_ridge_demo(p, RidgeComparison(
            n=20, m=10, sigma=1.0, delta=0.25, reps=2, seed=1,
            ridge_risks=(1.1, 1.2), ridge_boundary=(1.0, 0.5),
            budget_risks=((0.0, 1.0), (1.0, 1 / 3)),
            selected_budgets=(0.0, 1.0), selected_risks=(1.0, 0.1 + 0.2))),
        "kind,param,pop_risk,boundary\n"
        "ridge,0.25,1.15,0.75\n"
        "l1,0.0,1.0,\n"
        "l1,1.0,0.3333333333333333,\n"
        "l1_selected,0.5,0.65,\n",
        """{
  "kind": "ridge_demo",
  "seed": 1,
  "params": {
    "n": 20,
    "m": 10,
    "sigma": 1.0,
    "delta": 0.25,
    "reps": 2,
    "budgets": [
      0.0,
      1.0
    ]
  },
  "selected_budgets": [
    0.0,
    1.0
  ]
}
"""),
}


@pytest.mark.parametrize("name", TABLE_TEXTS)
def test_table_writers_keep_their_text(name, tmp_path):
    write, table, sidecar = TABLE_TEXTS[name]
    p = tmp_path / "table.csv"
    write(p)
    assert p.read_text() == table
    assert meta_path(p).read_text() == sidecar
    assert list(json.loads(sidecar))[:3] == ["kind", "seed", "params"]


def test_subset_solution_file_uses_1_based_columns(tmp_path):
    beta_star = Coefficients(np.array([1.0, -2.0, 0.0, 0.0, 0.0, 0.0]))
    spec = ScenarioSpec("sparse_linear", 60,
                        {"beta_star": beta_star, "sigma": 0.01})
    d = gen_sparse_linear(spec, seed=5)
    sol = best_subset(d, 2, SQUARED)
    assert sol.subset == (0, 1)  # 0-based in the API
    p = tmp_path / "subset.json"
    write_subset_solution(p, sol, params={"k": 2})
    record = json.loads(p.read_text())
    assert record["subset"] == [1, 2]  # 1-based on disk
    assert record["params"] == {"k": 2}
    assert [j for j, _ in record["beta"]] == [1, 2]
    assert record["unbounded"] is False
    assert record["risk"] == pytest.approx(sol.risk)


def test_atomic_write_success_and_no_debris(tmp_path):
    p = tmp_path / "out.txt"
    atomic_write_text(p, "hello\n")
    assert p.read_text() == "hello\n"
    atomic_write_text(p, "replaced\n")
    assert p.read_text() == "replaced\n"
    assert list(tmp_path.glob("*.tmp")) == []


_WRITE_EVERY_KIND = """
import os, sys
from l1risk.cli import main
os.chdir(sys.argv[1])
for argv in (
        ["simgen", "--scenario", "null", "--n", "20", "--m", "4", "--seed",
         "1", "--out", "d.csv"],
        ["solve", "--data", "d.csv", "--lambda", "0.1", "--out", "fit.json"],
        ["persist", "--ns", "20", "--reps", "1", "--seed", "1", "--out",
         "p.csv"]):
    assert main(argv) == 0
"""


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask 022", "umask 077"])
def test_outputs_get_the_mode_the_umask_allows(umask, mode, tmp_path):
    subprocess.run([sys.executable, "-c", _WRITE_EVERY_KIND, str(tmp_path)],
                   umask=umask, check=True, capture_output=True)
    names = ["d.csv", "d.cache.npy", "d.meta.json", "fit.json", "p.csv",
             "p.meta.json"]
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).stat().st_mode & 0o777 == mode, name


_WRITE_AFTER_A_UMASK_CHANGE = """
import os, sys
from l1risk.io import atomic_write_text, write_dataset
from l1risk.simgen import gen_null
os.umask(0o077)
os.chdir(sys.argv[1])
write_dataset(gen_null(10, 3, 1.0, seed=1), "d.csv")
atomic_write_text("t.txt", "text\\n")
"""


def test_the_umask_at_write_time_governs_the_mode(tmp_path):
    # imported under umask 022; the writes run under 077
    subprocess.run([sys.executable, "-c", _WRITE_AFTER_A_UMASK_CHANGE,
                    str(tmp_path)], umask=0o022, check=True,
                   capture_output=True)
    names = ["d.csv", "d.cache.npy", "d.meta.json", "t.txt"]
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o600, name


def test_atomic_write_failure_leaves_no_temp_files(tmp_path):
    target = tmp_path / "dir_in_the_way"
    target.mkdir()
    (target / "keep.txt").write_text("x")
    with pytest.raises(OSError):
        atomic_write_text(target, "text")
    assert (target / "keep.txt").read_text() == "x"  # target untouched
    assert list(tmp_path.glob("*.tmp")) == []


def test_atomic_write_requires_an_existing_directory(tmp_path):
    with pytest.raises(OSError):
        atomic_write_text(tmp_path / "missing" / "out.txt", "text")
