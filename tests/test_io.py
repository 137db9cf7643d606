"""File formats: round trips, exact headers, atomicity."""

import csv
import json
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from l1risk.experiments import (
    PersistencePoint,
    SweepRow,
    ridge_vs_l1_demo,
)
from l1risk.io import (
    PERSIST_HEADER,
    RIDGE_HEADER,
    SWEEP_HEADER,
    atomic_write_text,
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


def test_failed_dataset_write_leaves_the_old_files(tmp_path):
    p = tmp_path / "d.csv"
    write_dataset(gen_null(5, 2, 1.0, seed=1), p)
    before = p.read_bytes(), meta_path(p).read_bytes()

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
    assert (p.read_bytes(), meta_path(p).read_bytes()) == before
    assert list(tmp_path.glob("*.tmp")) == []


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
    for index in (0, 5):  # 1-based: 0 would silently wrap to the last entry
        p.write_text(json.dumps({"m": 4, "nonzeros": [[index, 1.0]]}))
        with pytest.raises(ValueError):
            read_coefficients(p)


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
    cmp = ridge_vs_l1_demo(20, 10, 1.0, 0.25, (0.0, 1.0), reps=2,
                           cfg=SolveConfig(max_iter=500, tol=1e-9), seed=1)
    p = tmp_path / "ridge.csv"
    write_ridge_demo(p, cmp)
    lines = p.read_text().splitlines()
    assert lines[0] == ",".join(RIDGE_HEADER)
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds == ["ridge", "l1", "l1", "l1_selected"]
    side = json.loads(meta_path(p).read_text())
    assert side["params"]["budgets"] == [0.0, 1.0]


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
