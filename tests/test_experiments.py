"""Experiment drivers: sweeps, persistence curve, ridge contrast, probes."""

import math
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from l1risk import experiments
from l1risk.experiments import (
    PersistencePoint,
    SweepRow,
    lambda_sweep,
    persistence_curve,
    ridge_vs_l1_demo,
    sup_deviation,
)
from l1risk.risk import ABSOLUTE, EXPONENTIAL, SQUARED, empirical_risk, \
    group_l1
from l1risk.simgen import ScenarioSpec, gen_null, generate, population_risk
from l1risk.solvers import solve_penalized

SMALL = ScenarioSpec("section4", 60, {"big_m": 25})


def test_sweep_row_group_norms_must_fit_inside_the_total():
    with pytest.raises(ValueError):
        SweepRow(lam=0.1, v_training=1.0, v_real=1.0, b1_norm=2.0,
                 b2_norm=2.0, beta_l1=3.0, reps=1, seed=0)


def test_lambda_sweep_rows_and_determinism():
    lambdas = [0.05, 0.2]
    rows = lambda_sweep(SMALL, lambdas, reps=2, test_n=50, seed=3)
    again = lambda_sweep(SMALL, lambdas, reps=2, test_n=50, seed=3)
    assert rows == again
    assert [r.lam for r in rows] == lambdas
    for r in rows:
        assert r.reps == 2 and r.seed == 3
        assert r.b1_norm + r.b2_norm <= r.beta_l1 + 1e-9
        assert r.v_training > 0.0 and r.v_real > 0.0
    # heavier penalty shrinks the fit
    assert rows[1].beta_l1 < rows[0].beta_l1


def test_lambda_sweep_threads_do_not_change_the_answer():
    rows = lambda_sweep(SMALL, [0.1], reps=3, test_n=40, seed=1)
    threaded = lambda_sweep(SMALL, [0.1], reps=3, test_n=40, seed=1,
                            threads=4)
    assert rows == threaded


def test_lambda_sweep_threads_do_not_change_the_answer_on_blas_sized_designs():
    # 200 x 305 products are large enough for OpenBLAS to split across threads
    spec = ScenarioSpec("section4", 200, {"big_m": 300})
    rows = lambda_sweep(spec, [0.05, 0.1], reps=2, test_n=200, seed=4,
                        threads=1)
    threaded = lambda_sweep(spec, [0.05, 0.1], reps=2, test_n=200, seed=4,
                            threads=2)
    assert rows == threaded


# each runs two cells and passes progress through
HARNESSES = {
    "sweep-1": lambda progress: lambda_sweep(
        SMALL, [0.1], reps=2, test_n=30, progress=progress),
    "sweep-2": lambda progress: lambda_sweep(
        SMALL, [0.1], reps=2, test_n=30, threads=2,
        progress=progress),
    "persistence": lambda progress: persistence_curve(
        [20], 1.2, 2, 2, progress=progress),
    "ridge": lambda progress: ridge_vs_l1_demo(
        20, 30, 1.0, 0.5, [0.5], 2, progress=progress),
}


@pytest.mark.parametrize("run", HARNESSES.values(), ids=HARNESSES.keys())
def test_harnesses_run_one_blas_thread_and_restore_the_count(
        openblas_at_two_threads, run):
    get = openblas_at_two_threads
    seen = []
    run(lambda done, total: seen.append(get()))
    assert seen == [1, 1]
    assert get() == 2

    def fail(done, total):
        raise RuntimeError("progress failed")

    with pytest.raises(RuntimeError, match="progress failed"):
        run(fail)
    assert get() == 2


def test_concurrent_one_blas_thread_blocks_restore_the_outer_count(
        openblas_at_two_threads):
    get = openblas_at_two_threads
    inside = []
    start = threading.Barrier(4)

    def worker():
        start.wait(timeout=30)
        for _ in range(5000):
            with experiments._one_blas_thread():
                inside.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(inside) == 20000 and set(inside) == {1}
    assert get() == 2


def test_nested_one_blas_thread_blocks_restore_each_count(
        openblas_at_two_threads):
    get = openblas_at_two_threads
    with experiments._one_blas_thread():
        with experiments._one_blas_thread():
            assert get() == 1
        assert get() == 1
    assert get() == 2


def test_concurrent_sweeps_give_the_serial_rows_and_restore_the_count(
        openblas_at_two_threads):
    get = openblas_at_two_threads
    sweeps = {"a": (SMALL, [0.05, 0.2], 1),
              "b": (ScenarioSpec("section4", 80, {"big_m": 30}), [0.1], 2)}
    serial = {name: lambda_sweep(spec, lams, reps=2, test_n=40, seed=seed)
              for name, (spec, lams, seed) in sweeps.items()}
    assert get() == 2
    start = threading.Barrier(2)
    concurrent = {}

    def run(name):
        spec, lams, seed = sweeps[name]
        start.wait(timeout=30)
        concurrent[name] = lambda_sweep(spec, lams, reps=2, test_n=40,
                                        seed=seed, threads=2)

    workers = [threading.Thread(target=run, args=(name,)) for name in sweeps]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
    assert not any(w.is_alive() for w in workers)
    assert concurrent == serial
    assert get() == 2


def test_one_blas_thread_without_openblas_does_nothing(tmp_path,
                                                       monkeypatch):
    libs = tmp_path / "numpy.libs"
    libs.mkdir()
    (libs / "libbroken_openblas.so").write_bytes(b"not a shared library")
    monkeypatch.setattr(experiments.np, "__file__",
                        str(tmp_path / "numpy" / "__init__.py"))
    experiments._openblas.cache_clear()
    try:
        assert experiments._openblas() is None
        with experiments._one_blas_thread():
            pass
    finally:
        experiments._openblas.cache_clear()


def test_run_cells_stops_on_the_first_error():
    threads = 2
    lock = threading.Lock()
    started = []
    raised = threading.Event()

    def cell(group, rep):
        with lock:
            started.append(raised.is_set())
        time.sleep(0.01)
        return group, rep

    def fail(done, total):
        raised.set()
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        experiments._run_cells(range(2), 20, cell, threads, fail)
    # a worker may already hold its next cell when the error propagates
    assert started.count(True) <= threads


def test_run_cells_keeps_cell_order():
    for threads in (1, 3):
        seen = []
        results = experiments._run_cells(
            ["a", "b"], 4, lambda group, rep: f"{group}{rep}", threads,
            lambda done, total: seen.append((done, total)))
        # one block of reps results per group, cells in (group, rep) order
        assert results == [["a0", "a1", "a2", "a3"], ["b0", "b1", "b2", "b3"]]
        assert seen == [(d, 8) for d in range(1, 9)]


def _materialised_sweep(scenario, lambdas, reps, test_n, seed):
    """lambda_sweep's rows written out with every test set drawn as a
    Dataset: (v_training, v_real, b1_norm, b2_norm, beta_l1) per lambda."""
    rows = []
    for li, lam in enumerate(lambdas):
        cols = []
        for rep in range(reps):
            train = generate(scenario, [seed, li, rep, 0])
            test = generate(replace(scenario, n=test_n), [seed, li, rep, 1])
            beta, _ = solve_penalized(train, EXPONENTIAL, lam)
            cols.append((empirical_risk(train, beta, EXPONENTIAL),
                         empirical_risk(test, beta, EXPONENTIAL),
                         group_l1(beta, range(1, 26)),
                         group_l1(beta, range(26, 31)),
                         beta.l1_norm))
        rows.append(np.array(cols).mean(axis=0))
    return rows


@pytest.mark.parametrize("threads", [1, 2])
def test_lambda_sweep_matches_materialised_test_sets(threads):
    lambdas = [0.03, 0.1]
    rows = lambda_sweep(SMALL, lambdas, reps=3, test_n=70, seed=8,
                        threads=threads)
    want = _materialised_sweep(SMALL, lambdas, 3, 70, 8)
    for row, (v_training, v_real, b1, b2, l1) in zip(rows, want):
        assert (row.v_training, row.b1_norm, row.b2_norm, row.beta_l1) == \
            (v_training, b1, b2, l1)
        assert row.v_real == pytest.approx(v_real, rel=1e-13, abs=0)


def _no_draws(*args, **kwargs):
    raise AssertionError("drew data before validating the arguments")


def test_lambda_sweep_validation(monkeypatch):
    monkeypatch.setattr(experiments, "generate", _no_draws)
    monkeypatch.setattr(experiments, "sample_risk", _no_draws)
    with pytest.raises(ValueError):
        lambda_sweep(SMALL, [], reps=1, test_n=10)
    with pytest.raises(ValueError):
        lambda_sweep(SMALL, [0.1], reps=0, test_n=10)
    with pytest.raises(ValueError, match="lambda must be nonnegative"):
        lambda_sweep(SMALL, [0.1, -0.1], reps=2, test_n=10)
    for threads in (0, -1):
        with pytest.raises(ValueError):
            lambda_sweep(SMALL, [0.1], reps=1, test_n=10, threads=threads)
    null_spec = ScenarioSpec("null", 20, {"m": 3, "sigma": 1.0})
    with pytest.raises(ValueError):
        lambda_sweep(null_spec, [0.1], reps=1, test_n=10)


def test_lambda_sweep_reports_progress():
    seen = []
    lambda_sweep(SMALL, [0.1], reps=2, test_n=30,
                 progress=lambda done, total: seen.append((done, total)))
    assert seen == [(1, 2), (2, 2)]


def test_persistence_curve_small_instance():
    points = persistence_curve((20,), alpha=1.1, support_size=2, reps=3,
                               seed=5)
    again = persistence_curve((20,), alpha=1.1, support_size=2, reps=3,
                              seed=5)
    assert points == again
    p = points[0]
    assert isinstance(p, PersistencePoint)
    assert p.n == 20
    assert p.m == math.ceil(20 ** 1.1)
    assert p.budget == pytest.approx(math.sqrt(2))
    # excess risk is ||beta - beta*||^2, nonnegative by construction
    assert p.excess_risk >= 0.0


def test_persistence_curve_accepts_an_iterator_of_ns():
    from_tuple = persistence_curve((20, 40), alpha=1.1, support_size=2,
                                   reps=1, seed=5)
    from_iter = persistence_curve(iter([20, 40]), alpha=1.1, support_size=2,
                                  reps=1, seed=5)
    assert [p.n for p in from_iter] == [20, 40]
    assert from_iter == from_tuple


def test_persistence_curve_validation(monkeypatch):
    monkeypatch.setattr(experiments, "generate", _no_draws)
    for ns, alpha, reps in (((20,), 1.0, 1), ((5,), 1.2, 1),
                            ((1600, 5), 1.2, 1), ((20,), 1.2, 0)):
        with pytest.raises(ValueError):
            persistence_curve(ns, alpha=alpha, support_size=2, reps=reps)


def test_ridge_demo_bookkeeping(monkeypatch):
    demo = ridge_vs_l1_demo(20, 10, 1.0, 0.25, (0.0, 1.0), reps=2, seed=4)
    again = ridge_vs_l1_demo(20, 10, 1.0, 0.25, (0.0, 1.0), reps=2, seed=4)
    assert demo == again
    # the zero-budget fit is the origin: population risk is exactly sigma^2
    assert demo.budget_risks[0] == (0.0, 1.0)
    assert all(r >= 1.0 for r in demo.ridge_risks)
    assert all(ratio <= 1.0 + 1e-9 for ratio in demo.ridge_boundary)
    assert all(b in (0.0, 1.0) for b in demo.selected_budgets)
    assert demo.ridge_risk_mean == pytest.approx(np.mean(demo.ridge_risks))
    assert demo.selected_risk_mean == pytest.approx(np.mean(demo.selected_risks))
    monkeypatch.setattr(experiments, "generate", _no_draws)
    for budgets, reps, delta in (((), 2, 0.25), ((0.0, 1.0), 0, 0.25),
                                 ((1.0, -1.0), 2, 0.25), ((1.0,), 2, -0.25)):
        with pytest.raises(ValueError):
            ridge_vs_l1_demo(20, 10, 1.0, delta, budgets, reps=reps)


def test_sup_deviation_against_itself_is_zero():
    d = gen_null(50, 8, 1.0, seed=6)
    assert sup_deviation(d, 20, 3, 0.5, SQUARED, d, seed=1) == 0.0


def test_sup_deviation_spec_reference_agrees_with_a_large_dataset():
    train = gen_null(60, 6, 1.0, seed=7)
    spec = ScenarioSpec("null", 60, {"m": 6, "sigma": 1.0})
    big = gen_null(100_000, 6, 1.0, seed=8)
    via_spec = sup_deviation(train, 15, 2, 0.5, SQUARED, spec, seed=2)
    via_dataset = sup_deviation(train, 15, 2, 0.5, SQUARED, big, seed=2)
    assert via_spec == pytest.approx(via_dataset, abs=0.02)
    assert via_spec > 0.1


def test_sup_deviation_shrinks_with_sample_size():
    null = ScenarioSpec("null", 1, {"m": 20, "sigma": 1.0})
    gaps = []
    for n in (200, 800, 3200):
        train = gen_null(n, 20, 1.0, seed=9)
        gaps.append(sup_deviation(train, 40, 3, 0.5, SQUARED, null, seed=3))
    assert gaps[0] > gaps[1] > gaps[2]


def test_sup_deviation_checks_its_reference_before_any_probe(monkeypatch):
    d = gen_null(30, 5, 1.0, seed=10)
    null = ScenarioSpec("null", 30, {"m": 5, "sigma": 1.0})
    wider = (gen_null(40, 6, 1.0, seed=11),
             ScenarioSpec("null", 30, {"m": 6, "sigma": 1.0}))

    def refuse(*args, **kwargs):
        raise AssertionError("no probe may be drawn")

    monkeypatch.setattr(experiments.np.random, "default_rng", refuse)
    for loss, spec in ((EXPONENTIAL, null), (ABSOLUTE, null),
                       (SQUARED, ScenarioSpec("section4", 30, {"big_m": 25}))):
        with pytest.raises(ValueError, match="ScenarioSpec reference"):
            sup_deviation(d, 5, 2, 0.5, loss, spec)
    for reference in wider:
        with pytest.raises(ValueError,
                           match="reference has 6 columns, train has 5"):
            sup_deviation(d, 5, 2, 0.5, SQUARED, reference)
    with pytest.raises(TypeError):
        sup_deviation(d, 5, 2, 0.5, SQUARED,
                      lambda b: population_risk(null, b))


def test_sup_deviation_validation():
    d = gen_null(30, 5, 1.0, seed=10)
    with pytest.raises(ValueError):
        sup_deviation(d, 0, 2, 0.5, SQUARED, d)
    with pytest.raises(ValueError):
        sup_deviation(d, 5, 0, 0.5, SQUARED, d)
    with pytest.raises(ValueError):
        sup_deviation(d, 5, 6, 0.5, SQUARED, d)


def test_heavier_penalties_close_the_generalization_gap():
    spec = ScenarioSpec("section4", 500, {"big_m": 1000})
    rows = lambda_sweep(spec, [0.01, 0.17], reps=1, test_n=1000, seed=0)
    light = abs(rows[0].v_training - rows[0].v_real)
    heavy = abs(rows[1].v_training - rows[1].v_real)
    assert light > 3.0 * heavy
