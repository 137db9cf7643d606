"""Smoke test of the benchmark harness at toy sizes.

Run from the root of a checkout: python3 -m pytest -q bench/tests
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import l1risk  # noqa: E402,F401  (first, before anything else imports numpy)
import pytest  # noqa: E402
from l1risk.cli import parse_lambda_grid  # noqa: E402
from l1risk.experiments import PersistencePoint, SweepRow  # noqa: E402

import harness  # noqa: E402
from workloads import (REFERENCE_ROW, CliCold, Constrained,  # noqa: E402
                       SweepRef)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TOY = [
    SweepRef(n=40, big_m=30, lambdas=(0.05, 0.1), reps=1, test_n=20),
    Constrained(ns=(20, 30), alpha=1.1, support_size=2, persist_reps=1,
                ridge_n=20, ridge_m=30, budgets=(0.0, 0.5), ridge_reps=1),
    CliCold(n=20, big_m=25, kappa=4, small_n=20, min_rounds=2),
]


def test_declared_metrics_match_the_harness():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(harness.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(harness.PER_LAYER)
    units = {**harness.END_TO_END, **harness.PER_LAYER}
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert m["unit"] == units[m["name"]]
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        ["sweep-ref", "constrained", "cli-cold"]


def test_sweep_grid_is_the_acceptance_grid():
    assert SweepRef().lambdas == tuple(parse_lambda_grid("0.01:0.02:0.17"))


@pytest.mark.parametrize("workload", TOY, ids=lambda w: w.name)
def test_toy_runs_report_every_metric(workload, tmp_path):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = harness.run(workload, 3, 0, trace, tmp_path, probes=1)
        names = [m["name"] for m in BENCHMARK[section]]
        assert list(result["metrics"]) == names
        for m in result["metrics"].values():
            assert math.isfinite(m["value"])
        assert result["attempted"] >= 1
        # toy sizes may miss the accuracy gates, never the repeat checks
        assert not [f for f in result["failures"]
                    if "differs" in f or "!=" in f or "Error" in f]
        assert result["digest"]
        assert (tmp_path / f"result-{workload.name}-seed3-trace{int(trace)}"
                ".json").is_file()


def test_traced_spans_carry_cell_ids(tmp_path):
    toy = TOY[0]
    harness.run(toy, 3, 0, True, tmp_path, probes=1)
    spans = json.loads((tmp_path / "spans-sweep-ref-seed3-trace1.json")
                       .read_text())
    solves = [s for s in spans if s[0] == "solvers.solve_penalized"]
    assert len(solves) == len(toy.lambdas) * toy.reps
    assert {tuple(s[4]) for s in solves} == {
        (3, li, 0, 0) for li in range(len(toy.lambdas))}


def test_exact_counts_repeat_across_runs(tmp_path):
    toy = TOY[1]
    first = harness.run(toy, 5, 0, False, tmp_path, probes=1)
    again = harness.run(toy, 5, 0, False, tmp_path, probes=1)
    assert first["exact_counts"] == again["exact_counts"]
    assert first["digest"] == again["digest"]
    assert not [f for f in again["failures"] if "earlier run" in f]


def test_sweep_gate():
    def row(lam, values):
        return SweepRow(lam, *values, reps=1, seed=1)

    good = [row(0.03, (0.5, 0.9, 2.0, 0.2, 4.9)),
            row(0.05, REFERENCE_ROW), row(0.07, (0.6, 0.85, 2.0, 0.2, 4.0))]
    assert SweepRef().gate(good) == []
    bad = [row(0.05, (0.9,) + REFERENCE_ROW[1:]),
           row(0.01, (0.3, 0.5, 2.0, 0.2, 6.0))]
    assert len(SweepRef().gate(bad)) == 2


def test_constrained_gate():
    class Demo:
        ridge_risks = selected_risks = (1.0,)
        budget_risks = ((0.0, 1.0),)

    def points(*ex):
        return [PersistencePoint(100, 100, e, 1.0) for e in ex]

    assert Constrained().gate(points(0.3, 0.1, 0.05), Demo()) == []
    assert len(Constrained().gate(points(0.3, 0.3, 0.2), Demo())) == 2


def test_tail_percentile_is_fixed_by_the_shortest_run():
    assert harness.tail(range(100), 100) == (89, 90.0, 100)
    assert harness.tail(range(200), 100) == (179, 90.0, 200)
    assert harness.tail(range(5), 5) == (4, 100.0, 5)


def test_missing_sources_exit_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-ref",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
