"""The three benchmark workloads: their inputs, rounds, correctness gates and
output digests.

A round is one pass over a workload's full shape and is the same work every
time for a given seed, so every round of a run must give the same digest and
the same exact counts. Sizes default to the acceptance shapes of
`tests/test_acceptance.py`; the smoke test builds toy-sized instances.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import l1risk
import l1risk.experiments as experiments
from l1risk import (EXPONENTIAL, SQUARED, ScenarioSpec, gen_section4,
                    gen_sparse_linear, solve_constrained, solve_penalized,
                    sparse_unit_vector)
from recorder import CERTIFICATE_TOL

BENCH_DIR = Path(__file__).resolve().parent

# Frozen targets of tests/test_acceptance.py (criteria 1 and 5), copied here
# so the benchmark does not import the test suite.
REFERENCE_ROW = (0.538, 0.810, 2.277, 0.270, 5.030)
ROW_TOL = (0.10, 0.10, 0.6, 0.15, 1.0)
REFERENCE_LAMBDA = 0.05
ARGMIN_LAMBDAS = (0.03, 0.05, 0.07)
FINAL_EXCESS_CAP = 0.15
SPARSIFY_L1_TOL = 1e-9

# Set-up solves a fixed input, not one drawn from the workload seed, so that
# setup_s and the first-solve time compare program versions, not data.
SETUP_SEED = 0


def python_env() -> dict:
    """This process's environment with the l1risk sources on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(l1risk.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


@dataclass
class Outcome:
    """What one round produced: operations, gate misses and output digest."""

    operations: int
    failed: list  # one line per failed operation
    digest: str
    # cli-cold only: per-command (name, wall seconds, runner dump or None)
    commands: tuple = ()
    certified: tuple = ()  # cli-cold: (certified solves, solves)


@dataclass
class SweepRef:
    """Section-4 lambda sweep through `lambda_sweep` with the thread pool."""

    name: str = "sweep-ref"
    n: int = 500
    big_m: int = 1000
    lambdas: tuple = (0.01, 0.03, 0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.17)
    reps: int = 10
    test_n: int = 1000
    min_rounds: int = 2

    why = ("the section-4 headline sweep; the only workload that runs the "
           "experiments thread pool, half draws and half solves")
    in_process = True

    @property
    def workers(self) -> int:
        return os.cpu_count() or 1  # the CLI's --threads default

    def warm_up(self) -> float:
        """Solve the smallest-lambda training cell (the slowest) once."""
        train = gen_section4(self.n, self.big_m, [SETUP_SEED, 0, 0, 0])
        start = time.perf_counter()
        solve_penalized(train, EXPONENTIAL, self.lambdas[0],
                        experiments.DEFAULT_SWEEP_CONFIG)
        return time.perf_counter() - start

    def run_round(self, seed: int, log, workdir) -> Outcome:
        scenario = ScenarioSpec("section4", self.n, {"big_m": self.big_m})
        with log.span("experiments.lambda_sweep"):
            rows = experiments.lambda_sweep(
                scenario, self.lambdas, self.reps, self.test_n, seed=seed,
                loss=EXPONENTIAL, threads=self.workers)
        values = [(r.lam, r.v_training, r.v_real, r.b1_norm, r.b2_norm,
                   r.beta_l1, r.n_unconverged) for r in rows]
        return Outcome(1, self.gate(rows), _digest(values))

    def gate(self, rows) -> list:
        misses = []
        by_lam = {round(r.lam, 10): r for r in rows}
        row = by_lam.get(REFERENCE_LAMBDA)
        if row is None:
            return [f"no lambda={REFERENCE_LAMBDA} row"]
        got = (row.v_training, row.v_real, row.b1_norm, row.b2_norm, row.beta_l1)
        if not all(abs(g - want) <= tol
                   for g, want, tol in zip(got, REFERENCE_ROW, ROW_TOL)):
            misses.append(f"lambda={REFERENCE_LAMBDA} row "
                          f"{tuple(round(g, 3) for g in got)} outside "
                          f"{REFERENCE_ROW} +- {ROW_TOL}")
        best = min(rows, key=lambda r: r.v_real).lam
        if round(best, 10) not in ARGMIN_LAMBDAS:
            misses.append(f"v_real minimized at lambda={best}, "
                          f"not in {ARGMIN_LAMBDAS}")
        return misses


@dataclass
class Constrained:
    """`persistence_curve`, then `ridge_vs_l1_demo`: serial constrained fits."""

    name: str = "constrained"
    ns: tuple = (100, 400, 1600)
    alpha: float = 1.2
    support_size: int = 5
    persist_reps: int = 10
    ridge_n: int = 200
    ridge_m: int = 2000
    delta: float = 0.7
    budgets: tuple = (0.0, 0.25, 0.5, 1.0, 2.0)
    ridge_reps: int = 20
    min_rounds: int = 2

    why = ("serial l1-ball and l2-ball fits on designs up to 90 MB with no "
           "test draws; memory-bound products and few rejected trials")
    in_process = True
    workers = 1

    def warm_up(self) -> float:
        """Solve the largest persistence cell (the memory-bound one) once."""
        n = self.ns[-1]
        m = math.ceil(n ** self.alpha)
        spec = ScenarioSpec("sparse_linear", n, {
            "m": m, "beta_star": sparse_unit_vector(m, self.support_size),
            "sigma": 1.0})
        train = gen_sparse_linear(spec, [SETUP_SEED, len(self.ns) - 1, 0])
        start = time.perf_counter()
        solve_constrained(train, SQUARED, math.sqrt(self.support_size),
                          experiments.DEFAULT_SWEEP_CONFIG)
        return time.perf_counter() - start

    def run_round(self, seed: int, log, workdir) -> Outcome:
        with log.span("experiments.persistence_curve"):
            points = experiments.persistence_curve(
                self.ns, self.alpha, self.support_size, self.persist_reps,
                seed=seed)
        with log.span("experiments.ridge_vs_l1_demo"):
            demo = experiments.ridge_vs_l1_demo(
                self.ridge_n, self.ridge_m, 1.0, self.delta, self.budgets,
                self.ridge_reps, seed=seed)
        values = ([(p.n, p.m, p.excess_risk, p.budget) for p in points],
                  demo.ridge_risks, demo.ridge_boundary, demo.budget_risks,
                  demo.selected_budgets, demo.selected_risks)
        return Outcome(2, self.gate(points, demo), _digest(values))

    def gate(self, points, demo) -> list:
        misses = []
        ex = [p.excess_risk for p in points]
        if not all(a > b for a, b in zip(ex, ex[1:])):
            misses.append(f"excess risk not strictly decreasing: {ex}")
        if not ex or ex[-1] > FINAL_EXCESS_CAP:
            misses.append(f"final excess risk {ex[-1:]} above "
                          f"{FINAL_EXCESS_CAP}")
        risks = (ex + list(demo.ridge_risks) + list(demo.selected_risks)
                 + [r for _, r in demo.budget_risks])
        if not all(math.isfinite(r) for r in risks):
            misses.append("nonfinite risk in the persistence curve or the "
                          "ridge demo")
        return misses


CLI_OUTPUTS = ("data.csv", "data.meta.json", "fit.json", "sparse.json",
               "small.csv", "small.meta.json", "best.json")


@dataclass
class CliCold:
    """Rounds of fresh `l1risk` processes: simgen, solve, sparsify, simgen,
    oracle."""

    name: str = "cli-cold"
    n: int = 500
    big_m: int = 1000
    lam: float = 0.05
    kappa: int = 64
    small_n: int = 200
    small_big_m: int = 25
    k: int = 2
    # With five commands a round, the tail percentile (ten commands beyond
    # it in the shortest run) lies in the slowest command's group only from
    # eleven rounds on.
    min_rounds: int = 11

    why = ("fresh processes per command: start-up, CSV writes and reads, "
           "maurey and oracle, and the first-solve BLAS warm-up")
    in_process = False
    workers = 1

    def commands(self, seed: int) -> list:
        return [
            ("simgen", ["simgen", "--scenario", "section4", "--n", str(self.n),
                        "--big-m", str(self.big_m), "--seed", str(seed),
                        "--out", "data.csv"]),
            ("solve", ["solve", "--data", "data.csv", "--loss", "exp",
                       "--lambda", repr(self.lam), "--out", "fit.json"]),
            ("sparsify", ["sparsify", "--coefficients", "fit.json",
                          "--kappa", str(self.kappa), "--seed", str(seed),
                          "--out", "sparse.json"]),
            ("simgen", ["simgen", "--scenario", "section4",
                        "--n", str(self.small_n),
                        "--big-m", str(self.small_big_m), "--seed", str(seed),
                        "--out", "small.csv"]),
            ("oracle", ["oracle", "--data", "small.csv", "--k", str(self.k),
                        "--loss", "exp", "--method", "exact",
                        "--out", "best.json"]),
        ]

    def warm_up(self) -> float:
        """Solve a dataset of the round's shape once, drawn in memory."""
        train = gen_section4(self.n, self.big_m, SETUP_SEED)
        start = time.perf_counter()
        solve_penalized(train, EXPONENTIAL, self.lam,
                        experiments.DEFAULT_SWEEP_CONFIG)
        return time.perf_counter() - start

    def run_round(self, seed: int, log, workdir) -> Outcome:
        workdir = Path(workdir)
        for name in CLI_OUTPUTS:
            (workdir / name).unlink(missing_ok=True)
        env = python_env()
        failed, commands = [], []
        for label, argv in self.commands(seed):
            dump_path = workdir / "spans.json"
            if log.traced:
                cmd = [sys.executable, str(BENCH_DIR / "cli_runner.py"),
                       str(dump_path), *argv]
            else:
                cmd = [sys.executable, "-m", "l1risk.cli", *argv]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=workdir, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            wall = time.perf_counter() - start
            dump = None
            if log.traced and dump_path.is_file():
                dump = json.loads(dump_path.read_text())
                dump_path.unlink()
                log.merge(dump)
            commands.append((label, wall, dump))
            if proc.returncode != 0:
                failed.append(f"{' '.join(argv[:1])} exited "
                              f"{proc.returncode}: {proc.stderr.strip()[-200:]}")
        if failed:
            return Outcome(len(commands), failed, "", tuple(commands), (0, 1))
        fit = json.loads((workdir / "fit.json").read_text())
        failed = self.gate(fit, json.loads((workdir / "sparse.json").read_text()),
                           json.loads((workdir / "best.json").read_text()))
        certified = int(fit.get("report", {}).get("kkt_residual", math.inf)
                        <= CERTIFICATE_TOL)
        digest = hashlib.sha256()
        for name in CLI_OUTPUTS:
            digest.update((workdir / name).read_bytes())
        return Outcome(len(commands), failed, digest.hexdigest(),
                       tuple(commands), (certified, 1))

    def gate(self, fit, sparse, best) -> list:
        misses = []
        if "report" not in fit:
            misses.append("fit JSON carries no solver report")
        if abs(sparse["l1"] - fit["l1"]) > SPARSIFY_L1_TOL:
            misses.append(f"sparsify moved l1 from {fit['l1']!r} to "
                          f"{sparse['l1']!r}")
        if len(best["subset"]) != self.k:
            misses.append(f"oracle subset {best['subset']} is not of size "
                          f"{self.k}")
        return misses


WORKLOADS = {w.name: w for w in (SweepRef(), Constrained(), CliCold())}
