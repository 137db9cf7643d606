"""Experiment harnesses: lambda sweeps, constrained-fit scaling curves, and
diagnostics built on the solvers and generators.

The three repeated-draw harnesses each give `_run_cells` their groups (the
lambdas, the sample sizes, the ridge demo's one group), a repetition count
and a per-cell function; the runner owns the (group, repetition) grid, runs
it serially or on a thread pool, and returns one block of results per group.
Every cell derives its seeds from the master seed and its own indices, so
reruns are bit-identical and cells can run in any order (including across
threads) without changing the emitted aggregates. Every harness fits on the
solvers' default stopping rule; only a direct `solve_*` call takes a
`SolveConfig`.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from l1risk.risk import (
    Coefficients,
    Dataset,
    EXPONENTIAL,
    SQUARED,
    LossSpec,
    empirical_risk,
    group_l1,
)
from l1risk.simgen import ScenarioSpec, generate, population_risk, \
    sample_risk, sparse_unit_vector
from l1risk.solvers import SolveConfig, _L1Penalty, solve_constrained, \
    solve_penalized, solve_ridge_constrained

# Alias of the solver default, kept because the benchmark harness reads
# `experiments.DEFAULT_SWEEP_CONFIG`.
DEFAULT_SWEEP_CONFIG = SolveConfig()

# (get, set) thread-count entry points: the pip wheel's scipy-openblas
# build first, then plain OpenBLAS with and without the 64-bit suffix.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None
    when numpy's `numpy.libs` directory holds none (MKL, Accelerate, a
    system BLAS)."""
    libs = Path(np.__file__).resolve().parent.with_name("numpy.libs")
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


# OpenBLAS's thread count is process-wide. A pinned block holds this lock
# from saving the count to restoring it, so a block in another thread waits.
_BLAS_PIN_LOCK = threading.RLock()


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS to one thread for the block, then restore its count.

    Every command (`cli.main`) and harness (`_run_cells`) runs under it, so
    output bytes do not depend on the core count and harness workers do not
    compete with OpenBLAS threads for cores; direct solver calls keep the
    caller's setting. Without numpy's OpenBLAS it does nothing.
    """
    api = _openblas()
    if api is None:
        yield
        return
    get, set_ = api
    with _BLAS_PIN_LOCK:
        saved = get()
        set_(1)
        try:
            yield
        finally:
            set_(saved)


@dataclass(frozen=True)
class SweepRow:
    """Averages over `reps` repetitions at one penalty level.

    v_training / v_real are the unpenalized training / held-out risks of the
    fitted coefficients; b1_norm / b2_norm are the l1 mass on the generator's
    relevant and proxy coordinate groups. n_unconverged counts repetitions
    whose solve ended without the stationarity certificate (kept out of the
    CSV row; surfaced in the JSON sidecar).
    """

    lam: float
    v_training: float
    v_real: float
    b1_norm: float
    b2_norm: float
    beta_l1: float
    reps: int
    seed: int
    n_unconverged: int = 0

    def __post_init__(self):
        if self.b1_norm + self.b2_norm > self.beta_l1 + 1e-9:
            raise ValueError("group norms exceed the total l1 norm")


@dataclass(frozen=True)
class PersistencePoint:
    """Median excess population risk of the l1-constrained fit at one n."""

    n: int
    m: int
    excess_risk: float
    budget: float


@dataclass(frozen=True)
class RidgeComparison:
    """Per-repetition l2-constrained results next to an l1-budget grid.

    budget_risks maps each l1 budget to its mean population risk;
    selected_risks holds the population risk of the budget that minimized
    held-out risk in each repetition.
    """

    n: int
    m: int
    sigma: float
    delta: float
    reps: int
    seed: int
    ridge_risks: tuple
    ridge_boundary: tuple  # ||beta||_2 / delta per repetition
    budget_risks: tuple  # ((budget, mean population risk), ...)
    selected_budgets: tuple
    selected_risks: tuple

    @property
    def ridge_risk_mean(self) -> float:
        return float(np.mean(self.ridge_risks))

    @property
    def selected_risk_mean(self) -> float:
        return float(np.mean(self.selected_risks))


def _run_cells(groups, reps, fn, threads=1, progress=None) -> list:
    """fn(group, rep) for each group, rep in range(reps), with OpenBLAS on
    one thread; returns one list of the group's reps results per group.

    Cells run group by group, reps in order, on a pool of `threads` threads
    when threads > 1, otherwise in the calling thread. progress, if given,
    is called as progress(done, total) once per cell, in cell order. When a
    cell or progress raises, cells not yet started are cancelled before the
    error propagates. OpenBLAS's previous thread count is restored on
    return; with numpy's OpenBLAS, two runs started at once in one process
    take turns.
    """
    cells = [(group, rep) for group in groups for rep in range(reps)]
    with _one_blas_thread():
        pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
        try:
            if pool is None:
                outcomes = (fn(*cell) for cell in cells)
            else:
                futures = [pool.submit(fn, *cell) for cell in cells]
                outcomes = (future.result() for future in futures)
            results = []
            for done, result in enumerate(outcomes, start=1):
                results.append(result)
                if progress is not None:
                    progress(done, len(cells))
            return [results[i:i + reps] for i in range(0, len(cells), reps)]
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)


def lambda_sweep(scenario: ScenarioSpec, lambdas, reps: int, test_n: int,
                 seed: int = 0, *, loss: LossSpec = EXPONENTIAL,
                 threads: int = 1, progress=None) -> list[SweepRow]:
    """Average penalized-fit summaries over repetitions for each lambda.

    Each (lambda, repetition) cell draws a fresh training set from stream
    [seed, lambda_index, rep, 0], fits it and scores the fit on a fresh test
    set of size test_n from [seed, lambda_index, rep, 1]. That test set is
    scored as it is drawn (`sample_risk`), so no test design is held in
    memory. progress, if given, is called as progress(done, total) after
    each cell. The cells run on `threads` worker threads, and any threads
    value gives the same rows, bit for bit.
    """
    if scenario.kind != "section4":
        raise ValueError("lambda_sweep expects a section4 scenario")
    lambdas = [float(l) for l in lambdas]
    if not lambdas:
        raise ValueError("need at least one lambda")
    for lam in lambdas:
        _L1Penalty(lam)  # checks lambda before any cell draws
    if reps < 1 or test_n < 1:
        raise ValueError("reps and test_n must be positive")
    if threads < 1:
        raise ValueError("threads must be positive")
    test_spec = replace(scenario, n=test_n)

    def sweep_cell(li, rep):
        train = generate(scenario, [seed, li, rep, 0])
        beta, report = solve_penalized(train, loss, lambdas[li])
        v_real = sample_risk(test_spec, [seed, li, rep, 1], beta, loss)
        rel = train.meta["relevant_range"]  # inclusive 1-based ranges
        prox = train.meta["proxy_range"]
        return (
            empirical_risk(train, beta, loss),
            v_real,
            group_l1(beta, range(rel[0], rel[1] + 1)),
            group_l1(beta, range(prox[0], prox[1] + 1)),
            beta.l1_norm,
            report.converged,
        )

    blocks = _run_cells(range(len(lambdas)), reps, sweep_cell, threads,
                        progress)
    rows = []
    for lam, block in zip(lambdas, blocks):
        cols = np.array([c[:5] for c in block])
        rows.append(SweepRow(
            lam=lam,
            v_training=float(cols[:, 0].mean()),
            v_real=float(cols[:, 1].mean()),
            b1_norm=float(cols[:, 2].mean()),
            b2_norm=float(cols[:, 3].mean()),
            beta_l1=float(cols[:, 4].mean()),
            reps=reps,
            seed=seed,
            n_unconverged=sum(1 for c in block if not c[5]),
        ))
    return rows


def persistence_curve(ns, alpha: float, support_size: int, reps: int,
                      seed: int = 0, sigma: float = 1.0,
                      progress=None) -> list[PersistencePoint]:
    """Median excess population risk of the sqrt(k)-budget constrained fit.

    For each n the design has m = ceil(n^alpha) columns, the target is the
    k-sparse equal-weight unit vector, and the l1 budget is sqrt(k) (the
    smallest budget admitting the target, since ||beta*||_1 = sqrt(k) here).
    Repetition r at n-index i draws from stream [seed, i, r].
    """
    if not 1 < alpha < math.inf:  # NaN fails too
        raise ValueError("alpha must exceed 1 and be finite")
    if reps < 1:
        raise ValueError("reps must be positive")
    ns = list(ns)
    if not ns:
        raise ValueError("need at least one n")
    if any(n < 10 for n in ns):
        raise ValueError("each n must be at least 10")
    if support_size < 1:
        raise ValueError("support size k must be at least 1")
    budget = math.sqrt(support_size)
    specs = []
    for n in ns:
        try:
            m = math.ceil(n ** alpha)
        except OverflowError:
            raise ValueError(f"alpha = {alpha} makes n^alpha overflow at "
                             f"n = {n}") from None
        if support_size > m:
            raise ValueError(f"support size k = {support_size} exceeds the "
                             f"m = {m} columns at n = {n}")
        try:
            beta_star = sparse_unit_vector(m, support_size)
        except (ValueError, MemoryError) as e:
            # k is in range, so numpy failed to make the m-vector; its message
            # names neither alpha nor m (and numpy's MemoryError subclass
            # takes other arguments)
            kind = MemoryError if isinstance(e, MemoryError) else ValueError
            raise kind(f"alpha = {alpha} gives m = n^alpha = {m:.4g} "
                       f"columns at n = {n}: {e}") from None
        specs.append(ScenarioSpec("sparse_linear", n, {
            "m": m, "beta_star": beta_star, "sigma": sigma}))

    def persistence_cell(ni, rep):
        train = generate(specs[ni], [seed, ni, rep])
        beta, _ = solve_constrained(train, SQUARED, budget)
        # the population risk of beta* itself is sigma^2
        return population_risk(specs[ni], beta) - float(sigma) ** 2

    blocks = _run_cells(range(len(specs)), reps, persistence_cell,
                        progress=progress)
    return [PersistencePoint(n=int(spec.n), m=spec.params["m"],
                             excess_risk=float(np.median(block)),
                             budget=budget)
            for spec, block in zip(specs, blocks)]


def ridge_vs_l1_demo(n: int, m: int, sigma: float, delta: float, l1_budgets,
                     reps: int, seed: int = 0,
                     progress=None) -> RidgeComparison:
    """Contrast l2-ball and l1-ball constrained fits on signal-free data.

    The population risk of any fit is sigma^2 + ||beta||_2^2 because y is
    independent of the design. Repetition r draws training data from stream
    [seed, r, 0] and a held-out set of the same size from [seed, r, 1]; the
    held-out set picks the l1 budget per repetition (the first budget with
    the lowest held-out risk).
    """
    budgets = [float(b) for b in l1_budgets]
    if not budgets:
        raise ValueError("need at least one l1 budget")
    if not all(b >= 0 for b in budgets):
        raise ValueError("l1 budget must be nonnegative")
    if not delta > 0:
        raise ValueError("l2 radius must be positive")
    if reps < 1:
        raise ValueError("reps must be positive")
    spec = ScenarioSpec("null", n, {"m": m, "sigma": sigma})

    def ridge_cell(_, rep):
        train = generate(spec, [seed, rep, 0])
        held = generate(spec, [seed, rep, 1])
        rbeta, _ = solve_ridge_constrained(train, SQUARED, delta)
        pops, held_risks = [], []
        for b in budgets:
            lbeta, _ = solve_constrained(train, SQUARED, b)
            pops.append(population_risk(spec, lbeta))
            held_risks.append(empirical_risk(held, lbeta, SQUARED))
        return (population_risk(spec, rbeta),
                rbeta.l2_norm / delta, pops, held_risks)

    results, = _run_cells([None], reps, ridge_cell, progress=progress)
    budget_pop = [0.0] * len(budgets)
    sel_budgets, sel_risks = [], []
    for _, _, pops, held_risks in results:
        for bi, pop in enumerate(pops):
            budget_pop[bi] += pop  # left to right: np.sum rounds otherwise
        best = held_risks.index(min(held_risks))
        sel_budgets.append(budgets[best])
        sel_risks.append(pops[best])
    return RidgeComparison(
        n=n, m=m, sigma=sigma, delta=delta, reps=reps, seed=seed,
        ridge_risks=tuple(r[0] for r in results),
        ridge_boundary=tuple(r[1] for r in results),
        budget_risks=tuple((b, budget_pop[bi] / reps)
                           for bi, b in enumerate(budgets)),
        selected_budgets=tuple(sel_budgets),
        selected_risks=tuple(sel_risks),
    )


def _check_probes(probe_count: int, k: int, radius: float,
                  m: float = np.inf) -> None:
    """`sup_deviation`'s checks of its probes; the default m checks only
    what needs no data."""
    if probe_count < 1:
        raise ValueError("probe_count must be positive")
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    if not 0 <= radius < np.inf:  # NaN fails too
        raise ValueError("radius must be nonnegative and finite")


def sup_deviation(train: Dataset, probe_count: int, k: int, radius: float,
                  loss: LossSpec, reference, seed: int = 0) -> float:
    """Largest |training risk - reference risk| over random sparse probes.

    Probes draw a uniform size-k support and entries uniform in
    [-radius, radius] from stream [seed, probe_index]. The reference is a
    large fresh Dataset, scored by its empirical risk, or the ScenarioSpec
    that drew train, scored by the exact `population_risk`; a spec needs
    the squared loss and a scenario with that closed form (not section4).
    Either reference must have train's column count.
    """
    _check_probes(probe_count, k, radius, train.m)
    exact = isinstance(reference, ScenarioSpec)
    if exact and (loss.kind != "squared" or reference.kind == "section4"):
        raise ValueError("a ScenarioSpec reference needs the squared loss "
                         "and a scenario other than section4")
    if not exact and not isinstance(reference, Dataset):
        raise TypeError("reference must be a Dataset or a ScenarioSpec")
    if reference.m != train.m:
        raise ValueError(f"reference has {reference.m} columns, train has "
                         f"{train.m}")
    worst = 0.0
    for p in range(probe_count):
        rng = np.random.default_rng([seed, p])
        support = rng.choice(train.m, size=k, replace=False)
        values = np.zeros(train.m)
        values[support] = rng.uniform(-radius, radius, size=k)
        beta = Coefficients(values)
        ref = population_risk(reference, beta) if exact \
            else empirical_risk(reference, beta, loss)
        worst = max(worst, abs(empirical_risk(train, beta, loss) - ref))
    return worst
