"""Exhaustive best-subset selection and a brute-force grid search.

Both searches are deliberately exhaustive: this module is the small-instance
ground truth against which the l1 route is compared, and simplicity is the
guarantee. A budget on the number of evaluated candidates rejects instances
that are too large instead of silently sampling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from l1risk.risk import Coefficients, Dataset, LossSpec, loss_terms
from l1risk.solvers import SolveConfig, _descend

DEFAULT_BUDGET = 1_000_000

# Smooth per-subset fits that drift past this l2 norm are reported as an
# unbounded direction.
NORM_CUTOFF = 1e3

_SUBSET_CFG = SolveConfig(max_iter=2000, tol=1e-12)


class BudgetExceededError(ValueError):
    """The requested enumeration is larger than the configured budget."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


@dataclass(frozen=True)
class SubsetSolution:
    """Best coefficients found on one coordinate subset (zeros elsewhere)."""

    subset: tuple
    beta: Coefficients
    risk: float
    unbounded: bool = False


def _embed(m: int, subset, values) -> Coefficients:
    full = np.zeros(m)
    full[list(subset)] = values
    return Coefficients(full)


def _fit_subset(d: Dataset, subset, loss: LossSpec):
    """Minimize empirical risk over coefficients supported on `subset`."""
    xs = d.x[:, list(subset)] if subset else np.zeros((d.n, 0))
    if loss.kind == "squared":
        if xs.shape[1] == 0:
            values = np.zeros(0)
        else:
            values, *_ = np.linalg.lstsq(xs, d.y, rcond=None)
        residual = d.y - xs @ values
        return values, float((residual * residual).mean()), False
    # smooth (sub)gradient descent on the restricted problem
    run = _descend(
        xs, d.y, loss, penalty=lambda b: 0.0, prox=lambda v, _eta: v,
        cfg=_SUBSET_CFG, norm_cutoff=NORM_CUTOFF)
    unbounded = run.hit_cutoff
    if loss.kind == "exponential" and xs.shape[1]:
        # strictly separated margins: scaling the fit up keeps lowering the
        # risk, so the infimum is never attained
        unbounded = unbounded or bool(np.all(d.y * (xs @ run.beta) > 0.0))
    return run.beta, run.objective, unbounded


def best_subset(d: Dataset, k: int, loss: LossSpec,
                budget: int = DEFAULT_BUDGET) -> SubsetSolution:
    """Empirical risk minimizer over all coordinate subsets of size k.

    Ties go to the lexicographically smallest subset. Raises
    BudgetExceededError when C(m, k) exceeds `budget`.
    """
    if k < 0 or k > min(d.n, d.m):
        raise ValueError(f"k must lie in [0, min(n, m)] = [0, {min(d.n, d.m)}]")
    count = math.comb(d.m, k)
    if count > budget:
        raise BudgetExceededError(
            f"{count} subsets of size {k} exceed the budget of {budget}", count)
    best = None
    for subset in itertools.combinations(range(d.m), k):
        values, risk, unbounded = _fit_subset(d, subset, loss)
        if best is None or risk < best.risk:
            best = SubsetSolution(subset, _embed(d.m, subset, values), risk, unbounded)
    return best


def grid_best(d: Dataset, k: int, cube_radius: float, step: float,
              loss: LossSpec, budget: int = DEFAULT_BUDGET) -> SubsetSolution:
    """Best grid center over every size-k subset's cube [-cube_radius, cube_radius]^k.

    The cube is split into ceil(2 * cube_radius / step) cells per axis (cell
    width exactly `step` whenever step divides the cube side) and the risk is
    evaluated at every cell center. Brute force on purpose; small instances
    only.
    """
    if k < 1 or k > min(d.n, d.m):
        raise ValueError(f"k must lie in [1, min(n, m)] = [1, {min(d.n, d.m)}]")
    if cube_radius <= 0 or step <= 0:
        raise ValueError("cube_radius and step must be positive")
    q = max(1, math.ceil(2.0 * cube_radius / step - 1e-12))
    count = math.comb(d.m, k) * q ** k
    if count > budget:
        raise BudgetExceededError(
            f"{count} grid evaluations exceed the budget of {budget}", count)
    width = 2.0 * cube_radius / q
    axis = -cube_radius + (np.arange(q) + 0.5) * width
    mesh = np.meshgrid(*([axis] * k), indexing="ij")
    grid = np.stack([g.ravel() for g in mesh], axis=1)  # q^k rows, lex order
    best = None
    for subset in itertools.combinations(range(d.m), k):
        xs = d.x[:, list(subset)]
        values, _ = loss_terms(loss, d.y[:, None], xs @ grid.T)
        risks = values.mean(axis=0)
        i = int(np.argmin(risks))  # first minimum = lex smallest grid point
        if best is None or risks[i] < best.risk:
            best = SubsetSolution(subset, _embed(d.m, subset, grid[i]), float(risks[i]))
    return best
