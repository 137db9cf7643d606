"""Exhaustive best-subset selection and a brute-force grid search.

Both searches are deliberately exhaustive: this module is the small-instance
ground truth against which the l1 route is compared, and simplicity is the
guarantee. A budget on the number of evaluated candidates rejects instances
that are too large instead of silently sampling.

Squared and exponential subsets are fit in chunks: the columns x_S of a chunk
(signed, y * x_S, for the exponential loss) are stacked into one
(subsets, k, n) array of at most `_CHUNK_BYTES`, and its k x k systems are
solved at once by an eigendecomposition whose tiny eigenvalues count as zero,
so a zero or repeated column gets the least-norm solution. Squared loss takes
one Newton step from 0, exact on a quadratic, and reads each risk from its
residuals; its k x k system squares a subset's condition number, so one past
about 5e7 counts as singular. Exponential loss takes damped Newton steps
(Boyd & Vandenberghe, Convex Optimization, 9.5). Each subset backtracks its
own step from 1 until Armijo's condition holds, with the solvers' constants;
a nonfinite trial risk is rejected. A subset stops once it holds the
certificate its descent fit used, max |gradient| <= CERTIFICATE_TOL, and half
its squared Newton decrement (the decrease a further step predicts) is at
most `_DECREMENT_TOL`: Newton reaches the certificate in long steps, and the
certificate alone left fits up to 2e-9 above their minimum. A subset also
stops on a line search that finds no acceptable step, or after
`_SUBSET_CFG.max_iter` steps. A subset whose margins become strictly
separated has no minimizer and is flagged unbounded at its last iterate.
Newton keeps stepping it toward its infimum 0 until its gradient and
decrement pass the same test, or the line search fails. That infimum is below
the risk of every subset that cannot separate the labels (at least 1/n, since
one margin is never positive), so `best_subset` takes the lexicographically
first separated subset with its batched fit and stops enumerating at its
chunk. Absolute loss fits each subset's columns as their own dataset with
`solve_ridge_constrained(..., inf)`: an infinite l2 ball.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from l1risk.risk import EXPONENTIAL, Coefficients, Dataset, LossSpec, \
    loss_terms
from l1risk.solvers import CERTIFICATE_TOL, SolveConfig, _ARMIJO, \
    _BACKTRACK, _MAX_BACKTRACKS, solve_ridge_constrained

DEFAULT_BUDGET = 1_000_000

_SUBSET_CFG = SolveConfig(max_iter=2000, tol=1e-12)
# Bytes of stacked columns in one batch of squared or exponential subset fits.
_CHUNK_BYTES = 2 * 1024 * 1024
# A certified Newton fit stops once its predicted remaining decrease, half
# the squared Newton decrement, is at most this.
_DECREMENT_TOL = 1e-13


class BudgetExceededError(ValueError):
    """The requested enumeration is larger than the configured budget."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


@dataclass(frozen=True)
class SubsetSolution:
    """Best coefficients found on one coordinate subset (zeros elsewhere).

    `unbounded` marks an exponential fit whose margins are strictly
    separated: no minimizer exists, and `risk` is the risk of `beta`, near
    the infimum 0.
    """

    subset: tuple
    beta: Coefficients
    risk: float
    unbounded: bool = False


def _embed(m: int, subset, values) -> Coefficients:
    full = np.zeros(m)
    full[list(subset)] = values
    return Coefficients(full)


def _fit_subset(d: Dataset, subset, loss: LossSpec):
    """Absolute-loss fit on the columns of `subset`: (coefficients, risk)."""
    # the subgradient descent almost never certifies and stalls
    beta, report = solve_ridge_constrained(Dataset(d.x[:, list(subset)], d.y),
                                           loss, np.inf, _SUBSET_CFG)
    return beta.values, report.objective


def _newton_directions(hess, grad):
    """-pinv(H) @ g for a stack of symmetric positive semidefinite H, with
    eigenvalues at most k * eps times the largest counted as zero."""
    w, vecs = np.linalg.eigh(hess)
    cutoff = w[:, -1:] * (hess.shape[-1] * np.finfo(float).eps)
    inverse = np.divide(1.0, w, out=np.zeros_like(w), where=w > cutoff)
    coords = np.einsum("bjl,bj->bl", vecs, grad) * inverse
    return -np.einsum("bjl,bl->bj", vecs, coords)


def _newton_exponential(z):
    """Damped Newton fits of mean(exp(-z[b].T @ beta)) for every b (see the
    module docstring).

    z stacks the signed columns y * x_S as (subsets, k, n). In the signed
    margins u = z.T @ beta the loss is exp(-u): `loss_terms` with label 1
    gives its value and derivative, and its second derivative is the value.
    Returns the coefficients, the risks and the mask of the subsets whose
    margins became strictly separated (at their last iterate).
    """
    count, k, n = z.shape
    beta = np.zeros((count, k))
    risk = np.ones(count)
    separated = np.zeros(count, dtype=bool)
    # state of the subsets still being fit, in batch order
    live = np.arange(count)
    b = np.zeros((count, k))
    u = np.zeros((count, n))
    values, d_margin = loss_terms(EXPONENTIAL, 1.0, u)
    obj = values.mean(axis=1)
    stuck = np.zeros(count, dtype=bool)  # the last line search found no step
    for steps in itertools.count():
        grad = np.einsum("bjn,bn->bj", z, d_margin) / n
        hess = np.einsum("bjn,bln->bjl", z * values[:, None, :], z) / n
        direction = _newton_directions(hess, grad)
        slope = np.einsum("bj,bj->b", grad, direction)  # -(Newton decrement)^2
        sep = np.all(u > 0.0, axis=1)
        certified = np.abs(grad).max(axis=1, initial=0.0) <= CERTIFICATE_TOL
        stop = (stuck | (certified & (-0.5 * slope <= _DECREMENT_TOL))
                | (steps == _SUBSET_CFG.max_iter))
        if stop.any():
            beta[live[stop]] = b[stop]
            risk[live[stop]] = obj[stop]
            separated[live[stop]] = sep[stop]
            if stop.all():
                return beta, risk, separated
            keep = ~stop
            live, z, b, u, values, d_margin, obj, direction, slope = (
                a[keep] for a in (live, z, b, u, values, d_margin, obj,
                                  direction, slope))
        shift = np.einsum("bjn,bj->bn", z, direction)
        t = np.ones(live.size)
        trying = np.arange(live.size)
        for _ in range(_MAX_BACKTRACKS):
            trial = u[trying] + t[trying, None] * shift[trying]
            trial_values, trial_d_margin = loss_terms(EXPONENTIAL, 1.0, trial)
            with np.errstate(over="ignore"):
                trial_obj = trial_values.mean(axis=1)
            ok = np.isfinite(trial_obj) & (
                trial_obj <= obj[trying] + _ARMIJO * t[trying] * slope[trying])
            hit = trying[ok]
            b[hit] += t[hit, None] * direction[hit]
            u[hit], values[hit], d_margin[hit], obj[hit] = (
                trial[ok], trial_values[ok], trial_d_margin[ok], trial_obj[ok])
            trying = trying[~ok]
            if not trying.size:
                break
            t[trying] *= _BACKTRACK
        stuck = np.zeros(live.size, dtype=bool)
        stuck[trying] = True


def _subset_fits(d: Dataset, k: int, loss: LossSpec):
    """Fits of every size-k subset in lexicographic order, yielded in chunks
    of (subsets, coefficients, risks, unbounded flags); only exponential
    subsets can be flagged."""
    combos = itertools.combinations(range(d.m), k)
    size = max(1, _CHUNK_BYTES // (d.x.itemsize * d.n * max(k, 1)))
    rows = (d.x * d.y[:, None] if loss.kind == "exponential" else d.x).T.copy()
    while chunk := list(itertools.islice(combos, size)):
        idx = np.array(chunk, dtype=np.intp)  # rows[idx] is (subsets, k, n)
        if loss.kind == "absolute":
            yield (chunk, *zip(*(_fit_subset(d, s, loss) for s in chunk)),
                   [False] * len(chunk))
        elif loss.kind == "exponential":  # unnamed, so Newton can free it
            yield (chunk, *_newton_exponential(rows[idx]))
        else:  # squared: one Newton step from 0 is exact on a quadratic
            xs = rows[idx]
            beta = _newton_directions(np.einsum("bjn,bln->bjl", xs, xs),
                                      -np.einsum("bjn,n->bj", xs, d.y))
            residual = d.y - np.einsum("bjn,bj->bn", xs, beta)
            yield chunk, beta, (residual**2).mean(1), [False] * len(chunk)


def best_subset(d: Dataset, k: int, loss: LossSpec,
                budget: int = DEFAULT_BUDGET) -> SubsetSolution:
    """Empirical risk minimizer over all coordinate subsets of size k.

    Ties go to the lexicographically smallest subset; for the exponential
    loss every separated subset ties at infimum 0, so the first one wins
    (see the module docstring). An unbounded solution's `risk` is the risk
    of its returned beta. Raises BudgetExceededError when C(m, k) exceeds
    `budget`.
    """
    if k < 0 or k > min(d.n, d.m):
        raise ValueError(f"k must lie in [0, min(n, m)] = [0, {min(d.n, d.m)}]")
    count = math.comb(d.m, k)
    if count > budget:
        raise BudgetExceededError(
            f"{count} subsets of size {k} exceed the budget of {budget}", count)
    best = None
    for subsets, values, risks, unbounded in _subset_fits(d, k, loss):
        if any(unbounded):
            i = int(np.argmax(unbounded))
            return SubsetSolution(subsets[i], _embed(d.m, subsets[i], values[i]),
                                  float(risks[i]), True)
        i = int(np.argmin(risks))  # the first minimum within a chunk
        if best is None or risks[i] < best.risk:
            best = SubsetSolution(subsets[i], _embed(d.m, subsets[i], values[i]),
                                  float(risks[i]))
    return best


def _check_grid(cube_radius: float, step: float) -> None:
    """`grid_best`'s checks of its cube and step, which need no data."""
    if not 0 < cube_radius < math.inf:  # NaN fails too
        raise ValueError("cube_radius must be positive and finite")
    if not 0 < step < math.inf or 2.0 * cube_radius / step == math.inf:
        raise ValueError("step must be positive, finite and not so small "
                         "that 2 * cube_radius / step overflows")


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
    _check_grid(cube_radius, step)
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
