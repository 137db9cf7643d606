"""Empirical risk minimization under l1 penalty, l1 constraint or l2 constraint.

All three solvers run the same monotone proximal/projected gradient loop:
a Barzilai-Borwein step proposal safeguarded by Armijo backtracking, started
at beta = 0. Every run returns a certificate (`SolveReport`): the penalized
form reports the subgradient stationarity residual, the constrained forms the
projected-gradient fixed-point residual at the final step length. A run is
reported converged only when its residual is at most `CERTIFICATE_TOL`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from l1risk.risk import Coefficients, Dataset, LossSpec, empirical_gradient, \
    loss_terms

CERTIFICATE_TOL = 1e-5

_STEP_MIN = 1e-18
_STEP_MAX = 1e18
_MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class SolveConfig:
    """Optimizer controls shared by all solvers."""

    max_iter: int = 10000
    tol: float = 1e-8
    step_init: float = 1.0
    backtrack: float = 0.5
    armijo: float = 1e-4

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if not 0 < self.backtrack < 1:
            raise ValueError("backtrack must lie in (0, 1)")
        if self.step_init <= 0:
            raise ValueError("step_init must be positive")
        if self.armijo <= 0:
            raise ValueError("armijo must be positive")


@dataclass(frozen=True)
class SolveReport:
    """Convergence certificate for one solver run."""

    iterations: int
    objective: float
    kkt_residual: float
    converged: bool
    step_rejections: int


def soft_threshold(x, t):
    """sign(x) * max(|x| - t, 0), elementwise (a float64 scalar for a scalar x)."""
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def project_l1(v, b: float) -> np.ndarray:
    """Exact Euclidean projection of v onto the l1 ball of radius b.

    Sort-based threshold search; interior points are returned unchanged.
    """
    if b < 0:
        raise ValueError("radius must be nonnegative")
    v = np.asarray(v, dtype=float)
    if b == 0:
        return np.zeros_like(v)
    a = np.abs(v)
    if a.sum() <= b:
        return v.copy()
    u = np.sort(a)[::-1]
    cssv = np.cumsum(u) - b
    k = np.arange(1, u.size + 1)
    hits = np.nonzero(u > cssv / k)[0]
    # when b is below the top entry's rounding resolution the test set is
    # empty; the projection then puts all mass on the largest coordinate
    rho = int(hits[-1]) if hits.size else 0
    theta = cssv[rho] / (rho + 1)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def project_l2(v, delta: float) -> np.ndarray:
    """Euclidean projection onto the l2 ball of radius delta (radial rescale)."""
    if delta < 0:
        raise ValueError("radius must be nonnegative")
    v = np.asarray(v, dtype=float)
    norm = float(np.sqrt(v @ v))
    if norm <= delta:
        return v.copy()
    if delta == 0:
        return np.zeros_like(v)
    return v * (delta / norm)


@dataclass(frozen=True)
class _Descent:
    """Where `_descend` stopped: the last accepted iterate, its gradient and
    objective, the counts, the final step length and whether the iterate
    crossed `norm_cutoff`."""

    beta: np.ndarray
    grad: np.ndarray
    objective: float
    iterations: int
    rejections: int
    eta: float
    hit_cutoff: bool


def _descend(x, y, loss, penalty, prox, cfg, norm_cutoff=None, trace=None):
    """Monotone composite descent of mean loss(y, x @ beta) + penalty(beta).

    `prox(v, eta)` must return the proximal/projection step for step length
    eta. Candidate steps with nonfinite objective are rejected by the line
    search, so exponential-loss overflow only shortens the step.
    """
    n, m = x.shape
    beta = np.zeros(m)
    values, d_margin = loss_terms(loss, y, np.zeros(n))
    obj = float(values.mean()) + penalty(beta)
    grad = x.T @ d_margin / n
    if trace is not None:
        trace.append(obj)
    eta = cfg.step_init
    rejections = 0
    iterations = 0
    hit_cutoff = False
    prev_beta = None
    prev_grad = None
    for iterations in range(1, cfg.max_iter + 1):
        if prev_beta is not None:
            db = beta - prev_beta
            dg = grad - prev_grad
            curv = float(db @ dg)
            # BB step where curvature is informative, otherwise grow the last step
            eta = float(db @ db) / curv if curv > 0 else eta / cfg.backtrack
            eta = min(max(eta, _STEP_MIN), _STEP_MAX)
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            cand = prox(beta - eta * grad, eta)
            move = cand - beta
            move_sq = float(move @ move)
            cand_values, cand_d_margin = loss_terms(loss, y, x @ cand)
            cand_obj = float(cand_values.mean()) + penalty(cand)
            if np.isfinite(cand_obj) and cand_obj <= obj - cfg.armijo / eta * move_sq:
                accepted = True
                break
            rejections += 1
            eta *= cfg.backtrack
            if eta < _STEP_MIN:
                break
        if not accepted:
            break
        rel_change = abs(obj - cand_obj) / max(1.0, abs(obj))
        prev_beta, prev_grad = beta, grad
        beta, obj = cand, cand_obj
        grad = x.T @ cand_d_margin / n
        if trace is not None:
            trace.append(obj)
        if norm_cutoff is not None and float(np.sqrt(beta @ beta)) > norm_cutoff:
            hit_cutoff = True
            break
        if move_sq == 0.0 or rel_change < cfg.tol:
            break
    return _Descent(beta, grad, obj, iterations, rejections, eta, hit_cutoff)


def _stationarity_residual(grad: np.ndarray, lam: float, beta: np.ndarray) -> float:
    """max over coordinates of the l1-subdifferential optimality violation."""
    on = beta != 0
    residual = 0.0
    if np.any(on):
        residual = float(np.abs(grad[on] + lam * np.sign(beta[on])).max())
    if np.any(~on):
        residual = max(residual, float(np.maximum(np.abs(grad[~on]) - lam, 0.0).max()))
    return residual


def kkt_residual(d: Dataset, loss: LossSpec, lam: float, beta: Coefficients) -> float:
    """Stationarity residual of the l1-penalized objective at beta."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return _stationarity_residual(empirical_gradient(d, beta, loss), lam, beta.values)


def solve_penalized(d: Dataset, loss: LossSpec, lam: float,
                    cfg: SolveConfig = SolveConfig(), trace=None):
    """Minimize empirical risk + lam * ||beta||_1 by proximal gradient.

    Non-convergence is not an exception: the best (last accepted, hence
    lowest-objective) iterate is returned with converged=False.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    run = _descend(
        d.x, d.y, loss,
        penalty=lambda b: lam * float(np.abs(b).sum()),
        prox=lambda v, eta: soft_threshold(v, eta * lam),
        cfg=cfg, trace=trace)
    residual = _stationarity_residual(run.grad, lam, run.beta)
    report = SolveReport(run.iterations, run.objective, residual,
                         residual <= CERTIFICATE_TOL, run.rejections)
    return Coefficients(run.beta), report


def _solve_projected(d, loss, project, cfg, trace):
    run = _descend(
        d.x, d.y, loss, penalty=lambda b: 0.0,
        prox=lambda v, _eta: project(v), cfg=cfg, trace=trace)
    fixed_point = run.beta - project(run.beta - run.eta * run.grad)
    residual = float(np.sqrt(fixed_point @ fixed_point)) / run.eta
    report = SolveReport(run.iterations, run.objective, residual,
                         residual <= CERTIFICATE_TOL, run.rejections)
    return Coefficients(run.beta), report


def solve_constrained(d: Dataset, loss: LossSpec, b: float,
                      cfg: SolveConfig = SolveConfig(), trace=None):
    """Minimize empirical risk over the l1 ball ||beta||_1 <= b (projected gradient)."""
    if b < 0:
        raise ValueError("l1 budget must be nonnegative")
    return _solve_projected(d, loss, lambda v: project_l1(v, b), cfg, trace)


def solve_ridge_constrained(d: Dataset, loss: LossSpec, delta: float,
                            cfg: SolveConfig = SolveConfig(), trace=None):
    """Minimize empirical risk over the l2 ball ||beta||_2 <= delta (projected gradient)."""
    if delta < 0:
        raise ValueError("l2 radius must be nonnegative")
    return _solve_projected(d, loss, lambda v: project_l2(v, delta), cfg, trace)
