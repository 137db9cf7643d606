"""Empirical risk minimization under l1 penalty, l1 constraint or l2 constraint.

All three solvers run the same monotone proximal/projected gradient loop:
a Barzilai-Borwein step proposal safeguarded by Armijo backtracking, started
at beta = 0. Every run returns a certificate (`SolveReport`): the penalized
form reports the subgradient stationarity residual, the constrained forms the
projected-gradient fixed-point residual at the accepted step length.

Stopping rule: the residual is checked at beta = 0 and after every accepted
step, from the gradient just computed for the next step, and the run stops
at the first iterate whose residual is at most `CERTIFICATE_TOL`. Only runs
that never get there stop otherwise: after `_STALL_STEPS` consecutive
accepted steps whose relative objective change is below `SolveConfig.tol`
(a stall), on a step that does not move, on a line search that finds no
acceptable step, or at `SolveConfig.max_iter`.
`SolveReport.reason` names the rule that fired; a run is converged exactly
when it is "certified".

Line-search trials on a sparse candidate compute the margins from its
support columns only (`_margins`); the gradient, and with it every
certificate, always uses the full design.

The step rule is fixed (first step `_STEP_INIT` = 1.0, backtracking factor
`_BACKTRACK` = 0.5, Armijo constant `_ARMIJO` = 1e-4); `SolveConfig` sets
only the stopping rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from l1risk.risk import Coefficients, Dataset, LossSpec, empirical_gradient, \
    loss_terms

CERTIFICATE_TOL = 1e-5

# Trial margins use only the candidate's support columns when the support
# covers less than this share of them. Gathering columns costs more per
# column than the full product streams: on 500x1005, 200x2000, 400x1318 and
# 1600x6998 designs (2 cores, OpenBLAS 0.3.31) the gather stops paying at
# ~12% of the columns with one BLAS thread and at ~6% with two.
_SUPPORT_FRACTION = 0.05

_STEP_INIT = 1.0
_BACKTRACK = 0.5
_ARMIJO = 1e-4
_STEP_MIN = 1e-18
_STEP_MAX = 1e18
_MAX_BACKTRACKS = 60
# One tiny decrease is not a stall: a fit can make one and certify on the
# next step.
_STALL_STEPS = 2


@dataclass(frozen=True)
class SolveConfig:
    """Fallback stopping rule shared by all solvers: an iteration cap and a
    stall threshold on the relative objective change (see the module
    docstring). A run stops earlier, at its first certified iterate."""

    max_iter: int = 10000
    tol: float = 1e-13

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class SolveReport:
    """Convergence certificate for one solver run.

    `reason` is why the run stopped: "certified", "stalled", "max_iter",
    "line_search_exhausted" or "zero_step" (see the module docstring).
    """

    iterations: int
    objective: float
    kkt_residual: float
    step_rejections: int
    reason: str

    @property
    def converged(self) -> bool:
        return self.reason == "certified"


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


def _margins(x, beta: np.ndarray) -> np.ndarray:
    """x @ beta, from the support columns alone when beta is sparse enough."""
    support = np.flatnonzero(beta)
    if support.size < _SUPPORT_FRACTION * beta.size:
        return x[:, support] @ beta[support]
    return x @ beta


def _descend(x, y, loss, penalty, prox, cfg, residual=None, trace=None):
    """Monotone composite descent of mean loss(y, x @ beta) + penalty(beta).

    `prox(v, eta)` must return the proximal/projection step for step length
    eta, and `residual(beta, grad, eta)`, if given, the certificate at beta;
    the run stops at the first iterate it certifies. Without one only the
    fallback rules apply and the report's residual is inf. Candidate steps
    with nonfinite objective are rejected by the line search, so
    exponential-loss overflow only shortens the step.
    """
    n, m = x.shape
    beta = np.zeros(m)
    values, d_margin = loss_terms(loss, y, np.zeros(n))
    obj = float(values.mean()) + penalty(beta)
    grad = x.T @ d_margin / n
    if trace is not None:
        trace.append(obj)
    eta = _STEP_INIT
    rejections = 0
    iterations = 0
    small_steps = 0  # consecutive accepted steps below the stall threshold
    prev_beta = None
    prev_grad = None
    res = np.inf if residual is None else residual(beta, grad, eta)
    reason = "certified" if res <= CERTIFICATE_TOL else None
    while reason is None and iterations < cfg.max_iter:
        iterations += 1
        if prev_beta is not None:
            db = beta - prev_beta
            dg = grad - prev_grad
            curv = float(db @ dg)
            # BB step where curvature is informative, otherwise grow the last step
            eta = float(db @ db) / curv if curv > 0 else eta / _BACKTRACK
            eta = min(max(eta, _STEP_MIN), _STEP_MAX)
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            cand = prox(beta - eta * grad, eta)
            move = cand - beta
            move_sq = float(move @ move)
            cand_values, cand_d_margin = loss_terms(loss, y, _margins(x, cand))
            cand_obj = float(cand_values.mean()) + penalty(cand)
            if np.isfinite(cand_obj) and cand_obj <= obj - _ARMIJO / eta * move_sq:
                accepted = True
                break
            rejections += 1
            eta *= _BACKTRACK
            if eta < _STEP_MIN:
                break
        if not accepted:
            reason = "line_search_exhausted"
            break
        rel_change = abs(obj - cand_obj) / max(1.0, abs(obj))
        prev_beta, prev_grad = beta, grad
        beta, obj = cand, cand_obj
        grad = x.T @ cand_d_margin / n
        if trace is not None:
            trace.append(obj)
        if residual is not None:
            res = residual(beta, grad, eta)
        if res <= CERTIFICATE_TOL:
            reason = "certified"
        elif move_sq == 0.0:
            reason = "zero_step"
        else:
            small_steps = small_steps + 1 if rel_change < cfg.tol else 0
            if small_steps == _STALL_STEPS:
                reason = "stalled"
    return beta, SolveReport(iterations, obj, float(res), rejections,
                             reason or "max_iter")


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
    beta, report = _descend(
        d.x, d.y, loss,
        penalty=lambda b: lam * float(np.abs(b).sum()),
        prox=lambda v, eta: soft_threshold(v, eta * lam),
        cfg=cfg,
        residual=lambda b, g, _eta: _stationarity_residual(g, lam, b),
        trace=trace)
    return Coefficients(beta), report


def _solve_projected(d, loss, project, cfg, trace):
    def fixed_point_residual(beta, grad, eta):
        step = beta - project(beta - eta * grad)
        return float(np.sqrt(step @ step)) / eta

    beta, report = _descend(
        d.x, d.y, loss, penalty=lambda b: 0.0,
        prox=lambda v, _eta: project(v), cfg=cfg,
        residual=fixed_point_residual, trace=trace)
    return Coefficients(beta), report


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
