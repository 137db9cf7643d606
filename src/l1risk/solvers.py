"""Empirical risk minimization under l1 penalty, l1 constraint or l2 constraint.

Each solver poses its problem as a frozen form, `_L1Penalty` or `_Ball`, that
checks its parameter and carries its penalty, prox step, certificate and
working-set rule. All three run the same monotone proximal/projected gradient
loop: a Barzilai-Borwein step proposal safeguarded by Armijo backtracking,
started at beta = 0. Every run returns a certificate (`SolveReport`): the
penalized form reports the subgradient stationarity residual, the balls the
projected-gradient fixed-point residual at the accepted step length.

Stopping rule: the residual is checked at beta = 0 and after every accepted
step, from the gradient just computed for the next step, and the run stops
at the first iterate whose residual is at most `CERTIFICATE_TOL`. Only runs
that never get there stop otherwise: after `_STALL_STEPS` consecutive
accepted steps whose relative objective change is below `SolveConfig.tol`
(a stall), on a step that does not move, on a line search that finds no
acceptable step, or at `SolveConfig.max_iter`.
`SolveReport.reason` names the rule that fired; a run is converged exactly
when it is "certified". An exponential-loss fit with lambda = 0, or with an
infinite radius, whose returned beta strictly separates the data (every
y * x @ beta > 0) reports "unbounded" whatever rule fired: scaling beta up
keeps lowering the risk, so no minimizer exists.

Smooth-loss l1 fits on wide designs solve on a growing working set of
columns (Celer; Massias, Gramfort & Salmon 2018). The first set holds the
`_WS_FIRST` columns with the largest |gradient| at beta = 0, the ranking
that strong rules (Tibshirani et al. 2012) screen by. Each pass runs the
descent on that block of the design, warm-started from the current beta
and step length; then the gradient and the certificate are recomputed on
the full design. If the certificate fails, the largest violators outside
the set join it, at least `_WS_GROW` of them and at least as many as the
support holds: a violator is a column whose |gradient| exceeds lambda
(penalized fits) or the smallest |gradient| on the support (l1-ball fits).
The first pass, and a pass on a set that just grew, may stop loose: once
the residual on the set is at most `_WS_INNER` times the last full-design
residual, or `CERTIFICATE_TOL` if that is larger. For the first pass that
is the residual at beta = 0 on the first set, which equals the full-design
one for the penalty, and for an l1 ball while the projection at beta = 0
keeps at most `_WS_FIRST` entries. A pass on a set that stopped growing
runs to `CERTIFICATE_TOL`, and once a pass has, every later pass does too:
a column that joins late would otherwise reopen a loose pass and then need
a second exact one. Loose passes pay while a set still misses columns: at
small lambda a penalized set grows over several passes, and exact passes on
it cost more iterations than the loose ones save in checks. On a set that
already holds the support, a loose stop only buys a second full-design
check (a gradient over all columns and a projection). So an l1-ball pass
stops loose only once its support fills more than `_WS_HOLD` (half) of its
set, and otherwise runs on to `CERTIFICATE_TOL` (the forms' `stops_loose`);
CHANGES.md's entry on l1-ball working-set passes gives the measurement.
Penalized passes always may stop loose; the rule was measured on ball fits
only. A set that would cover `_WS_SHARE` (half) of the columns or more is
replaced by all of them. Blocks are gathered into a buffer that a solve
reuses until a set outgrows it. Designs of at most `_WS_SMALL` columns run
one pass on the full design, with the iterates of a plain descent, and so
do l2-ball fits and absolute-loss fits (which never certify). Iteration
and rejection counts add up over passes, `max_iter` caps their total, a
pass that stops uncertified ends the run with its reason, and the reported
residual is always the full-design one.

The step rule is fixed (first step `_STEP_INIT` = 1.0, backtracking factor
`_BACKTRACK` = 0.5, Armijo constant `_ARMIJO` = 1e-4); `SolveConfig` sets
only the stopping rule. From the second step of a pass on, the proposal is a
Barzilai-Borwein length from the last move s and gradient change y, or the
last step grown by 1/`_BACKTRACK` where s.y <= 0. Ball fits always propose
the long length BB1 = s.s / s.y. The penalized form alternates (the forms'
`alternates`): the short length BB2 = s.y / y.y on even iterations of a pass,
BB1 on odd ones (cyclic BB; Dai & Fletcher 2005, Dai, Hager, Schittkowski &
Zhang 2006). At small lambda BB1 overshoots and backtracks again and again,
and alternating roughly halves the trials there; on the ball fits it was
slower, so they keep BB1. CHANGES.md's entry on alternating step lengths
gives the measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from l1risk.risk import Coefficients, Dataset, LossSpec, empirical_gradient, \
    loss_terms

CERTIFICATE_TOL = 1e-5

_STEP_INIT = 1.0
_BACKTRACK = 0.5
_ARMIJO = 1e-4
_STEP_MIN = 1e-18
_STEP_MAX = 1e18
_MAX_BACKTRACKS = 60
# One tiny decrease is not a stall: a fit can make one and certify on the
# next step.
_STALL_STEPS = 2
# Working sets (see the module docstring): first set size, fewest columns
# added per pass, the share of the columns at which all of them are used,
# the residual reduction asked of a loose pass, the share of an l1-ball set
# that its support must fill before a pass may stop loose, and the widest
# design that runs one full pass instead.
_WS_FIRST = 100
_WS_GROW = 50
_WS_SHARE = 0.5
_WS_INNER = 0.1
_WS_HOLD = 0.5
_WS_SMALL = 400


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
        if not 0 < self.tol < np.inf:  # NaN fails too
            raise ValueError("tol must be positive and finite")


@dataclass(frozen=True)
class SolveReport:
    """Convergence certificate for one solver run.

    `reason` is why the run stopped: "certified", "stalled", "max_iter",
    "line_search_exhausted", "zero_step" or "unbounded" (see the module
    docstring).
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
    if not t >= 0:
        raise ValueError("threshold must be nonnegative")
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def project_l1(v, b: float) -> np.ndarray:
    """Exact Euclidean projection of v onto the l1 ball of radius b.

    Sort-based threshold search; interior points are returned unchanged.
    """
    if not b >= 0:
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
    if not delta >= 0:
        raise ValueError("radius must be nonnegative")
    v = np.asarray(v, dtype=float)
    norm = float(np.sqrt(v @ v))
    if norm <= delta:
        return v.copy()
    if delta == 0:
        return np.zeros_like(v)
    return v * (delta / norm)


@dataclass(frozen=True)
class _L1Penalty:
    """Risk + lam * ||beta||_1, certified by the largest of 0 and the l1
    optimality violations: |g_j + lam * sign(beta_j)| where beta_j != 0,
    |g_j| - lam where beta_j = 0 (sign(0) = 0, so one vector holds both). A
    column outside the working set violates it when |g_j| exceeds lam."""

    lam: float
    grows = True
    alternates = True

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:  # NaN fails too; inf * 0 would be NaN
            raise ValueError("lambda must be nonnegative and finite")

    @property
    def unbounded(self) -> bool:
        return self.lam == 0

    def penalty(self, beta):
        return self.lam * float(np.abs(beta).sum())

    def prox(self, v, eta):
        return soft_threshold(v, eta * self.lam)

    def residual(self, beta, grad, eta):
        a = np.abs(grad + self.lam * np.sign(beta))
        return float(np.where(beta != 0, a, a - self.lam).max(initial=0.0))

    def threshold(self, beta, grad):
        return self.lam

    def stops_loose(self, beta):
        return True


@dataclass(frozen=True)
class _Ball:
    """Risk over the ball ||beta|| <= radius that `project` (project_l1 or
    project_l2) projects onto, certified by the fixed-point residual at the
    step length. Only l1-ball sets grow: a column outside one violates
    optimality when |g_j| exceeds the least |g| on the support (0 if none).
    A working-set pass stops at a loose tolerance only once its support
    fills more than `_WS_HOLD` of the set (see the module docstring)."""

    radius: float
    project: object
    alternates = False

    def __post_init__(self):
        if not self.radius >= 0:  # NaN fails too
            name = "l1 budget" if self.grows else "l2 radius"
            raise ValueError(f"{name} must be nonnegative")

    @property
    def grows(self) -> bool:
        return self.project is project_l1

    @property
    def unbounded(self) -> bool:
        return self.radius == np.inf

    def penalty(self, beta):
        return 0.0

    def prox(self, v, eta):
        # an infinite ball projects nothing; project_l1/l2 would copy v
        return v if self.unbounded else self.project(v, self.radius)

    def residual(self, beta, grad, eta):
        step = beta - self.prox(beta - eta * grad, eta)
        return float(np.sqrt(step @ step)) / eta

    def threshold(self, beta, grad):
        on = beta != 0
        return float(np.abs(grad[on]).min()) if on.any() else 0.0

    def stops_loose(self, beta):
        return np.count_nonzero(beta) > _WS_HOLD * beta.size


def _stops(form, beta, res, tol):
    """Whether a pass ends at beta, whose certificate is res: at
    `CERTIFICATE_TOL`, or at a looser `tol` where `form.stops_loose(beta)`."""
    return res <= CERTIFICATE_TOL or (res <= tol and form.stops_loose(beta))


def _descend(x, y, loss, form, cfg, trace=None, beta=None, eta=_STEP_INIT,
             tol=CERTIFICATE_TOL):
    """Monotone composite descent of mean loss(y, x @ beta) + form.penalty(beta),
    started at `beta` (zero if None) with first step length `eta`.

    Each step is `form.prox(v, eta)` at a Barzilai-Borwein length (short and
    long in turn where `form.alternates`; see the module docstring) cut back
    by Armijo backtracking. The run stops at the first iterate where the
    form's certificate `form.residual(beta, grad, eta)` is at most
    `CERTIFICATE_TOL`, or at most a looser `tol` where `form.stops_loose(beta)`
    holds. Candidate steps with nonfinite objective are rejected by the line
    search, so exponential-loss overflow only shortens the step. A `trace`
    list gets the objective of every accepted iterate, and the starting
    objective only on a cold start (`beta` None): a warm start continues an
    earlier pass, whose last objective the trace already holds. Returns the
    last iterate, its report and the last step length.
    """
    n, m = x.shape
    cold = beta is None
    if cold:
        beta = np.zeros(m)
        margins = np.zeros(n)
    else:
        margins = x @ beta
    values, d_margin = loss_terms(loss, y, margins)
    obj = float(values.sum()) / n + form.penalty(beta)
    grad = x.T @ d_margin / n
    if trace is not None and cold:
        trace.append(obj)
    rejections = 0
    iterations = 0
    small_steps = 0  # consecutive accepted steps below the stall threshold
    prev_beta = None
    prev_grad = None
    res = form.residual(beta, grad, eta)
    reason = "certified" if _stops(form, beta, res, tol) else None
    while reason is None and iterations < cfg.max_iter:
        iterations += 1
        if prev_beta is not None:
            db = beta - prev_beta
            dg = grad - prev_grad
            curv = float(db @ dg)
            # BB step where curvature is informative, otherwise grow the last
            # step; a form that alternates takes the short one on even steps
            if curv > 0:
                short = form.alternates and iterations % 2 == 0
                eta = curv / float(dg @ dg) if short else float(db @ db) / curv
            else:
                eta = eta / _BACKTRACK
            eta = min(max(eta, _STEP_MIN), _STEP_MAX)
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            cand = form.prox(beta - eta * grad, eta)
            move = cand - beta
            move_sq = float(move @ move)
            cand_values, cand_d_margin = loss_terms(loss, y, x @ cand)
            cand_obj = float(cand_values.sum()) / n + form.penalty(cand)
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
        res = form.residual(beta, grad, eta)
        if _stops(form, beta, res, tol):
            reason = "certified"
        elif move_sq == 0.0:
            reason = "zero_step"
        else:
            small_steps = small_steps + 1 if rel_change < cfg.tol else 0
            if small_steps == _STALL_STEPS:
                reason = "stalled"
    return beta, SolveReport(iterations, obj, float(res), rejections,
                             reason or "max_iter"), eta


def _largest(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries of values, in increasing order."""
    if k >= values.size:
        return np.arange(values.size)
    return np.sort(np.argpartition(values, values.size - k)[values.size - k:])


def _working_set(x, y, loss, form, cfg, trace=None):
    """`_descend` of `form` on a growing set of the columns of x (see the
    module docstring), with the certificate always taken on the full design.

    A column outside the set violates optimality when its |gradient| exceeds
    `form.threshold(beta, grad)`. For a form whose set does not grow, for
    the absolute loss (whose subgradient descent never certifies, so no pass
    would end with a set worth growing), or for designs of at most
    `_WS_SMALL` columns, the first pass runs on all of x, and a pass on all
    of x is always the last.
    """
    n, m = x.shape
    # One gather buffer, with room for twice the set, replaced only when a
    # set outgrows it. Allocating room for the largest set up front costs
    # peak memory: once freed, a block that size raises glibc's mmap
    # threshold, so later arrays stay on the heap.
    flat = np.empty(0)

    def gather(cols):
        nonlocal flat
        if flat.size < n * cols.size:
            flat = np.empty(n * min(2 * cols.size, int(_WS_SHARE * m)))
        # mode="clip" writes straight into out; the default buffers it
        return np.take(x, cols, axis=1, mode="clip",
                       out=flat[:n * cols.size].reshape(n, cols.size))

    start, cols, block = None, None, x  # a cold first pass on all of x
    eta, tol = _STEP_INIT, CERTIFICATE_TOL
    if form.grows and loss.kind != "absolute" and m > _WS_SMALL:
        grad = x.T @ loss_terms(loss, y, np.zeros(n))[1] / n
        cols = _largest(np.abs(grad), _WS_FIRST)
        block = gather(cols)
        tol = max(tol, _WS_INNER * form.residual(np.zeros(cols.size),
                                                 grad[cols], eta))
    iterations = rejections = 0
    while True:
        sub, report, eta = _descend(block, y, loss, form, replace(
            cfg, max_iter=cfg.max_iter - iterations), trace, start, eta, tol)
        iterations += report.iterations
        rejections += report.step_rejections
        if cols is None:
            return sub, replace(report, iterations=iterations,
                                step_rejections=rejections)
        beta = np.zeros(m)
        beta[cols] = sub
        grad = x.T @ loss_terms(loss, y, block @ sub)[1] / n
        res = form.residual(beta, grad, eta)
        reason = report.reason
        if reason == "certified" and res > CERTIFICATE_TOL:
            reason = None if iterations < cfg.max_iter else "max_iter"
        if reason is not None:
            return beta, SolveReport(iterations, report.objective, res,
                                     rejections, reason)
        score = np.abs(grad)
        score[cols] = 0.0
        violators = np.flatnonzero(score > form.threshold(beta, grad))
        grow = min(violators.size, max(_WS_GROW, np.count_nonzero(beta)))
        if grow == 0 and tol > CERTIFICATE_TOL:
            tol = CERTIFICATE_TOL  # the set holds: finish it exactly
        elif grow == 0 or cols.size + grow >= _WS_SHARE * m:
            cols, block, tol = None, x, CERTIFICATE_TOL
        else:
            joining = violators[_largest(score[violators], grow)]
            # disjoint, since score[cols] = 0; np.union1d would import numpy.ma
            cols = np.sort(np.concatenate((cols, joining)))
            block = gather(cols)
            if tol > CERTIFICATE_TOL:  # once exact, passes stay exact
                tol = max(CERTIFICATE_TOL, _WS_INNER * res)
        start = beta if cols is None else beta[cols]


def kkt_residual(d: Dataset, loss: LossSpec, lam: float, beta: Coefficients) -> float:
    """Stationarity residual of the l1-penalized objective at beta."""
    return _L1Penalty(lam).residual(beta.values, empirical_gradient(d, beta, loss), 1.0)


def _solve(d: Dataset, loss: LossSpec, form, cfg, trace):
    """Fit `form` on d, flagging an unbounded fit (see the module docstring)."""
    beta, report = _working_set(d.x, d.y, loss, form, cfg, trace)
    if form.unbounded and loss.kind == "exponential" and np.all(d.y * (d.x @ beta) > 0):
        report = replace(report, reason="unbounded")
    return Coefficients(beta), report


def solve_penalized(d: Dataset, loss: LossSpec, lam: float,
                    cfg: SolveConfig = SolveConfig(), trace=None):
    """Minimize empirical risk + lam * ||beta||_1 by proximal gradient.

    Non-convergence is not an exception: the best (last accepted, hence
    lowest-objective) iterate is returned with converged=False.
    """
    return _solve(d, loss, _L1Penalty(lam), cfg, trace)


def solve_constrained(d: Dataset, loss: LossSpec, b: float,
                      cfg: SolveConfig = SolveConfig(), trace=None):
    """Minimize empirical risk over the l1 ball ||beta||_1 <= b (projected gradient)."""
    return _solve(d, loss, _Ball(b, project_l1), cfg, trace)


def solve_ridge_constrained(d: Dataset, loss: LossSpec, delta: float,
                            cfg: SolveConfig = SolveConfig(), trace=None):
    """Minimize empirical risk over the l2 ball ||beta||_2 <= delta (projected gradient)."""
    return _solve(d, loss, _Ball(delta, project_l2), cfg, trace)
