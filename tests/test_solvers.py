"""Penalized and ball-constrained solvers and their certificates."""

import dataclasses
import hashlib
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1risk.risk import (
    ABSOLUTE,
    EXPONENTIAL,
    SQUARED,
    Coefficients,
    Dataset,
    empirical_gradient,
    empirical_risk,
)
from l1risk import experiments, solvers
from l1risk.simgen import gen_null, gen_section4
from l1risk.solvers import (
    _WS_FIRST,
    _WS_SMALL,
    CERTIFICATE_TOL,
    SolveConfig,
    _descend,
    _Ball,
    _L1Penalty,
    kkt_residual,
    project_l1,
    project_l2,
    soft_threshold,
    solve_constrained,
    solve_penalized,
    solve_ridge_constrained,
)


def test_soft_threshold_values():
    assert soft_threshold(0.3, 0.1) == pytest.approx(0.2)
    assert soft_threshold(-0.05, 0.1) == 0.0
    assert soft_threshold(1.7, 0.0) == 1.7
    np.testing.assert_allclose(soft_threshold(np.array([0.3, -0.3]), 0.1),
                               [0.2, -0.2])
    with pytest.raises(ValueError):
        soft_threshold(1.0, -0.1)


def test_project_l1_pinned():
    np.testing.assert_array_equal(project_l1([0.2, -0.3], 1.0), [0.2, -0.3])
    np.testing.assert_allclose(project_l1([3.0, 0.0], 1.0), [1.0, 0.0])
    np.testing.assert_allclose(project_l1([2.0, 1.0], 1.0), [1.0, 0.0])
    np.testing.assert_array_equal(project_l1([5.0, -2.0], 0.0), [0.0, 0.0])
    with pytest.raises(ValueError):
        project_l1([1.0], -1.0)


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 50.0))
def test_project_l1_feasible_and_idempotent(seed, radius):
    v = np.random.default_rng(seed).standard_normal(8) * 3.0
    w = project_l1(v, radius)
    assert np.abs(w).sum() <= radius + 1e-9
    np.testing.assert_allclose(project_l1(w, radius), w, atol=1e-12)
    if np.abs(v).sum() <= radius:
        np.testing.assert_array_equal(w, v)


def test_project_l1_is_the_closest_feasible_point():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = rng.standard_normal(6) * 2.0
        b = float(rng.uniform(0.1, 4.0))
        w = project_l1(v, b)
        base = np.linalg.norm(w - v)
        for _ in range(20):
            z = rng.standard_normal(6)
            z *= b / np.abs(z).sum() * rng.uniform(0.0, 1.0)
            assert base <= np.linalg.norm(z - v) + 1e-9


def test_project_l2():
    np.testing.assert_array_equal(project_l2([0.3, 0.4], 1.0), [0.3, 0.4])
    np.testing.assert_allclose(project_l2([3.0, 4.0], 1.0), [0.6, 0.8])
    np.testing.assert_array_equal(project_l2([3.0, 4.0], 0.0), [0.0, 0.0])
    with pytest.raises(ValueError):
        project_l2([1.0], -0.5)


def test_solve_config_validation():
    for kwargs in ({"max_iter": 0}, {"tol": 0.0}):
        with pytest.raises(ValueError):
            SolveConfig(**kwargs)
    # the step rule is fixed; the config carries only the stopping rule
    assert [f.name for f in dataclasses.fields(SolveConfig)] == ["max_iter", "tol"]


def test_negative_parameters_rejected(hadamard):
    with pytest.raises(ValueError):
        solve_penalized(hadamard, SQUARED, -0.1)
    with pytest.raises(ValueError):
        solve_constrained(hadamard, SQUARED, -1.0)
    with pytest.raises(ValueError):
        solve_ridge_constrained(hadamard, SQUARED, -1.0)


def test_penalized_orthonormal_design_closed_form(hadamard):
    beta, report = solve_penalized(hadamard, SQUARED, 1.0)
    np.testing.assert_allclose(beta.values, [2.5, 1.5, 0.5], atol=1e-6)
    assert report.converged
    assert kkt_residual(hadamard, SQUARED, 1.0, beta) <= 1e-8


def test_penalized_large_lambda_keeps_the_origin(hadamard):
    # gradient at 0 is -2*(3, 2, 1); any lambda >= 6 makes 0 stationary
    beta, report = solve_penalized(hadamard, SQUARED, 6.0)
    assert beta.l1_norm == 0.0
    assert report.converged
    assert kkt_residual(hadamard, SQUARED, 6.0, Coefficients.zeros(3)) == 0.0


def test_constrained_budget_zero(hadamard):
    beta, _ = solve_constrained(hadamard, SQUARED, 0.0)
    assert beta.l1_norm == 0.0


def test_constrained_orthonormal_design(hadamard):
    beta, report = solve_constrained(hadamard, SQUARED, 3.0)
    np.testing.assert_allclose(beta.values, [2.0, 1.0, 0.0], atol=1e-6)
    assert report.converged
    assert beta.l1_norm <= 3.0 + 1e-9


def test_constrained_interior_budget_is_least_squares(hadamard):
    beta, _ = solve_constrained(hadamard, SQUARED, 10.0)
    np.testing.assert_allclose(beta.values, [3.0, 2.0, 1.0], atol=1e-6)


def test_ridge_zero_and_interior_radius(hadamard):
    beta, _ = solve_ridge_constrained(hadamard, SQUARED, 0.0)
    assert beta.l2_norm == 0.0
    beta, _ = solve_ridge_constrained(hadamard, SQUARED, 100.0)
    np.testing.assert_allclose(beta.values, [3.0, 2.0, 1.0], atol=1e-6)


def test_ridge_hits_the_boundary_when_the_radius_is_small():
    # with m >> n and signal-free y the least squares optima are interpolants
    # whose smallest l2 norm concentrates near sqrt(n / (m - n - 1)); a radius
    # below that value forces the constrained solution onto the sphere
    d = gen_null(50, 400, 1.0, 123)
    beta, report = solve_ridge_constrained(d, SQUARED, 0.15,
                                           SolveConfig(tol=1e-14))
    assert report.converged
    assert abs(beta.l2_norm - 0.15) <= 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_l2_ball_fit_is_the_min_norm_interpolant_at_the_criterion_4_shape(seed):
    # why acceptance criterion 4 fails: at n=200, m=2000 the signal-free
    # data have interpolants of norm ~sqrt(n / (m - n - 1)) ~ 0.333, so the
    # radius 0.7 never binds and the l2-ball fit is the pinv solution
    d = gen_null(200, 2000, 1.0, [seed, 0])
    beta, report = solve_ridge_constrained(d, SQUARED, 0.7)
    assert report.converged
    np.testing.assert_allclose(beta.values, np.linalg.pinv(d.x) @ d.y,
                               rtol=0, atol=1e-5)
    assert 0.25 <= beta.l2_norm <= 0.4  # well inside the radius 0.7


def test_kkt_residual_pinned(hadamard):
    exact = Coefficients(np.array([2.5, 1.5, 0.5]))
    assert kkt_residual(hadamard, SQUARED, 1.0, exact) <= 1e-12
    zero = Coefficients.zeros(3)
    assert kkt_residual(hadamard, SQUARED, 7.0, zero) == 0.0
    assert kkt_residual(hadamard, SQUARED, 0.0, zero) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        kkt_residual(hadamard, SQUARED, -1.0, zero)


def _split_residual(grad, lam, beta):
    """Reference: the on- and off-support violations taken separately."""
    on = beta != 0
    residual = 0.0
    if np.any(on):
        residual = float(np.abs(grad[on] + lam * np.sign(beta[on])).max())
    if np.any(~on):
        residual = max(residual, float(np.maximum(np.abs(grad[~on]) - lam, 0.0).max()))
    return residual


def test_stationarity_residual_matches_the_split_reference():
    rng = np.random.default_rng(4)
    cases = [(np.zeros(0), np.zeros(0))]
    for m in (1, 7, 40):
        beta = rng.standard_normal(m)
        grad = rng.standard_normal(m) * 0.3
        off = rng.random(m) < 0.5
        beta[off] = 0.0
        beta[off & (rng.random(m) < 0.5)] = -0.0
        grad[rng.random(m) < 0.2] = -0.0
        cases += [(grad, beta), (grad, np.zeros(m)), (grad, -np.zeros(m)),
                  (grad, np.where(beta == 0, 1.5, beta))]
    for grad, beta in cases:
        for lam in (0.0, 0.1, 0.25, 2.0):
            got = _L1Penalty(lam).residual(beta, grad, 1.0)
            assert type(got) is float
            assert repr(got) == repr(_split_residual(grad, lam, beta))  # bits


@pytest.mark.parametrize("loss", [SQUARED, EXPONENTIAL, ABSOLUTE])
def test_monotone_descent_trace(loss):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((60, 20))
    y = np.where(x[:, 0] + rng.standard_normal(60) > 0, 1.0, -1.0)
    d = Dataset(x, y)
    for solve, arg in ((solve_penalized, 0.05),
                       (solve_constrained, 2.0),
                       (solve_ridge_constrained, 1.0)):
        trace = []
        solve(d, loss, arg, trace=trace)
        assert np.all(np.diff(trace) <= 1e-12)


def test_converged_implies_certificate():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((40, 15))
        y = x[:, 0] - x[:, 1] + 0.1 * rng.standard_normal(40)
        d = Dataset(x, y)
        beta, report = solve_penalized(d, SQUARED, 0.1, SolveConfig(tol=1e-13))
        assert report.converged
        assert report.kkt_residual <= CERTIFICATE_TOL
        assert kkt_residual(d, SQUARED, 0.1, beta) <= CERTIFICATE_TOL


def test_penalized_matches_soft_threshold_on_orthonormal_designs():
    rng = np.random.default_rng(21)
    n, m = 64, 6
    q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    x = q * np.sqrt(n)  # empirical mean square of every column is exactly 1
    y = rng.standard_normal(n) + 2.0 * x[:, 0] - 0.7 * x[:, 3]
    d = Dataset(x, y)
    ols = x.T @ y / n
    for lam in (0.0, 0.05, 0.4, 1.5):
        beta, _ = solve_penalized(d, SQUARED, lam, SolveConfig(tol=1e-14))
        expect = np.sign(ols) * np.maximum(np.abs(ols) - lam / 2.0, 0.0)
        np.testing.assert_allclose(beta.values, expect, atol=1e-6)


def test_training_risk_is_monotone_along_the_penalty_path():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((80, 30))
    y = np.where(x[:, :5].sum(axis=1) + rng.standard_normal(80) > 0, 1.0, -1.0)
    d = Dataset(x, y)
    risks = []
    for lam in (0.01, 0.03, 0.1, 0.3, 1.0):
        beta, _ = solve_penalized(d, EXPONENTIAL, lam, SolveConfig(tol=1e-12))
        risks.append(empirical_risk(d, beta, EXPONENTIAL))
    assert np.all(np.diff(risks) >= -1e-6)


@pytest.mark.parametrize("loss", [SQUARED, EXPONENTIAL, ABSOLUTE])
def test_gradient_matches_finite_differences(loss):
    rng = np.random.default_rng(13)
    x = rng.standard_normal((50, 4))
    y = np.where(rng.standard_normal(50) > 0, 1.0, -1.0)
    d = Dataset(x, y)
    for _ in range(10):
        beta = Coefficients(rng.uniform(-0.5, 0.5, size=4))
        g = empirical_gradient(d, beta, loss)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1e-6
            up = empirical_risk(d, Coefficients(beta.values + e), loss)
            dn = empirical_risk(d, Coefficients(beta.values - e), loss)
            assert g[j] == pytest.approx((up - dn) / 2e-6, rel=1e-5, abs=1e-7)


def test_nonconvergence_is_reported_not_raised():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((100, 200))
    y = np.where(x[:, 0] + rng.standard_normal(100) > 0, 1.0, -1.0)
    beta, report = solve_penalized(Dataset(x, y), EXPONENTIAL, 0.001,
                                   SolveConfig(max_iter=3))
    assert not report.converged
    assert report.iterations == 3
    assert np.isfinite(report.objective)
    assert beta.m == 200


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 5.0))
def test_constrained_solutions_stay_feasible(seed, budget):
    rng = np.random.default_rng(seed)
    d = Dataset(rng.standard_normal((20, 8)), rng.standard_normal(20))
    cfg = SolveConfig(max_iter=300)
    beta, _ = solve_constrained(d, SQUARED, budget, cfg)
    assert beta.l1_norm <= budget + 1e-9
    rbeta, _ = solve_ridge_constrained(d, SQUARED, budget, cfg)
    assert rbeta.l2_norm <= budget + 1e-9


STOP_REASONS = {"certified", "stalled", "max_iter", "line_search_exhausted",
                "zero_step"}


@pytest.mark.parametrize("solve, arg", [(solve_penalized, 0.05),
                                        (solve_constrained, 2.0),
                                        (solve_ridge_constrained, 1.0)])
@pytest.mark.parametrize("loss", [SQUARED, EXPONENTIAL])
def test_solvers_stop_at_the_first_certified_iterate(solve, arg, loss):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((60, 20))
    y = np.where(x[:, 0] + rng.standard_normal(60) > 0, 1.0, -1.0)
    d = Dataset(x, y)
    _, report = solve(d, loss, arg)
    assert report.reason == "certified" and report.converged
    assert report.kkt_residual <= CERTIFICATE_TOL
    assert report.iterations >= 2
    _, cut = solve(d, loss, arg, SolveConfig(max_iter=report.iterations - 1))
    assert cut.reason == "max_iter"
    assert not cut.converged
    assert cut.kkt_residual > CERTIFICATE_TOL


def test_an_optimal_origin_costs_no_iterations(hadamard):
    for solve, arg in ((solve_penalized, 6.0), (solve_constrained, 0.0),
                       (solve_ridge_constrained, 0.0)):
        beta, report = solve(hadamard, SQUARED, arg)
        assert report.iterations == 0 and report.step_rejections == 0
        assert report.reason == "certified" and report.converged
        assert beta.l1_norm == 0.0


def test_stop_reasons_agree_with_converged(hadamard):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((40, 12))
    d = Dataset(x, np.where(x[:, 0] > 0, 1.0, -1.0))
    runs = [solve_penalized(d, ABSOLUTE, 0.05),   # nonsmooth: never certifies
            solve_penalized(d, EXPONENTIAL, 0.01, SolveConfig(max_iter=2)),
            solve_penalized(d, SQUARED, 0.01, SolveConfig(tol=1e-2)),
            solve_penalized(hadamard, SQUARED, 1.0)]
    reasons = [report.reason for _, report in runs]
    assert reasons == ["stalled", "max_iter", "stalled", "certified"]
    for _, report in runs:
        assert report.reason in STOP_REASONS
        assert report.converged == (report.reason == "certified")


def test_one_tiny_decrease_is_not_a_stall():
    # a ridge-demo l1-ball fit, run as one descent on the full design: its
    # 17th step lowers the objective by only 5.9e-14 (relative change below
    # tol = 1e-13) at residual 1.52e-5; the next step certifies
    d = gen_null(200, 2000, 1.0, [1, 8, 0])
    _, report, _ = _descend(d.x, d.y, SQUARED, _Ball(1.0, project_l1), SolveConfig())
    assert report.reason == "certified"
    assert report.iterations == 18
    assert report.kkt_residual <= CERTIFICATE_TOL


# Ball fits take the long Barzilai-Borwein step on every iteration, so these
# fits must keep the beta and report bytes they had before penalized fits
# began to alternate step lengths (first 16 hex digits of a sha256 over
# beta's bytes and the report; one BLAS thread)
BALL_FITS = {
    "l1 ball, working set, squared": (
        lambda: solve_constrained(gen_null(200, 2000, 1.0, 4), SQUARED, 1.0),
        "fed7d5163f8e2f4f"),
    "l1 ball, working set, exponential": (
        lambda: solve_constrained(gen_section4(200, 1000, 3), EXPONENTIAL, 1.0),
        "ee30b131a09e8ec9"),
    "l1 ball, full design, squared": (
        lambda: solve_constrained(gen_section4(200, 300, 3), SQUARED, 1.0),
        "497c8f410e53aca7"),
    "l1 ball, full design, absolute": (
        lambda: solve_constrained(gen_section4(200, 300, 3), ABSOLUTE, 1.0,
                                  SolveConfig(max_iter=50)),
        "1a59c75855537086"),
    "l2 ball, squared": (
        lambda: solve_ridge_constrained(gen_section4(200, 1000, 3), SQUARED,
                                        0.5),
        "53b9bb25e9dc5c7e"),
    "l2 ball, exponential": (
        lambda: solve_ridge_constrained(gen_section4(200, 1000, 3),
                                        EXPONENTIAL, 0.5),
        "5ce4879ff8357ed6"),
    "l2 ball, absolute": (
        lambda: solve_ridge_constrained(gen_section4(200, 1000, 3), ABSOLUTE,
                                        0.5, SolveConfig(max_iter=50)),
        "216a082c67c11f5f"),
    "infinite l2 ball, absolute (an oracle subset fit)": (
        lambda: solve_ridge_constrained(
            (lambda d: Dataset(d.x[:, [0, 3]], d.y))(gen_section4(60, 25, 0)),
            ABSOLUTE, np.inf),
        "28bcf2a95a8f90eb"),
}


@pytest.mark.parametrize("name", BALL_FITS)
def test_ball_fits_keep_their_bytes(name):
    fit, expected = BALL_FITS[name]
    with experiments._one_blas_thread():
        beta, report = fit()
    h = hashlib.sha256(beta.values.tobytes())
    h.update(repr((report.iterations, report.objective.hex(),
                   report.kkt_residual.hex(), report.step_rejections,
                   report.reason)).encode())
    assert h.hexdigest()[:16] == expected


def test_penalized_fits_alternate_step_lengths():
    # the long step alone took 115 iterations and 97 rejected trials here;
    # alternating with the short one on even iterations takes 95 and 21
    d = gen_section4(500, 1000, [1, 0, 0, 0])
    beta, report = solve_penalized(d, EXPONENTIAL, 0.01)
    assert report.converged
    assert kkt_residual(d, EXPONENTIAL, 0.01, beta) <= CERTIFICATE_TOL
    assert report.iterations + report.step_rejections <= 150
    assert _L1Penalty.alternates and not _Ball.alternates


@pytest.fixture
def passes(monkeypatch):
    """(columns, iterations) of every descent pass the solvers run."""
    seen = []

    def spy(x, *args, **kwargs):
        beta, report, eta = descend(x, *args, **kwargs)
        seen.append((x.shape[1], report.iterations))
        return beta, report, eta

    descend = solvers._descend
    monkeypatch.setattr(solvers, "_descend", spy)
    return seen


def _all_columns(monkeypatch, passes, solve, d, *args):
    """The same fit as one descent on the full design."""
    before = len(passes)
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_WS_SMALL", d.m)
        fit = solve(d, *args)
    assert [cols for cols, _ in passes[before:]] == [d.m]
    return fit


WIDE_FITS = [
    (gen_section4(200, 1000, 3), solve_penalized, EXPONENTIAL, 0.01),
    (gen_section4(200, 1000, 3), solve_penalized, EXPONENTIAL, 0.05),
    (gen_null(200, 2000, 1.0, 4), solve_constrained, SQUARED, 0.25),
    (gen_null(200, 2000, 1.0, 4), solve_constrained, SQUARED, 1.0),
    (gen_null(200, 2000, 1.0, 4), solve_constrained, SQUARED, 2.0),
    # a support of ~200 columns: past a quarter of the design, under half
    (gen_section4(500, 1000, [1, 0, 1, 0]), solve_penalized, EXPONENTIAL, 0.01),
]


@pytest.mark.parametrize("d, solve, loss, arg", WIDE_FITS)
def test_working_set_fits_are_certified_on_the_full_design(
        d, solve, loss, arg, passes, monkeypatch):
    beta, report = solve(d, loss, arg)
    assert passes[0][0] == _WS_FIRST
    assert max(cols for cols, _ in passes) < d.m
    assert report.reason == "certified"
    assert report.kkt_residual <= CERTIFICATE_TOL
    if solve is solve_penalized:
        assert kkt_residual(d, loss, arg, beta) <= CERTIFICATE_TOL
    else:
        # a binding l1-ball optimum is a lasso optimum at lambda = ||grad||_inf
        assert beta.l1_norm == pytest.approx(arg, abs=1e-9)
        lam = float(np.abs(empirical_gradient(d, beta, loss)).max())
        assert kkt_residual(d, loss, lam, beta) <= CERTIFICATE_TOL
    _, whole = _all_columns(monkeypatch, passes, solve, d, loss, arg)
    assert whole.converged
    assert report.objective == pytest.approx(whole.objective, abs=1e-6)


@pytest.mark.parametrize("big_m, first", [(_WS_SMALL - 5, _WS_SMALL),
                                          (_WS_SMALL - 4, _WS_FIRST)])
def test_designs_up_to_the_cutoff_run_one_full_pass(big_m, first, passes):
    # section4 designs have big_m + 5 columns
    solve_penalized(gen_section4(100, big_m, 1), EXPONENTIAL, 0.05)
    assert passes[0][0] == first


@pytest.fixture
def pass_ends(monkeypatch):
    """(columns, tol, support size, residual on the block) of every descent
    pass the solvers run."""
    seen = []

    def spy(*args, **kwargs):
        bound = inspect.signature(descend).bind(*args, **kwargs)
        bound.apply_defaults()
        beta, report, eta = descend(*args, **kwargs)
        seen.append((bound.arguments["x"].shape[1], bound.arguments["tol"],
                     np.count_nonzero(beta), report.kkt_residual))
        return beta, report, eta

    descend = solvers._descend
    monkeypatch.setattr(solvers, "_descend", spy)
    return seen


def test_passes_stay_exact_after_an_exact_pass(pass_ends):
    # without the exact-once rule, the column that joins after the exact
    # pass reopens a loose pass and then needs a second exact one (100, 200,
    # 201, 201, 202, 202 columns; 61 iterations, against 57 with the rule)
    _, report = solve_penalized(gen_section4(200, 1000, 11), EXPONENTIAL, 0.05)
    assert report.converged
    tols = [tol for _, tol, _, _ in pass_ends]
    first_exact = tols.index(CERTIFICATE_TOL)
    assert 0 < first_exact < len(tols) - 1
    assert tols[first_exact:] == [CERTIFICATE_TOL] * (len(tols) - first_exact)
    assert report.iterations < 61


def test_an_l1_ball_pass_stops_loose_only_once_its_support_fills_half_the_set(
        pass_ends):
    d = gen_null(200, 2000, 1.0, 4)
    # 11 of 100 columns: one pass runs on past its loose tolerance (reached
    # after 3 iterations), where stopping there would take a second pass on
    # the same set and a second full-design check
    _, report = solve_constrained(d, SQUARED, 0.25)
    assert report.converged
    [(cols, tol, support, res)] = pass_ends
    assert tol > CERTIFICATE_TOL >= res and support <= cols / 2
    # 68 of 100 columns: the first pass stops at its loose tolerance
    pass_ends.clear()
    _, report = solve_constrained(d, SQUARED, 2.0)
    assert report.converged
    cols, tol, support, res = pass_ends[0]
    assert tol >= res > CERTIFICATE_TOL and support > cols / 2
    ball, beta = _Ball(1.0, project_l1), np.zeros(100)
    beta[:50] = 0.01
    assert not ball.stops_loose(beta)
    beta[50] = 0.01
    assert ball.stops_loose(beta)
    assert _L1Penalty(0.1).stops_loose(np.zeros(100))


_GROWING_FIT = """
import json, sys
from l1risk import solvers
from l1risk.risk import SQUARED
from l1risk.simgen import gen_null
widths = []
descend = solvers._descend
def spy(x, *args, **kwargs):
    widths.append(x.shape[1])
    return descend(x, *args, **kwargs)
solvers._descend = spy
solvers.solve_constrained(gen_null(200, 2000, 1.0, 4), SQUARED, 1.0)
print(json.dumps([widths, "numpy.ma" in sys.modules]))
"""


def test_a_growing_set_leaves_numpy_ma_unimported():
    # np.union1d imports numpy.ma on first use, which every fresh process
    # that grows a set would pay for
    proc = subprocess.run([sys.executable, "-c", _GROWING_FIT],
                          capture_output=True, text=True, check=True)
    widths, imported = json.loads(proc.stdout)
    assert len(widths) >= 2 and widths[1] > widths[0]
    assert not imported


def test_small_l2_and_absolute_loss_fits_run_one_full_pass(passes):
    wide = gen_section4(200, 1000, 3)
    small = gen_section4(200, 300, 3)  # 305 columns: at most _WS_SMALL
    solve_penalized(wide, ABSOLUTE, 0.05, SolveConfig(max_iter=50))
    solve_ridge_constrained(wide, SQUARED, 0.5)
    solve_penalized(small, EXPONENTIAL, 0.05)
    solve_constrained(small, SQUARED, 1.0)
    assert [cols for cols, _ in passes] == [1005, 1005, 305, 305]


def test_working_set_finds_a_column_the_first_set_misses(passes):
    # y = x1 - c * x0 with c chosen so that x1 is orthogonal to y: column 1
    # has no gradient at beta = 0, so the first set leaves it out, yet it
    # carries a unit coefficient
    rng = np.random.default_rng(3)
    x = rng.standard_normal((200, 1000))
    x[:, 1] = x[:, 0] + 0.5 * rng.standard_normal(200)
    y = x[:, 1] - (x[:, 1] @ x[:, 1]) / (x[:, 1] @ x[:, 0]) * x[:, 0]
    d = Dataset(x, y)
    g0 = np.abs(empirical_gradient(d, Coefficients.zeros(1000), SQUARED))
    assert 1 not in np.argsort(g0)[-_WS_FIRST:]
    beta, report = solve_penalized(d, SQUARED, 0.05)
    assert len(passes) >= 2
    assert report.converged
    assert beta.values[1] > 0.5


def test_max_iter_caps_the_total_over_passes(passes):
    d = gen_section4(200, 1000, 3)
    _, report = solve_penalized(d, EXPONENTIAL, 0.05)
    assert report.converged and len(passes) >= 2
    # at the end of the first pass, and inside the last one
    for cut in (passes[0][1], report.iterations - 1):
        _, cut_report = solve_penalized(d, EXPONENTIAL, 0.05,
                                        SolveConfig(max_iter=cut))
        assert cut_report.reason == "max_iter" and not cut_report.converged
        assert cut_report.iterations == cut
        assert cut_report.kkt_residual > CERTIFICATE_TOL


def test_the_trace_is_monotone_across_passes(passes):
    for solve, d, loss, arg in (
            (solve_penalized, gen_section4(200, 1000, 3), EXPONENTIAL, 0.01),
            (solve_constrained, gen_null(200, 2000, 1.0, 4), SQUARED, 1.0)):
        before = len(passes)
        trace = []
        _, report = solve(d, loss, arg, trace=trace)
        assert len(passes) - before >= 2
        assert report.converged
        assert len(trace) == report.iterations + 1
        assert trace[-1] == report.objective
        assert np.all(np.diff(trace) <= 1e-12)


def test_a_step_that_does_not_move_stops_the_run():
    # the absolute-loss subgradient at beta = 1e17 is 1, and a unit step is
    # below the rounding of beta (its spacing there is 16)
    x, y = np.array([[1.0]]), np.array([0.0])
    beta, report, _ = _descend(x, y, ABSOLUTE, _L1Penalty(0.0), SolveConfig(),
                               beta=np.array([1e17]))
    assert report.reason == "zero_step" and not report.converged
    assert report.iterations == 1 and report.step_rejections == 0
    assert report.kkt_residual == 1.0
    np.testing.assert_array_equal(beta, [1e17])


class _Fenced:
    """A form whose penalty is infinite everywhere but at the origin."""

    def penalty(self, beta):
        return np.inf if beta.any() else 0.0

    def prox(self, v, eta):
        return v

    def residual(self, beta, grad, eta):
        return float(np.abs(grad).max())


def test_a_line_search_that_finds_no_step_stops_the_run(hadamard):
    # every point off the origin has infinite objective, so each trial step
    # is rejected until the step length falls below _STEP_MIN
    beta, report, _ = _descend(hadamard.x, hadamard.y, SQUARED, _Fenced(),
                               SolveConfig())
    assert report.reason == "line_search_exhausted" and not report.converged
    assert report.iterations == 1
    assert report.step_rejections == 60  # 2**-60 < _STEP_MIN = 1e-18
    np.testing.assert_array_equal(beta, np.zeros(3))


@pytest.mark.parametrize("solve, arg", [(solve_penalized, 0.0),
                                        (solve_constrained, np.inf),
                                        (solve_ridge_constrained, np.inf)])
def test_a_separating_unregularized_exponential_fit_is_unbounded(solve, arg):
    # 20 rows and 105 columns: the fit separates the labels, and scaling it
    # up keeps lowering the risk, so no minimizer exists to certify
    d = gen_section4(20, 100, 1)
    beta, report = solve(d, EXPONENTIAL, arg)
    assert np.all(d.y * (d.x @ beta.values) > 0.0)
    assert report.reason == "unbounded" and not report.converged
    # the certificate alone would have passed
    assert report.kkt_residual <= CERTIFICATE_TOL


def test_a_separable_single_column_is_unbounded_at_any_scale():
    for scale in (1.0, 0.01, 0.001):
        d = Dataset(np.array([[scale], [-scale]]), np.array([1.0, -1.0]))
        _, report = solve_penalized(d, EXPONENTIAL, 0.0)
        assert report.reason == "unbounded" and not report.converged, scale


def test_only_unregularized_exponential_separating_fits_are_unbounded():
    # overlapping classes: the unpenalized minimizer exists and certifies
    g = gen_section4(200, 25, 1)
    _, report = solve_penalized(g, EXPONENTIAL, 0.0)
    assert report.reason == "certified" and report.converged
    # a penalty or a finite ball bounds the fit, and the squared loss has a
    # minimizer whatever the margins
    d = gen_section4(20, 100, 1)
    for solve, arg, loss in ((solve_penalized, 0.01, EXPONENTIAL),
                             (solve_constrained, 50.0, EXPONENTIAL),
                             (solve_penalized, 0.0, SQUARED)):
        _, report = solve(d, loss, arg)
        assert report.reason != "unbounded", (solve.__name__, arg, loss)


def test_a_set_that_reaches_the_share_cap_switches_to_the_full_design(
        passes, monkeypatch):
    # a cap of 110 of 1005 columns: the first growth from 100 crosses it
    monkeypatch.setattr(solvers, "_WS_SHARE", 0.11)
    d = gen_section4(200, 1000, 3)
    trace = []
    beta, report = solve_penalized(d, EXPONENTIAL, 0.05, trace=trace)
    assert [cols for cols, _ in passes] == [_WS_FIRST, d.m]
    assert report.reason == "certified"
    assert kkt_residual(d, EXPONENTIAL, 0.05, beta) <= CERTIFICATE_TOL
    assert report.iterations == sum(its for _, its in passes)
    assert len(trace) == report.iterations + 1
    assert trace[-1] == report.objective
    assert np.all(np.diff(trace) <= 1e-12)


def test_only_a_cold_start_records_its_starting_objective(hadamard):
    # a warm start continues an earlier pass, whose last objective the
    # trace already holds
    args = (hadamard.x, hadamard.y, SQUARED, _L1Penalty(0.0), SolveConfig())
    trace = []
    beta, cold, _ = _descend(*args, trace=trace)
    assert len(trace) == cold.iterations + 1 and trace[-1] == cold.objective
    _, warm, _ = _descend(*args, trace=trace, beta=beta + 0.5)
    assert len(trace) == cold.iterations + warm.iterations + 1
    assert trace[-1] == warm.objective
