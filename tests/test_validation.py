"""Range checks on float parameters reject NaN, and lambda must be finite.

A check written as `x < 0` is false for NaN, so a NaN parameter used to pass
it and produce NaN objectives, NaN rows or noise-free data.
"""

import numpy as np
import pytest

from l1risk import experiments
from l1risk.experiments import lambda_sweep, persistence_curve, \
    ridge_vs_l1_demo, sup_deviation
from l1risk.maurey import deviation_bound, empirical_deviation_rate
from l1risk.oracle import grid_best
from l1risk.risk import EXPONENTIAL, SQUARED, Coefficients, Dataset
from l1risk.simgen import ScenarioSpec
from l1risk.solvers import SolveConfig, kkt_residual, project_l1, \
    project_l2, soft_threshold, solve_constrained, solve_penalized, \
    solve_ridge_constrained

NAN, INF = float("nan"), float("inf")
D = Dataset(np.eye(4, 3), np.array([1.0, -1.0, 1.0, -1.0]))
ZERO = Coefficients.zeros(3)
SECTION4 = ScenarioSpec("section4", 20, {"big_m": 25})
CFG = SolveConfig(max_iter=50)

CASES = {
    "config tol": (lambda: SolveConfig(tol=NAN), "tol"),
    "config tol inf": (lambda: SolveConfig(tol=INF), "tol"),
    "soft_threshold": (lambda: soft_threshold(1.0, NAN), "threshold"),
    "project_l1": (lambda: project_l1([1.0, 2.0], NAN), "radius"),
    "project_l2": (lambda: project_l2([1.0, 2.0], NAN), "radius"),
    "kkt nan": (lambda: kkt_residual(D, SQUARED, NAN, ZERO), "lambda"),
    "kkt inf": (lambda: kkt_residual(D, SQUARED, INF, ZERO), "lambda"),
    "penalized nan": (lambda: solve_penalized(D, EXPONENTIAL, NAN), "lambda"),
    "penalized inf": (lambda: solve_penalized(D, EXPONENTIAL, INF), "lambda"),
    "l1 ball": (lambda: solve_constrained(D, SQUARED, NAN), "l1 budget"),
    "l2 ball": (lambda: solve_ridge_constrained(D, SQUARED, NAN), "l2 radius"),
    "sweep nan": (lambda: lambda_sweep(SECTION4, [0.1, NAN], 1, 10, CFG),
                  "lambda"),
    "sweep inf": (lambda: lambda_sweep(SECTION4, [INF], 1, 10, CFG), "lambda"),
    "persist alpha": (lambda: persistence_curve([20], NAN, 2, 1, CFG),
                      "alpha"),
    "persist alpha inf": (lambda: persistence_curve([20], INF, 2, 1, CFG),
                          "alpha"),
    "persist alpha overflow": (lambda: persistence_curve([20], 400.0, 2, 1,
                                                         CFG), "alpha"),
    "persist empty": (lambda: persistence_curve([], 1.2, 2, 1, CFG), "one n"),
    "persist sigma": (lambda: persistence_curve([20], 1.2, 2, 1, CFG,
                                                sigma=NAN), "sigma"),
    "ridge delta": (lambda: ridge_vs_l1_demo(20, 10, 1.0, NAN, [0.5], 1, CFG),
                    "l2 radius"),
    "ridge delta zero": (lambda: ridge_vs_l1_demo(20, 10, 1.0, 0.0, [0.5], 1,
                                                  CFG), "l2 radius"),
    "ridge budget": (lambda: ridge_vs_l1_demo(20, 10, 1.0, 0.5, [0.0, NAN], 1,
                                              CFG), "l1 budget"),
    "ridge sigma": (lambda: ridge_vs_l1_demo(20, 10, NAN, 0.5, [0.5], 1, CFG),
                    "sigma"),
    "null sigma": (lambda: ScenarioSpec("null", 10, {"m": 3, "sigma": NAN}),
                   "sigma"),
    "sparse sigma": (lambda: ScenarioSpec("sparse_linear", 10, {
        "beta_star": Coefficients(np.ones(2)), "sigma": NAN}), "sigma"),
    "bound M": (lambda: deviation_bound(NAN, 1.0, 1.0, 1), "M and b"),
    "bound b": (lambda: deviation_bound(1.0, NAN, 1.0, 1), "M and b"),
    "bound delta": (lambda: deviation_bound(1.0, 1.0, NAN, 1), "delta"),
    "rate delta": (lambda: empirical_deviation_rate(
        D, Coefficients(np.ones(3)), 1, NAN, 1, 0), "delta"),
    "grid radius": (lambda: grid_best(D, 1, NAN, 0.5, SQUARED),
                    "cube_radius"),
    "grid radius inf": (lambda: grid_best(D, 1, INF, 0.5, SQUARED),
                        "cube_radius"),
    "grid step": (lambda: grid_best(D, 1, 1.0, NAN, SQUARED), "step"),
    "grid step inf": (lambda: grid_best(D, 1, 1.0, INF, SQUARED), "step"),
    "grid step overflow": (lambda: grid_best(D, 1, 1.0, 1e-310, SQUARED),
                           "step"),
    **{f"deviation radius {r}": (
        lambda r=r: sup_deviation(D, 1, 1, r, SQUARED, D), "radius")
       for r in (-1.0, NAN, INF)},
}


def _no_draws(*args, **kwargs):
    raise AssertionError("drew data before validating the arguments")


@pytest.mark.parametrize("call, match", CASES.values(), ids=CASES.keys())
def test_nan_and_infinite_lambda_fail_the_range_checks(call, match,
                                                       monkeypatch):
    monkeypatch.setattr(experiments, "generate", _no_draws)
    monkeypatch.setattr(experiments, "sample_risk", _no_draws)
    with pytest.raises(ValueError, match=match):
        call()


def test_infinite_budgets_and_radii_mean_unconstrained():
    v = np.array([3.0, -4.0])
    np.testing.assert_array_equal(project_l1(v, INF), v)
    np.testing.assert_array_equal(project_l2(v, INF), v)
    free, _ = solve_penalized(D, SQUARED, 0.0)
    for solve in (solve_constrained, solve_ridge_constrained):
        beta, report = solve(D, SQUARED, INF)
        assert report.converged
        np.testing.assert_allclose(beta.values, free.values, atol=1e-9)
