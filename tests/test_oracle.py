"""Exhaustive subset and grid searches on hand-checkable instances."""

import math

import numpy as np
import pytest

from l1risk.oracle import BudgetExceededError, best_subset, grid_best
from l1risk.risk import EXPONENTIAL, SQUARED, Dataset, empirical_risk
from l1risk.simgen import gen_null, gen_section4


def test_best_subset_recovers_an_exact_single_column_fit():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((30, 5))
    d = Dataset(x, 2.0 * x[:, 3])
    sol = best_subset(d, 1, SQUARED)
    assert sol.subset == (3,)
    assert sol.risk <= 1e-20
    assert sol.beta.values[3] == pytest.approx(2.0)
    assert not sol.unbounded


def test_best_subset_on_the_orthonormal_instance(hadamard):
    # dropping the weakest column costs exactly its squared coefficient
    sol = best_subset(hadamard, 2, SQUARED)
    assert sol.subset == (0, 1)
    assert sol.risk == pytest.approx(1.0)
    np.testing.assert_allclose(sol.beta.values, [3.0, 2.0, 0.0], atol=1e-10)
    assert sol.risk == pytest.approx(
        empirical_risk(hadamard, sol.beta, SQUARED))

    full = best_subset(hadamard, 3, SQUARED)
    assert full.risk <= 1e-20

    none = best_subset(hadamard, 0, SQUARED)
    assert none.subset == ()
    assert none.risk == pytest.approx(np.mean(hadamard.y**2))


def test_best_subset_risk_is_non_increasing_in_k(hadamard):
    risks = [best_subset(hadamard, k, SQUARED).risk for k in range(4)]
    assert all(a >= b - 1e-12 for a, b in zip(risks, risks[1:]))


def test_best_subset_budget_and_k_validation():
    rng = np.random.default_rng(1)
    d = Dataset(rng.standard_normal((40, 30)), rng.standard_normal(40))
    with pytest.raises(BudgetExceededError) as err:
        best_subset(d, 15, SQUARED, budget=1_000_000)
    assert err.value.count == math.comb(30, 15) == 155117520
    with pytest.raises(ValueError):
        best_subset(d, 31, SQUARED)
    with pytest.raises(ValueError):
        best_subset(d, -1, SQUARED)


def test_separable_exponential_fit_is_flagged_unbounded():
    # perfectly separable margins: the exponential risk decays to zero and
    # the per-subset fit runs off along a fixed direction, however small the
    # column (a small column needs a large coefficient, not an early stop)
    for scale in (1.0, 0.01, 0.001):
        d = Dataset(np.array([[scale], [-scale]]), np.array([1.0, -1.0]))
        sol = best_subset(d, 1, EXPONENTIAL)
        assert sol.unbounded
        assert sol.risk < 1e-3, scale


def test_exponential_best_subset_is_no_worse_than_the_grid():
    # overlapping classes: the minimizer exists, and the descent must reach
    # at least the risk of the best center of a fine coefficient grid
    for seed in range(3):
        g = gen_section4(60, 25, seed)
        d = Dataset(g.x[:, :4], g.y)
        sol = best_subset(d, 2, EXPONENTIAL)
        grid = grid_best(d, 2, 2.0, 0.05, EXPONENTIAL)
        assert not sol.unbounded
        assert sol.risk <= grid.risk, seed
        assert sol.risk == pytest.approx(
            empirical_risk(d, sol.beta, EXPONENTIAL))


def test_grid_best_hits_an_interior_cell_center():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((50, 3))
    d = Dataset(x, 0.75 * x[:, 1])
    sol = grid_best(d, 1, cube_radius=1.0, step=0.5, loss=SQUARED)
    # centers are -0.75, -0.25, 0.25, 0.75: the truth is exactly on the grid
    assert sol.subset == (1,)
    assert sol.beta.values[1] == pytest.approx(0.75)
    assert sol.risk <= 1e-20


def test_grid_refinement_converges_to_the_subset_optimum(hadamard):
    target = best_subset(hadamard, 2, SQUARED).risk
    risks = [grid_best(hadamard, 2, 4.0, s, SQUARED).risk
             for s in (0.5, 0.25, 0.125)]
    np.testing.assert_allclose(risks, [1.125, 1.03125, 1.0078125], atol=1e-12)
    assert all(a >= b for a, b in zip(risks, risks[1:]))
    assert all(r >= target for r in risks)
    assert risks[-1] - target <= 0.02


def test_grid_centers_outside_the_cube_cannot_reach_the_optimum(hadamard):
    # coefficients (3, 2) live outside [-1, 1]^2, so the clipped search pays
    sol = grid_best(hadamard, 2, 1.0, 0.5, SQUARED)
    target = best_subset(hadamard, 2, SQUARED).risk
    assert sol.risk > target + 1.0


def test_grid_best_budget_and_validation(hadamard):
    with pytest.raises(BudgetExceededError) as err:
        grid_best(hadamard, 2, 4.0, 0.5, SQUARED, budget=100)
    assert err.value.count == 3 * 16 * 16
    with pytest.raises(ValueError):
        grid_best(hadamard, 0, 1.0, 0.5, SQUARED)
    with pytest.raises(ValueError):
        grid_best(hadamard, 1, -1.0, 0.5, SQUARED)
    with pytest.raises(ValueError):
        grid_best(hadamard, 1, 1.0, 0.0, SQUARED)


def test_grid_best_matches_a_handwritten_exhaustive_search():
    d = gen_null(20, 3, 1.0, seed=4)
    sol = grid_best(d, 2, 1.0, 0.5, SQUARED)
    centers = np.array([-0.75, -0.25, 0.25, 0.75])
    best = np.inf
    for i in range(3):
        for j in range(i + 1, 3):
            for a in centers:
                for b in centers:
                    r = np.mean((d.y - a * d.x[:, i] - b * d.x[:, j]) ** 2)
                    best = min(best, r)
    assert sol.risk == pytest.approx(best, abs=1e-12)
