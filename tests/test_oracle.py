"""Exhaustive subset and grid searches on hand-checkable instances."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from l1risk import oracle
from l1risk.oracle import BudgetExceededError, best_subset, grid_best
from l1risk.risk import ABSOLUTE, EXPONENTIAL, SQUARED, Coefficients, \
    Dataset, empirical_risk
from l1risk.simgen import ScenarioSpec, gen_null, gen_section4, generate, \
    sparse_unit_vector
from l1risk.solvers import _Ball, _descend, project_l2, solve_penalized


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
    # the fit runs off along a fixed direction, however small the column (a
    # small column needs a large coefficient, not an early stop)
    for scale in (1.0, 0.01, 0.001):
        d = Dataset(np.array([[scale], [-scale]]), np.array([1.0, -1.0]))
        sol = best_subset(d, 1, EXPONENTIAL)
        assert sol.unbounded
        assert sol.risk <= 1e-12, scale
        assert sol.risk == pytest.approx(
            empirical_risk(d, sol.beta, EXPONENTIAL), rel=1e-12)


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


def _reference_fits(d, k):
    """Every size-k subset fit on its own by the unpenalized solver, in
    lexicographic order: (subset, risk, unbounded)."""
    fits = []
    for subset in itertools.combinations(range(d.m), k):
        _, report = solve_penalized(Dataset(d.x[:, list(subset)], d.y),
                                    EXPONENTIAL, 0.0)
        fits.append((subset, report.objective, report.reason == "unbounded"))
    return fits


def _batched_fits(d, k, loss=EXPONENTIAL):
    return [(subset, float(risk), bool(flag))
            for subsets, _, risks, flags in oracle._subset_fits(d, k, loss)
            for subset, risk, flag in zip(subsets, risks, flags)]


EXPONENTIAL_SETS = {
    **{f"section4 seed {s}": (lambda s=s: gen_section4(200, 25, s))
       for s in (1, 2, 3)},
    "sparse linear": lambda: generate(ScenarioSpec("sparse_linear", 80, {
        "beta_star": sparse_unit_vector(8, 2), "sigma": 0.5}), 4),
}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("make", EXPONENTIAL_SETS.values(),
                         ids=EXPONENTIAL_SETS.keys())
def test_batched_exponential_fits_match_the_per_subset_descent(make, k):
    d = make()
    reference = _reference_fits(d, k)
    batched = _batched_fits(d, k)
    assert [r[0] for r in batched] == [r[0] for r in reference]
    for (subset, risk, flag), (_, ref_risk, ref_flag) in zip(batched, reference):
        assert abs(risk - ref_risk) <= 1e-9, subset
        assert not flag and not ref_flag, subset
    ref_best = min(reference, key=lambda r: r[1])  # the first minimum
    sol = best_subset(d, k, EXPONENTIAL)
    assert sol.subset == ref_best[0]
    assert abs(sol.risk - ref_best[1]) <= 1e-9
    assert sol.risk == pytest.approx(empirical_risk(d, sol.beta, EXPONENTIAL),
                                     rel=1e-12, abs=0)
    assert not sol.unbounded


@pytest.mark.parametrize("chunk_bytes", [oracle._CHUNK_BYTES, 1])
def test_exponential_ties_go_to_the_lexicographically_smallest_subset(
        chunk_bytes, monkeypatch):
    monkeypatch.setattr(oracle, "_CHUNK_BYTES", chunk_bytes)
    g = gen_section4(200, 25, 1)  # column 11 is its best single column
    # columns 0 and 2 are the same column: their subsets tie exactly, within
    # a chunk or across chunks, and the subset holding both has a singular
    # Hessian
    d = Dataset(g.x[:, [11, 3, 11]], g.y)
    one = best_subset(d, 1, EXPONENTIAL)
    assert one.subset == (0,)
    assert one.risk == dict(r[:2] for r in _batched_fits(d, 1))[(2,)]
    two = best_subset(d, 2, EXPONENTIAL)
    assert two.subset == (0, 1)
    fits = dict(r[:2] for r in _batched_fits(d, 2))
    assert fits[(0, 1)] == fits[(1, 2)]
    # the duplicated pair spans one column: its fit is that column's fit
    assert fits[(0, 2)] == pytest.approx(one.risk, rel=1e-12)


@pytest.mark.parametrize("loss", [EXPONENTIAL, SQUARED],
                         ids=lambda loss: loss.kind)
def test_zero_columns_and_the_empty_subset_fit_without_error(loss):
    g = gen_section4(200, 25, 1)
    d = Dataset(np.column_stack([np.zeros(200), g.x[:, 11], g.x[:, 3]]), g.y)
    single = dict(r[:2] for r in _batched_fits(d, 1, loss))
    # a zero column cannot move the fit: exp(0) = 1 and y^2 = 1
    assert single[(0,)] == 1.0
    assert best_subset(d, 1, loss).subset == (1,)
    pairs = dict(r[:2] for r in _batched_fits(d, 2, loss))
    assert pairs[(0, 1)] == pytest.approx(single[(1,)], rel=1e-12)
    assert best_subset(d, 2, loss).subset == (1, 2)
    empty = best_subset(d, 0, loss)
    assert empty.subset == () and empty.risk == 1.0


@pytest.mark.parametrize("loss", [EXPONENTIAL, SQUARED],
                         ids=lambda loss: loss.kind)
def test_collinear_columns_get_the_least_norm_fit(loss):
    # [a, 3a] has a Hessian that is singular up to rounding: the step must
    # stay in its range, giving coefficients c * (1, 3) / 10 for the
    # single-column fit c, not an arbitrary split along the null direction
    g = gen_section4(200, 25, 1)
    a = g.x[:, 11]
    single = best_subset(Dataset(a[:, None], g.y), 1, loss)
    c = single.beta.values[0]
    [(_, beta, risk, _)] = oracle._subset_fits(
        Dataset(np.column_stack([a, 3.0 * a]), g.y), 2, loss)
    np.testing.assert_allclose(beta[0], [0.1 * c, 0.3 * c], rtol=1e-6)
    assert risk[0] == pytest.approx(single.risk, rel=1e-12)


@pytest.mark.parametrize("e", [1e-6, 1e-7, 1e-8, 1e-9])
def test_nearly_collinear_squared_pairs_match_least_squares(e):
    # [a, a + e * z] has a Gram eigenvalue ratio of about e**2 / 4: the eigen
    # step alone is off by 1e-7 at e = 1e-6 and counts the pair as singular
    # from e = 1e-8 (risk ~1 against ~0.37), so such subsets are refit from
    # an SVD. Two stable least-squares solvers agree on the risk only to
    # about cond(x) * eps, here 4e-10 (e = 1e-6) to 4e-7 (e = 1e-9): lstsq's
    # returned residual sum and its recomputed residuals differ by up to
    # 5e-8 at e = 1e-9
    rng = np.random.default_rng(0)
    a, z = rng.standard_normal((2, 200))
    x, y = np.column_stack([a, a + e * z]), np.sign(z)
    values, *_ = np.linalg.lstsq(x, y, rcond=None)
    risk = float(np.mean((y - x @ values) ** 2))
    sol = best_subset(Dataset(x, y), 2, SQUARED)
    assert sol.risk == pytest.approx(
        risk, rel=np.linalg.cond(x) * np.finfo(float).eps, abs=0)


def test_absolute_subsets_make_no_copy_of_the_design():
    # only the squared and exponential batches gather from a transposed
    # copy of x; absolute subsets are fit from d itself
    d = gen_section4(2000, 25, 1)
    tracemalloc.start()
    try:
        best_subset(d, 1, ABSOLUTE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d.x.nbytes


def _lstsq_best(d, k):
    """Per-subset least squares: the first subset of least risk."""
    best = None
    for subset in itertools.combinations(range(d.m), k):
        xs = d.x[:, list(subset)]
        values, *_ = np.linalg.lstsq(xs, d.y, rcond=None)
        risk = float(np.mean((d.y - xs @ values) ** 2))
        if best is None or risk < best[1]:
            best = (subset, risk)
    return best


SQUARED_SETS = {
    **{f"criterion 6 seed {s}": (lambda s=s: generate(ScenarioSpec(
        "sparse_linear", 2000, {"beta_star": sparse_unit_vector(10, 2),
                                "sigma": 0.1}), s), 2) for s in range(10)},
    **{f"section4 {n}x30 k={k}": (lambda n=n: gen_section4(n, 25, 1), k)
       for n in (60, 200) for k in (1, 2, 3)},
}


@pytest.mark.parametrize("make, k", SQUARED_SETS.values(),
                         ids=SQUARED_SETS.keys())
def test_squared_best_subset_matches_per_subset_least_squares(make, k):
    d = make()
    subset, risk = _lstsq_best(d, k)
    sol = best_subset(d, k, SQUARED)
    assert sol.subset == subset
    assert sol.risk == pytest.approx(risk, rel=1e-12, abs=0)
    assert sol.risk == pytest.approx(empirical_risk(d, sol.beta, SQUARED),
                                     rel=1e-12, abs=0)


def test_one_subset_chunks_give_the_same_solution(monkeypatch):
    d = gen_section4(200, 25, 2)
    whole, whole_fits = best_subset(d, 2, EXPONENTIAL), _batched_fits(d, 2)
    monkeypatch.setattr(oracle, "_CHUNK_BYTES", 1)
    assert len(next(oracle._subset_fits(d, 2, EXPONENTIAL))[0]) == 1
    assert _batched_fits(d, 2) == whole_fits
    single = best_subset(d, 2, EXPONENTIAL)
    assert single.subset == whole.subset
    assert single.risk == whole.risk
    assert single.unbounded == whole.unbounded
    np.testing.assert_array_equal(single.beta.values, whole.beta.values)


def test_absolute_loss_best_subset_is_the_first_argmin_over_chunks(monkeypatch):
    d = gen_section4(20, 25, 1)
    # 50 subsets per chunk: the 435 pairs span nine chunks
    monkeypatch.setattr(oracle, "_CHUNK_BYTES", 50 * d.x.itemsize * d.n * 2)
    assert len(next(oracle._subset_fits(d, 2, ABSOLUTE))[0]) == 50
    subsets = list(itertools.combinations(range(d.m), 2))
    risks = [oracle._fit_subset(d, s, ABSOLUTE)[1] for s in subsets]
    sol = best_subset(d, 2, ABSOLUTE)
    assert sol.subset == subsets[int(np.argmin(risks))]
    assert sol.risk == pytest.approx(empirical_risk(d, sol.beta, ABSOLUTE),
                                     rel=0, abs=1e-12)
    off = np.setdiff1d(np.arange(d.m), sol.subset)
    assert not sol.beta.values[off].any()
    assert not sol.unbounded


@pytest.mark.parametrize("d", [gen_section4(20, 25, 2),
                               gen_null(30, 8, 1.0, seed=4)],
                         ids=["section4", "null"])
def test_absolute_loss_subset_fits_match_the_descent_on_their_columns(d):
    # the reference is the solver core run on the subset's columns with the
    # l2 ball of infinite radius, which solve_ridge_constrained poses
    subsets = list(itertools.combinations(range(d.m), 2))
    ref = [_descend(d.x[:, list(s)], d.y, ABSOLUTE, _Ball(np.inf, project_l2),
                    oracle._SUBSET_CFG, np.zeros(len(s)))[1].objective
           for s in subsets]
    risks = [oracle._fit_subset(d, s, ABSOLUTE)[1] for s in subsets]
    np.testing.assert_allclose(risks, ref, rtol=0, atol=1e-12)
    sol = best_subset(d, 2, ABSOLUTE)
    assert sol.subset == subsets[int(np.argmin(ref))]
    assert sol.risk == pytest.approx(min(ref), rel=0, abs=1e-12)


def test_separable_subsets_run_toward_their_infimum_and_are_flagged():
    rng = np.random.default_rng(7)
    y = np.where(rng.standard_normal(40) > 0, 1.0, -1.0)
    x = rng.standard_normal((40, 3))
    x[:, 0] = y * (0.5 + rng.random(40))  # separates the labels on its own
    d = Dataset(x, y)
    for k in (1, 2):
        reference = _reference_fits(d, k)
        batched = _batched_fits(d, k)
        # the solver certifies a separated fit at gradient 1e-5, far above
        # its infimum 0, so only the others' risks are compared with it
        flags = [r[2] for r in batched]
        assert flags == [r[2] for r in reference]
        assert flags == [0 in subset for subset, *_ in batched]
        for (subset, risk, flag), (_, ref_risk, _) in zip(batched, reference):
            assert risk <= 1e-12 if flag else abs(risk - ref_risk) <= 1e-9, \
                subset
        sol = best_subset(d, k, EXPONENTIAL)
        assert sol.unbounded and 0 in sol.subset
    overlapping = best_subset(Dataset(x[:, 1:], y), 2, EXPONENTIAL)
    assert not overlapping.unbounded


def _one_column_with_a_far_outlier():
    """Signed margins of ninety-nine 1.0s and one -30.0: the full Newton
    step from 0 overshoots into the outlier's exponential."""
    return Dataset(np.append(np.ones(99), -30.0)[:, None], np.ones(100))


def test_a_newton_step_that_raises_the_risk_is_backtracked():
    d = _one_column_with_a_far_outlier()
    z = d.x[:, 0] * d.y
    full_step = z.mean() / (z * z).mean()  # -g / H at beta = 0
    assert empirical_risk(d, Coefficients([full_step]), EXPONENTIAL) > 1.0
    [(_, risk, flag)] = _batched_fits(d, 1)
    [(_, ref_risk, ref_flag)] = _reference_fits(d, 1)
    assert abs(risk - ref_risk) <= 1e-9
    assert not flag and not ref_flag


def test_the_step_cap_returns_the_last_iterate_unflagged(monkeypatch):
    d = _one_column_with_a_far_outlier()
    z = d.x[:, 0] * d.y
    [(_, minimum, _)] = _batched_fits(d, 1)
    monkeypatch.setattr(oracle, "_SUBSET_CFG",
                        replace(oracle._SUBSET_CFG, max_iter=1))
    [(_, beta, risk, flag)] = oracle._subset_fits(d, 1, EXPONENTIAL)
    # one Newton step, halved once by the line search
    assert beta[0, 0] == pytest.approx(0.5 * z.mean() / (z * z).mean(),
                                       rel=1e-12)
    assert not flag[0]
    assert abs(risk[0] - empirical_risk(d, Coefficients(beta[0]),
                                        EXPONENTIAL)) <= 1e-12
    # one step stops short of the minimizer
    assert risk[0] > minimum + 1e-6


def _separates(z):
    """Whether the nonzero 2-d points z lie in an open half-plane through 0:
    their angles, sorted around the circle, leave a gap wider than pi."""
    angles = np.sort(np.arctan2(z[:, 1], z[:, 0]))
    gaps = np.diff(np.append(angles, angles[0] + 2.0 * np.pi))
    return bool(gaps.max() > np.pi)


def test_the_first_separable_subset_wins_with_its_batched_fit(monkeypatch):
    # four rows and 30 columns: most pairs separate the labels, and every
    # separable pair ties at infimum 0
    d = gen_section4(4, 25, 1)
    signed = d.x * d.y[:, None]
    first = next(s for s in itertools.combinations(range(d.m), 2)
                 if _separates(signed[:, list(s)]))

    def refuse(*args, **kwargs):
        raise AssertionError("no descent may run for the exponential loss")

    monkeypatch.setattr(oracle, "solve_ridge_constrained", refuse)
    sol = best_subset(d, 2, EXPONENTIAL)
    assert sol.subset == first and sol.unbounded
    assert sol.risk <= 1e-12
    assert sol.risk == pytest.approx(empirical_risk(d, sol.beta, EXPONENTIAL),
                                     rel=1e-12)


def test_a_separated_subset_is_not_left_short_of_its_infimum():
    # the descent refit of this winner stopped at its 2000-iteration cap
    # with risk 2.6e-3
    d = gen_section4(12, 25, 3)
    sol = best_subset(d, 3, EXPONENTIAL)
    assert sol.subset == (0, 4, 14) and sol.unbounded
    assert sol.risk <= 1e-12


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
