"""Synthetic data generators: shapes, moments, determinism, population risk
and redraws from the meta sidecar."""

import tracemalloc

import numpy as np
import pytest

from l1risk.io import read_dataset, write_dataset
from l1risk.risk import Coefficients, Dataset
from l1risk.simgen import (
    _DRAW_BLOCK,
    ScenarioSpec,
    gen_null,
    gen_section4,
    gen_sparse_linear,
    generate,
    population_risk,
    scenario_of,
    sparse_unit_vector,
)


def test_section4_shapes_and_meta():
    d = gen_section4(40, 30, seed=3)
    assert d.x.shape == (40, 35)
    assert d.y.shape == (40,)
    assert set(np.unique(d.y)) <= {-1.0, 1.0}
    assert d.meta["relevant_range"] == [1, 25]
    assert d.meta["proxy_range"] == [31, 35]
    assert d.meta["params"]["big_m"] == 30
    assert d.meta["seed"] == 3


def test_section4_is_deterministic():
    a = gen_section4(25, 25, seed=9)
    b = gen_section4(25, 25, seed=9)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    c = gen_section4(25, 25, seed=10)
    assert not np.array_equal(a.x, c.x)


def test_section4_proxy_correlation():
    # each proxy column is the averaged signal plus independent noise with
    # variance 9/4 of the signal variance: corr = 1/sqrt(10) ~ 0.316
    d = gen_section4(100_000, 25, seed=0)
    v = d.x[:, :25].sum(axis=1) / 5.0
    assert np.var(v) == pytest.approx(1.0, abs=0.02)
    for j in range(25, 30):
        r = np.corrcoef(v, d.x[:, j])[0, 1]
        assert r == pytest.approx(1.0 / np.sqrt(10.0), abs=0.01)


def test_section4_labels_are_roughly_balanced():
    d = gen_section4(10_000, 25, seed=4)
    assert np.mean(d.y == 1.0) == pytest.approx(0.5, abs=0.02)


def test_section4_main_block_is_standard_normal():
    d = gen_section4(50_000, 40, seed=8)
    block = d.x[:, :40]
    assert np.mean(block) == pytest.approx(0.0, abs=0.01)
    assert np.var(block) == pytest.approx(1.0, abs=0.01)


def test_variance_convention_changes_only_the_noise_scales():
    a = gen_section4(2000, 25, seed=5, variance_convention="var")
    b = gen_section4(2000, 25, seed=5, variance_convention="std")
    np.testing.assert_array_equal(a.x[:, :25], b.x[:, :25])
    assert not np.array_equal(a.x[:, 25:], b.x[:, 25:])
    assert a.meta["params"]["variance_convention"] == "var"
    assert b.meta["params"]["variance_convention"] == "std"


def _section4_reference(n, big_m, seed, convention):
    # the stream contract written out: one (n, big_m) main draw, then W,
    # then U, and the proxies appended by concatenation
    rng = np.random.default_rng(seed)
    x_main = rng.standard_normal((n, big_m))
    w = rng.normal(0.0, 0.5 if convention == "var" else 0.25, size=n)
    u = rng.normal(0.0, 3.0 if convention == "var" else 9.0, size=(n, 5))
    v = x_main[:, :25].sum(axis=1) / 5.0
    y = np.where(v + w >= 0.0, 1.0, -1.0)
    return np.concatenate([x_main, v[:, None] + u], axis=1), y


_ROWS = _DRAW_BLOCK // 1000  # rows per block of a 1000-column main draw


@pytest.mark.parametrize("convention", ["var", "std"])
@pytest.mark.parametrize("n, big_m", [
    (1, 1000), (_ROWS - 1, 1000), (_ROWS, 1000), (_ROWS + 1, 1000),
    (3 * _ROWS + 7, 1000), (40, 25),
    (3, _DRAW_BLOCK + 4),  # one row is larger than a block
])
def test_section4_matches_the_single_draw_reference(n, big_m, convention):
    d = gen_section4(n, big_m, [11, n], variance_convention=convention)
    x, y = _section4_reference(n, big_m, [11, n], convention)
    assert d.x.shape == x.shape
    assert d.x.tobytes() == x.tobytes()
    assert d.y.tobytes() == y.tobytes()


def test_section4_draws_without_a_full_size_copy():
    gen_section4(2, 25, seed=0)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        d = gen_section4(1000, 1000, seed=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * d.x.nbytes


def test_sparse_linear_noiseless_is_exact():
    beta_star = Coefficients(np.array([2.0, -1.0, 0.0, 0.0]))
    spec = ScenarioSpec("sparse_linear", 30,
                        {"beta_star": beta_star, "sigma": 0.0})
    d = gen_sparse_linear(spec, seed=2)
    np.testing.assert_allclose(d.y, d.x @ beta_star.values, atol=1e-12)
    assert d.meta["params"]["beta_star"] == [[1, 2.0], [2, -1.0]]


def test_sparse_linear_noise_second_moment():
    beta_star = Coefficients(np.zeros(3))
    spec = ScenarioSpec("sparse_linear", 200_000,
                        {"beta_star": beta_star, "sigma": 0.5})
    d = gen_sparse_linear(spec, seed=6)
    se = 0.25 * np.sqrt(2.0 / 200_000)
    assert np.mean(d.y**2) == pytest.approx(0.25, abs=3 * se)


def test_null_scenario():
    d = gen_null(100, 12, 1.0, seed=1)
    assert d.x.shape == (100, 12)
    assert d.meta["scenario"] == "null"
    big = gen_null(200_000, 1, 1.0, seed=1)
    corr = np.corrcoef(big.x[:, 0], big.y)[0, 1]
    assert abs(corr) <= 0.01
    assert np.var(big.y) == pytest.approx(1.0, abs=0.02)


def test_null_zero_noise_and_zero_columns():
    d = gen_null(50, 0, 0.0, seed=2)
    assert d.x.shape == (50, 0)
    np.testing.assert_array_equal(d.y, np.zeros(50))


def _linear(beta_star, sigma, n=10):
    return ScenarioSpec("sparse_linear", n,
                        {"beta_star": beta_star, "sigma": sigma})


def test_population_risk_pinned():
    beta_star = Coefficients(np.array([1.0, 0.0]))
    assert population_risk(_linear(beta_star, 0.3), beta_star) == \
        pytest.approx(0.09)
    off = Coefficients(np.array([1.0, 0.5]))
    assert population_risk(_linear(beta_star, 1.0), off) == pytest.approx(1.25)


def test_population_risk_matches_monte_carlo():
    beta_star = Coefficients(np.array([0.8, -0.4, 0.0]))
    beta = Coefficients(beta_star.values + np.array([0.3, 0.0, -0.3]))
    spec = _linear(beta_star, 0.7, n=1_000_000)
    closed = population_risk(spec, beta)
    d = generate(spec, seed=11)
    r = d.y - d.x @ beta.values
    mc = np.mean(r**2)
    se = np.sqrt(np.var(r**2) / d.y.size)
    assert mc == pytest.approx(closed, abs=3 * se)


def test_population_risk_is_minimized_at_the_truth():
    rng = np.random.default_rng(3)
    beta_star = Coefficients(rng.standard_normal(5))
    spec = _linear(beta_star, 1.0)
    base = population_risk(spec, beta_star)
    for _ in range(20):
        other = Coefficients(beta_star.values + rng.standard_normal(5) * 0.2)
        assert population_risk(spec, other) >= base


def test_population_risk_of_the_null_scenario():
    spec = ScenarioSpec("null", 10, {"m": 3, "sigma": 0.5})
    assert population_risk(spec, Coefficients.zeros(3)) == 0.25
    beta = Coefficients(np.array([0.3, 0.0, -0.4]))
    assert population_risk(spec, beta) == pytest.approx(0.25 + 0.25)
    with pytest.raises(ValueError, match="dimension mismatch"):
        population_risk(spec, Coefficients.zeros(4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        population_risk(_linear(Coefficients.zeros(2), 1.0),
                        Coefficients.zeros(3))


def test_population_risk_has_no_closed_form_for_section4():
    spec = ScenarioSpec("section4", 10, {"big_m": 25})
    with pytest.raises(ValueError, match="section4"):
        population_risk(spec, Coefficients.zeros(30))


SIDECAR_SPECS = {
    "section4-var": ScenarioSpec("section4", 30, {"big_m": 26}),
    "section4-std": ScenarioSpec("section4", 30, {
        "big_m": 25, "variance_convention": "std"}),
    "sparse_linear": _linear(Coefficients(np.array([0.0, 0.6, 0.0, -0.8])),
                             0.5, n=30),
    "null": ScenarioSpec("null", 30, {"m": 4, "sigma": 2.0}),
}


@pytest.mark.parametrize("name", sorted(SIDECAR_SPECS))
def test_the_sidecar_is_enough_to_redraw_a_dataset(name, tmp_path):
    spec = SIDECAR_SPECS[name]
    path = tmp_path / "d.csv"
    write_dataset(generate(spec, [7, 1]), path)
    d = read_dataset(path)
    redrawn = generate(scenario_of(d), d.meta["seed"])
    np.testing.assert_array_equal(redrawn.x, d.x)
    np.testing.assert_array_equal(redrawn.y, d.y)
    assert redrawn.meta == d.meta
    beta = Coefficients(np.linspace(-0.5, 0.5, d.m))
    if spec.kind == "section4":
        with pytest.raises(ValueError):
            population_risk(scenario_of(d), beta)
    else:
        assert population_risk(scenario_of(d), beta) == \
            population_risk(spec, beta)


def test_scenario_of_needs_a_generator_meta():
    d = gen_null(5, 2, 1.0, seed=1)
    assert scenario_of(d).params == {"m": 2, "sigma": 1.0}
    assert scenario_of(Dataset(d.x, d.y, None)) is None
    assert scenario_of(Dataset(d.x, d.y, {"scenario": "sweep"})) is None


def test_scenario_spec_validation():
    ok = Coefficients(np.ones(2))
    bad = [
        ("mystery", 10, {}),
        ("section4", 0, {}),
        ("section4", 10, {"big_m": 24}),
        ("section4", 10, {"variance_convention": "stdev"}),
        ("section4", 10, {"big_m": 25, "variance_convention": "stdev"}),
        ("sparse_linear", 10, {"beta_star": [1.0, 2.0]}),
        ("sparse_linear", 10, {"beta_star": ok, "sigma": -1.0}),
        ("sparse_linear", 10, {"m": 3, "beta_star": ok, "sigma": 1.0}),
        ("null", 10, {"m": -1}),
        ("null", 10, {"sigma": -0.5}),
        ("null", 10, {"m": 3, "sigma": -0.5}),
    ]
    for kind, n, params in bad:
        with pytest.raises((ValueError, TypeError)):
            ScenarioSpec(kind, n, params)
    with pytest.raises(ValueError, match="sparse_linear"):
        gen_sparse_linear(ScenarioSpec("null", 10, {"m": 3, "sigma": 1.0}), 0)


def test_generate_dispatch_matches_direct_calls():
    spec = ScenarioSpec("section4", 30, {"big_m": 25})
    a = generate(spec, seed=7)
    b = gen_section4(30, 25, seed=7)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)

    spec = ScenarioSpec("null", 30, {"m": 4, "sigma": 2.0})
    a = generate(spec, seed=7)
    b = gen_null(30, 4, 2.0, seed=7)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)


def test_sparse_unit_vector():
    v = sparse_unit_vector(6, 4)
    assert v.m == 6
    assert v.support == 4
    assert v.l2_norm == pytest.approx(1.0)
    np.testing.assert_allclose(v.values[:4], 0.5)
    np.testing.assert_array_equal(v.values[4:], 0.0)
    with pytest.raises(ValueError):
        sparse_unit_vector(3, 4)
    with pytest.raises(ValueError):
        sparse_unit_vector(3, 0)
