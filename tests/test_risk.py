"""Losses, risk evaluation and the container types."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from l1risk.risk import (
    _FINITE_BLOCK,
    ABSOLUTE,
    EXPONENTIAL,
    SQUARED,
    Coefficients,
    Dataset,
    LossSpec,
    NonfiniteLossError,
    empirical_gradient,
    empirical_risk,
    group_l1,
    loss_terms,
    predict_margin,
)


def test_loss_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        LossSpec("hinge")


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros(3), np.zeros(3))  # x must be 2-d
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan]]), np.zeros(1))
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 2)), np.array([1.0, np.inf]))


def test_dataset_accepts_zero_columns():
    d = Dataset(np.zeros((4, 0)), np.ones(4))
    assert d.n == 4 and d.m == 0


# the first entry, both sides of the first block boundary and the last entry
# of a design two blocks and a bit long
_SHAPE = (3, _FINITE_BLOCK // 3 * 2 + 7)
_BAD_AT = [0, _FINITE_BLOCK - 1, _FINITE_BLOCK, _SHAPE[0] * _SHAPE[1] - 1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", _BAD_AT)
def test_finiteness_checks_catch_every_block(bad, at):
    x = np.ones(_SHAPE)
    x.reshape(-1)[at] = bad
    with pytest.raises(ValueError, match="finite"):
        Dataset(x, np.ones(_SHAPE[0]))
    y = np.ones(x.size)
    y[at] = bad
    with pytest.raises(ValueError, match="finite"):
        Dataset(np.ones((x.size, 1)), y)
    with pytest.raises(ValueError, match="finite"):
        Coefficients(y)


def test_finiteness_check_makes_no_design_sized_mask():
    x = np.ones((1000, 1000))
    y = np.ones(1000)
    Dataset(x[:2], y[:2])  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        Dataset(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.02 * x.nbytes


def test_coefficients_accessors():
    beta = Coefficients(np.array([3.0, 0.0, -4.0]))
    assert beta.m == 3
    assert beta.l1_norm == 7.0
    assert beta.l2_norm == 5.0
    assert beta.support == 2
    assert Coefficients.zeros(5).l1_norm == 0.0
    with pytest.raises(ValueError):
        Coefficients(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        Coefficients(np.ones((2, 2)))


def test_predict_margin_zero_vector():
    d = Dataset(np.arange(6.0).reshape(3, 2), np.ones(3))
    assert np.all(predict_margin(d, Coefficients.zeros(2)) == 0.0)


def test_predict_margin_cancellation():
    d = Dataset(np.array([[1.0, -1.0]]), np.zeros(1))
    assert predict_margin(d, Coefficients(np.array([0.5, 0.5])))[0] == 0.0


def test_predict_margin_scalar_product():
    d = Dataset(np.array([[2.0]]), np.zeros(1))
    assert predict_margin(d, Coefficients(np.array([3.0])))[0] == 6.0


def test_predict_margin_dimension_mismatch():
    d = Dataset(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        predict_margin(d, Coefficients.zeros(2))


def test_loss_terms_pinned_values():
    assert loss_terms(EXPONENTIAL, 1.0, 0.0) == (1.0, -1.0)
    assert loss_terms(SQUARED, 1.0, 0.5) == (0.25, -1.0)
    assert loss_terms(ABSOLUTE, 1.0, 1.0) == (0.0, 0.0)  # kink subgradient is 0


@pytest.mark.parametrize("loss", [SQUARED, EXPONENTIAL, ABSOLUTE])
def test_loss_derivative_matches_finite_difference(loss):
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(20):
        y = float(rng.choice([-1.0, 1.0]))
        s = float(rng.uniform(-2.0, 2.0))
        if loss.kind == "absolute" and abs(y - s) < 1e-3:
            continue  # keep clear of the kink
        up, _ = loss_terms(loss, y, s + h)
        dn, _ = loss_terms(loss, y, s - h)
        _, d = loss_terms(loss, y, s)
        assert d == pytest.approx((up - dn) / (2 * h), rel=1e-6, abs=1e-8)


def test_empirical_risk_exponential_at_zero_is_one():
    rng = np.random.default_rng(0)
    d = Dataset(rng.standard_normal((40, 7)),
                np.where(rng.standard_normal(40) >= 0, 1.0, -1.0))
    assert empirical_risk(d, Coefficients.zeros(7), EXPONENTIAL) == 1.0


def test_empirical_risk_exact_fit_is_zero():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 3))
    d = Dataset(x, 2.0 * x[:, 0])
    assert empirical_risk(d, Coefficients(np.array([2.0, 0.0, 0.0])), SQUARED) == 0.0


def test_empirical_risk_two_point_arithmetic():
    d = Dataset(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
    assert empirical_risk(d, Coefficients(np.array([0.5])), SQUARED) == 0.25


@pytest.mark.parametrize("loss", [SQUARED, EXPONENTIAL, ABSOLUTE])
def test_empirical_risk_permutation_invariant(loss):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((25, 4))
    y = np.where(rng.standard_normal(25) > 0, 1.0, -1.0)
    beta = Coefficients(rng.standard_normal(4) * 0.3)
    perm = rng.permutation(25)
    a = empirical_risk(Dataset(x, y), beta, loss)
    b = empirical_risk(Dataset(x[perm], y[perm]), beta, loss)
    assert a == pytest.approx(b, rel=1e-12)


def test_empirical_risk_overflow_is_an_error():
    d = Dataset(np.array([[400.0]]), np.array([-1.0]))
    beta = Coefficients(np.array([2.0]))
    with pytest.raises(NonfiniteLossError):
        empirical_risk(d, beta, EXPONENTIAL)
    with pytest.raises(NonfiniteLossError):
        empirical_gradient(d, beta, EXPONENTIAL)


def test_group_l1_pinned():
    beta = Coefficients(np.array([1.0, -2.0, 3.0]))
    assert group_l1(beta, {1, 2}) == 3.0
    assert group_l1(beta, ()) == 0.0
    assert group_l1(beta, range(1, 4)) == beta.l1_norm


def test_group_l1_rejects_out_of_range():
    beta = Coefficients(np.ones(3))
    with pytest.raises(IndexError):
        group_l1(beta, {0})  # coordinates are 1-based
    with pytest.raises(IndexError):
        group_l1(beta, {4})


@given(st.integers(0, 2**32 - 1))
def test_group_l1_partition_sums_to_total(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 12))
    beta = Coefficients(rng.standard_normal(m))
    mask = rng.integers(0, 2, size=m).astype(bool)
    left = [j + 1 for j in range(m) if mask[j]]
    right = [j + 1 for j in range(m) if not mask[j]]
    total = group_l1(beta, left) + group_l1(beta, right)
    assert total == pytest.approx(beta.l1_norm, rel=1e-12, abs=1e-12)
