"""Randomized l1-preserving sparsification and its margin-deviation bound.

A dense coefficient vector beta is replaced by a random vector supported on at
most kappa coordinates: sample kappa coordinates i.i.d. with probability
|beta_j| / ||beta||_1 and give coordinate j the value
sign(beta_j) * (||beta||_1 / kappa) * (times j was drawn). The construction
preserves the l1 norm exactly and is unbiased for every fixed margin, and the
probability that a margin moves by more than delta is at most
M^2 b^2 / (delta^2 kappa) on datasets with entries bounded by M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from l1risk.risk import Coefficients, Dataset, predict_margin


@dataclass(frozen=True)
class SparsifyOutcome:
    """One sparsification draw: the sparse vector plus its sampling record."""

    beta_prime: Coefficients
    kappa: int
    draws: np.ndarray
    source_l1: float


def sparsify(beta: Coefficients, kappa: int, rng) -> SparsifyOutcome:
    """Draw a kappa-sparse surrogate for beta; deterministic given the seed.

    `rng` may be an integer seed or a numpy Generator.
    """
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    b = beta.l1_norm
    if b == 0:
        raise ValueError("cannot sparsify the zero vector (no sampling distribution)")
    gen = np.random.default_rng(rng)
    weights = np.abs(beta.values) / b
    draws = gen.choice(beta.m, size=kappa, p=weights)
    counts = np.bincount(draws, minlength=beta.m)
    beta_prime = np.sign(beta.values) * (b / kappa) * counts
    return SparsifyOutcome(Coefficients(beta_prime), int(kappa), draws, b)


def deviation_bound(big_m: float, b: float, delta: float, kappa: int) -> float:
    """Margin-deviation probability bound min(1, M^2 b^2 / (delta^2 kappa))."""
    if not (big_m >= 0 and b >= 0):
        raise ValueError("M and b must be nonnegative")
    if not delta > 0:
        raise ValueError("delta must be positive")
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    return min(1.0, (big_m * big_m * b * b) / (delta * delta * kappa))


def empirical_deviation_rate(d: Dataset, beta: Coefficients, kappa: int,
                             delta: float, trials: int, seed) -> float:
    """Fraction of (trial, observation) pairs whose margin moves by more than delta.

    Trials use derived streams [seed, trial_index], so the aggregate is
    independent of execution order.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not delta > 0:
        raise ValueError("delta must be positive")
    base = predict_margin(d, beta)
    exceed = 0
    for t in range(trials):
        outcome = sparsify(beta, kappa, np.random.default_rng([seed, t]))
        bp = outcome.beta_prime.values
        nz = np.nonzero(bp)[0]
        margins = d.x[:, nz] @ bp[nz]
        exceed += int(np.count_nonzero(np.abs(margins - base) > delta))
    return exceed / (trials * d.n)
