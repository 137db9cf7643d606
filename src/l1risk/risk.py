"""Datasets, coefficient vectors, prediction losses and empirical risk."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

LOSS_KINDS = ("squared", "exponential", "absolute")
_FINITE_BLOCK = 65_536  # values per block of a finiteness check (64 KiB mask)


class NonfiniteLossError(ArithmeticError):
    """A loss evaluation overflowed or otherwise produced a nonfinite value."""


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the contiguous array a is finite, checked in
    flat blocks so that no a-sized mask is made."""
    flat = a.reshape(-1)
    return all(np.isfinite(flat[i:i + _FINITE_BLOCK]).all()
               for i in range(0, flat.size, _FINITE_BLOCK))


def _is_number(v) -> bool:
    """Whether v is a real number; a bool (JSON true or false) is not one."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_whole(v) -> bool:
    """Whether v is a number with no fractional part (3 or 3.0, not 2.9)."""
    return _is_number(v) and (isinstance(v, numbers.Integral)
                              or float(v).is_integer())


@dataclass(frozen=True)
class LossSpec:
    """Selects the prediction loss applied to (y, margin) pairs.

    squared:     (y - s)^2
    exponential: exp(-y * s), for labels y in {-1, +1}
    absolute:    |y - s|

    where s is the linear margin sum_j beta_j * x_j.
    """

    kind: str = "squared"

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; expected one of {LOSS_KINDS}")


SQUARED = LossSpec("squared")
EXPONENTIAL = LossSpec("exponential")
ABSOLUTE = LossSpec("absolute")


@dataclass(frozen=True)
class Dataset:
    """n observations of (y, x_1..x_m); x is the n-by-m design matrix.

    `meta` is a JSON-serializable generator descriptor. Generators record
    `scenario`, `seed`, `params` and, when known, `relevant_range` and
    `proxy_range` as inclusive 1-based `[first, last]` column ranges.
    """

    x: np.ndarray
    y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=float)
        y = np.ascontiguousarray(self.y, dtype=float)
        if x.ndim != 2:
            raise ValueError("x must be two-dimensional (rows are observations)")
        if y.ndim != 1:
            raise ValueError("y must be one-dimensional")
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x has {x.shape[0]} rows but y has {y.shape[0]} entries")
        if x.shape[0] < 1:
            raise ValueError("need at least one observation")
        if not _all_finite(x) or not _all_finite(y):
            raise ValueError("dataset entries must all be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class Coefficients:
    """A dense m-dimensional coefficient vector with norm/support accessors."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("coefficient values must be one-dimensional")
        if not _all_finite(v):
            raise ValueError("coefficient values must all be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, m: int) -> "Coefficients":
        return cls(np.zeros(int(m)))

    @classmethod
    def from_1based(cls, m: int, pairs) -> "Coefficients":
        """Length-m coefficients from 1-based [index, value] pairs (the file
        formats' encoding). m and each index must be whole numbers, each
        index in 1..m and given once, and each value a number; booleans and
        strings are rejected rather than converted."""
        if not _is_whole(m):
            raise ValueError(f"coefficient dimension {m!r} is not a whole "
                             "number")
        values = np.zeros(int(m))
        seen = set()
        for idx, v in pairs:
            if not _is_whole(idx):
                raise ValueError(f"coefficient index {idx!r} is not a whole "
                                 "number")
            if not 1 <= idx <= m:
                raise ValueError(f"coefficient index {idx} outside 1..{m}")
            if int(idx) in seen:
                raise ValueError(f"coefficient index {idx} appears twice")
            if not _is_number(v):
                raise ValueError(f"coefficient value {v!r} at index {idx} "
                                 "is not a number")
            seen.add(int(idx))
            values[int(idx) - 1] = float(v)
        return cls(values)

    def nonzeros_1based(self) -> list:
        """The nonzero entries as ascending 1-based [index, value] pairs."""
        idx = np.flatnonzero(self.values)
        return [[j + 1, v] for j, v in zip(idx.tolist(),
                                           self.values[idx].tolist())]

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def l1_norm(self) -> float:
        return float(np.abs(self.values).sum())

    @property
    def l2_norm(self) -> float:
        return float(np.sqrt((self.values * self.values).sum()))

    @property
    def support(self) -> int:
        """Number of exactly-nonzero coordinates."""
        return int(np.count_nonzero(self.values))


def predict_margin(d: Dataset, beta: Coefficients) -> np.ndarray:
    """Linear margins x_i . beta for every observation i."""
    if beta.m != d.m:
        raise ValueError(f"coefficient dimension {beta.m} does not match dataset m={d.m}")
    return d.x @ beta.values


def loss_terms(loss: LossSpec, y, margins):
    """Vectorized loss values and d(loss)/d(margin); may return nonfinite entries.

    The absolute loss uses derivative 0 at the kink y == margin.
    """
    y = np.asarray(y, dtype=float)
    s = np.asarray(margins, dtype=float)
    if loss.kind == "squared":
        r = y - s
        return r * r, -2.0 * r
    if loss.kind == "exponential":
        with np.errstate(over="ignore"):
            v = np.exp(-y * s)
        return v, -y * v
    r = y - s
    return np.abs(r), -np.sign(r)


def mean_loss(loss: LossSpec, y, margins) -> float:
    """Mean loss over (y, margin) pairs; NonfiniteLossError if nonfinite."""
    values, _ = loss_terms(loss, y, margins)
    total = float(values.mean())
    if not np.isfinite(total):
        raise NonfiniteLossError(f"{loss.kind} empirical risk is nonfinite")
    return total


def empirical_risk(d: Dataset, beta: Coefficients, loss: LossSpec) -> float:
    """Mean prediction loss of beta over the dataset."""
    return mean_loss(loss, d.y, predict_margin(d, beta))


def empirical_gradient(d: Dataset, beta: Coefficients, loss: LossSpec) -> np.ndarray:
    """Gradient of the empirical risk in beta (fixed subgradient at absolute-loss kinks)."""
    _, d_margin = loss_terms(loss, d.y, predict_margin(d, beta))
    if not np.all(np.isfinite(d_margin)):
        raise NonfiniteLossError(f"{loss.kind} loss gradient is nonfinite")
    return d.x.T @ d_margin / d.n


def group_l1(beta: Coefficients, index_set: Iterable[int]) -> float:
    """l1 mass of beta on a set of 1-based coordinates (as in the file formats)."""
    idx = np.fromiter(index_set, dtype=int)
    if idx.size == 0:
        return 0.0
    if idx.min() < 1 or idx.max() > beta.m:
        raise IndexError(f"coordinate out of range for m={beta.m}")
    return float(np.abs(beta.values[idx - 1]).sum())
