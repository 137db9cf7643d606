"""Seeded dataset generators for the three simulation scenarios.

Scenarios
---------
section4      high-dimensional classification: y = sign(V + W) where V is the
              mean of the first 25 standard-normal columns, plus five noisy
              proxy columns V + U appended after the big_m main columns.
sparse_linear Gaussian regression y = beta_star . x + noise with i.i.d.
              standard-normal design.
null          y independent of the design (beta_star = 0).

A `ScenarioSpec` describes a scenario once. `generate(spec, seed)` is the one
draw path (`gen_section4`, `gen_sparse_linear` and `gen_null` build a spec and
call it), `population_risk(spec, beta)` the one exact risk (sparse_linear and
null), `sample_risk(spec, seed, beta, loss)` the empirical risk of beta on the
section4 dataset `generate(spec, seed)` would return, scored as it is drawn,
and `scenario_of(d)` rebuilds the spec from the meta a draw records, so a
dataset's sidecar is enough to redraw it.

Determinism contract: a generator is a pure function of (parameters, seed).
Seeds feed numpy's PCG64 via ``np.random.default_rng(seed)``; derived streams
use list seeds ``[base, index, ...]``. The per-dataset draw order is fixed and
the seed is recorded in ``Dataset.meta``. section4 draws the n x big_m main
block row-major, then W (n values), then U (n x 5, row-major). The main block
is drawn in row blocks that continue the stream exactly as one (n, big_m)
draw would; `_draw_section4` holds that order for both `generate`, which
copies each block into a design allocated once, and `sample_risk`, which
keeps only each block's margins. sparse_linear and null draw the design
row-major, then the noise (none when sigma = 0).

The dispersion notation "0.25" / "9" for the section4 noise terms is read as a
variance by default; ``variance_convention="std"`` switches to reading it as a
standard deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from l1risk.risk import Coefficients, Dataset, LossSpec, mean_loss

SCENARIO_KINDS = ("section4", "sparse_linear", "null")
VARIANCE_CONVENTIONS = ("var", "std")
_DRAW_BLOCK = 65_536  # values per row block of section4's main draw (512 KiB)


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: what `generate` draws, what `population_risk` scores and
    what a dataset's meta records (see `scenario_of`)."""

    kind: str
    n: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        p = self.params
        if self.kind == "section4":
            if int(p.get("big_m", 0)) < 25:
                raise ValueError("section4 needs big_m >= 25")
            if p.get("variance_convention", "var") not in VARIANCE_CONVENTIONS:
                raise ValueError("variance_convention must be 'var' or 'std'")
        elif self.kind == "sparse_linear":
            if not isinstance(p.get("beta_star"), Coefficients):
                raise ValueError("sparse_linear needs params['beta_star']: Coefficients")
            if int(p.get("m", p["beta_star"].m)) != p["beta_star"].m:
                raise ValueError("sparse_linear params['m'] must equal beta_star.m")
            if not float(p.get("sigma", -1.0)) >= 0:
                raise ValueError("sparse_linear needs params['sigma'] >= 0")
        else:
            if int(p.get("m", -1)) < 0:
                raise ValueError("null needs params['m'] >= 0")
            if not float(p.get("sigma", -1.0)) >= 0:
                raise ValueError("null needs params['sigma'] >= 0")


def _seed_record(seed):
    return [int(s) for s in seed] if np.ndim(seed) else int(seed)


def gen_section4(n: int, big_m: int, seed, variance_convention: str = "var") -> Dataset:
    """Classification scenario: m = big_m + 5 columns, labels in {-1, +1}.

    Columns 1..big_m (1-based, as in meta and the file formats) are i.i.d.
    N(0, 1). V = (x_1 + ... + x_25) / 5, y = sign(V + W) with sign(0) := +1,
    and the last five columns are V + U_j. Under the default "var" convention
    W has variance 0.25 and U has variance 9. Meta records the two coordinate
    groups as inclusive 1-based ranges.

    Draw order (the determinism contract): the n x big_m main block
    row-major, then W, then U (n x 5, row-major). The design is allocated
    once and filled in place; no full-size intermediate is made.
    """
    return generate(ScenarioSpec("section4", n, {
        "big_m": big_m, "variance_convention": variance_convention}), seed)


def gen_sparse_linear(spec: ScenarioSpec, seed) -> Dataset:
    """Regression scenario y = beta_star . x + N(0, sigma^2) with N(0,1) design."""
    if spec.kind != "sparse_linear":
        raise ValueError("spec.kind must be 'sparse_linear'")
    return generate(spec, seed)


def gen_null(n: int, m: int, sigma: float, seed) -> Dataset:
    """Null scenario: y ~ N(0, sigma^2) independent of the N(0,1) design."""
    return generate(ScenarioSpec("null", n, {"m": m, "sigma": sigma}), seed)


def _draw_section4(rng, n: int, big_m: int, convention: str, take_block):
    """Draw section4's stream from rng: the main block, then W, then U.

    The n x big_m main block comes in row blocks of at most `_DRAW_BLOCK`
    values through one reused buffer (out= needs a contiguous target), and
    consecutive fills continue the stream exactly as one (n, big_m) draw
    would. take_block(rows, block) sees each block, rows being its slice of
    0..n, before the buffer is refilled. Returns V (the mean of the first 25
    columns over 5), the labels y = sign(V + W) with sign(0) := +1, and U.
    """
    rows = max(1, _DRAW_BLOCK // big_m)
    block = np.empty((min(rows, n), big_m))
    v = np.empty(n)
    for r0 in range(0, n, rows):
        k = min(rows, n - r0)
        rng.standard_normal(out=block[:k])
        take_block(slice(r0, r0 + k), block[:k])
        v[r0:r0 + k] = block[:k, :25].sum(axis=1)
    v /= 5.0
    w = rng.normal(0.0, 0.5 if convention == "var" else 0.25, size=n)
    u = rng.normal(0.0, 3.0 if convention == "var" else 9.0, size=(n, 5))
    y = np.where(v + w >= 0.0, 1.0, -1.0)
    return v, y, u


def generate(spec: ScenarioSpec, seed) -> Dataset:
    """Draw the dataset spec describes from stream seed; meta records both."""
    n, p = spec.n, spec.params
    rng = np.random.default_rng(seed)
    ranges = (None, None)  # relevant and proxy columns, inclusive 1-based
    if spec.kind == "section4":
        big_m = int(p["big_m"])
        convention = p.get("variance_convention", "var")
        x = np.empty((n, big_m + 5))

        def keep(rows, block):
            x[rows, :big_m] = block

        v, y, u = _draw_section4(rng, n, big_m, convention, keep)
        np.add(v[:, None], u, out=x[:, big_m:])
        params = {"n": n, "big_m": big_m, "variance_convention": convention}
        ranges = ([1, 25], [big_m + 1, big_m + 5])
    else:
        beta_star = p["beta_star"] if spec.kind == "sparse_linear" else None
        m = int(p["m"]) if beta_star is None else beta_star.m
        sigma = float(p["sigma"])
        x = rng.standard_normal((n, m))
        noise = rng.normal(0.0, sigma, size=n) if sigma > 0 else np.zeros(n)
        y = noise if beta_star is None else x @ beta_star.values + noise
        params = {"m": m, "sigma": sigma}
        if beta_star is not None:
            params["beta_star"] = beta_star.nonzeros_1based()
    return Dataset(x, y, {"scenario": spec.kind, "seed": _seed_record(seed),
                          "params": params, "relevant_range": ranges[0],
                          "proxy_range": ranges[1]})


def scenario_of(d: Dataset) -> ScenarioSpec | None:
    """The spec that drew d, rebuilt from the meta its generator recorded;
    None when the meta names no scenario (no sidecar, or not a generator's).
    With the seed in the meta, `generate` redraws d bit for bit."""
    meta = d.meta or {}
    kind = meta.get("scenario")
    if kind not in SCENARIO_KINDS:
        return None
    p = meta["params"]
    if kind == "section4":
        params = {"big_m": int(p["big_m"]),
                  "variance_convention": p["variance_convention"]}
    else:
        params = {"m": int(p["m"]), "sigma": float(p["sigma"])}
        if kind == "sparse_linear":
            params["beta_star"] = Coefficients.from_1based(params["m"],
                                                           p["beta_star"])
    return ScenarioSpec(kind, d.n, params)


def population_risk(spec: ScenarioSpec, beta: Coefficients) -> float:
    """Exact squared-loss population risk sigma^2 + ||beta - beta_star||_2^2.

    Holds for the sparse_linear and null (beta_star = 0) scenarios, whose
    design is i.i.d. standard normal (orthonormal in population); section4
    has no closed form here (`sample_risk` estimates it from a draw).
    """
    if spec.kind == "section4":
        raise ValueError("no closed-form population risk for section4")
    beta_star = spec.params["beta_star"] if spec.kind == "sparse_linear" else None
    m = int(spec.params["m"]) if beta_star is None else beta_star.m
    if beta.m != m:
        raise ValueError(f"dimension mismatch: {beta.m} vs {m}")
    diff = beta.values if beta_star is None else beta.values - beta_star.values
    return float(spec.params["sigma"]) ** 2 + float(diff @ diff)


def sample_risk(spec: ScenarioSpec, seed, beta: Coefficients,
                loss: LossSpec) -> float:
    """Empirical risk of beta on `generate(spec, seed)`, without building it.

    section4 only. The main block is scored as it is drawn, so only n-length
    vectors outlive a row block: the main-block margins, V, the labels and
    the n x 5 noise U. The margins sum the main block and the proxies
    separately, so the result may differ from `empirical_risk` on the
    generated dataset in its last bits. Raises NonfiniteLossError on a
    nonfinite risk, as `empirical_risk` does.
    """
    if spec.kind != "section4":
        raise ValueError(f"sample_risk scores section4 draws, not {spec.kind}")
    big_m = int(spec.params["big_m"])
    if beta.m != big_m + 5:
        raise ValueError(f"dimension mismatch: {beta.m} vs {big_m + 5}")
    main, proxies = beta.values[:big_m], beta.values[big_m:]
    margins = np.empty(spec.n)

    def score(rows, block):
        np.matmul(block, main, out=margins[rows])

    v, y, u = _draw_section4(
        np.random.default_rng(seed), spec.n, big_m,
        spec.params.get("variance_convention", "var"), score)
    margins += (v[:, None] + u) @ proxies
    return mean_loss(loss, y, margins)


def sparse_unit_vector(m: int, support_size: int) -> Coefficients:
    """k-sparse vector with equal weights on the first k coordinates, ||.||_2 = 1."""
    if not 1 <= support_size <= m:
        raise ValueError("need 1 <= support_size <= m")
    v = np.zeros(m)
    v[:support_size] = 1.0 / math.sqrt(support_size)
    return Coefficients(v)
