"""L1-constrained empirical risk minimization for high-dimensional prediction.

Core pieces: dataset/coefficient containers with squared, exponential and
absolute prediction losses (`risk`), penalized and norm-constrained solvers
with convergence certificates (`solvers`), a randomized l1-preserving
sparsifier (`maurey`), an exhaustive best-subset oracle (`oracle`), seeded
scenario generators (`simgen`) and the experiment harness (`experiments`).
"""

from l1risk.risk import (
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
    predict_margin,
)
from l1risk.solvers import (
    CERTIFICATE_TOL,
    SolveConfig,
    SolveReport,
    kkt_residual,
    project_l1,
    project_l2,
    soft_threshold,
    solve_constrained,
    solve_penalized,
    solve_ridge_constrained,
)
from l1risk.maurey import (
    SparsifyOutcome,
    deviation_bound,
    empirical_deviation_rate,
    sparsify,
)
from l1risk.oracle import BudgetExceededError, SubsetSolution, best_subset, grid_best
from l1risk.simgen import (
    ScenarioSpec,
    gen_null,
    gen_section4,
    gen_sparse_linear,
    generate,
    population_risk,
    sample_risk,
    sparse_unit_vector,
)
from l1risk.experiments import (
    PersistencePoint,
    RidgeComparison,
    SweepRow,
    lambda_sweep,
    persistence_curve,
    ridge_vs_l1_demo,
    sup_deviation,
)

__all__ = [
    "ABSOLUTE",
    "BudgetExceededError",
    "CERTIFICATE_TOL",
    "Coefficients",
    "Dataset",
    "EXPONENTIAL",
    "LossSpec",
    "NonfiniteLossError",
    "PersistencePoint",
    "RidgeComparison",
    "ScenarioSpec",
    "SolveConfig",
    "SolveReport",
    "SparsifyOutcome",
    "SQUARED",
    "SubsetSolution",
    "SweepRow",
    "best_subset",
    "deviation_bound",
    "empirical_deviation_rate",
    "empirical_gradient",
    "empirical_risk",
    "gen_null",
    "gen_section4",
    "gen_sparse_linear",
    "generate",
    "grid_best",
    "group_l1",
    "kkt_residual",
    "lambda_sweep",
    "persistence_curve",
    "population_risk",
    "predict_margin",
    "project_l1",
    "project_l2",
    "ridge_vs_l1_demo",
    "sample_risk",
    "soft_threshold",
    "solve_constrained",
    "solve_penalized",
    "solve_ridge_constrained",
    "sparse_unit_vector",
    "sparsify",
    "sup_deviation",
]
