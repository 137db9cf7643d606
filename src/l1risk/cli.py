"""Command-line front end.

Exit codes: 0 on success, 2 for parse failures and the flag checks made
here (`ArgError`: malformed grids and lists, a flag the mode needs, no
closed-form reference), 1 for errors the library raises, out-of-range values
and unreadable input among them. Solver non-convergence is reported in the
output, not treated as an error.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from l1risk.experiments import (
    _check_probes,
    _one_blas_thread,
    lambda_sweep,
    persistence_curve,
    ridge_vs_l1_demo,
    sup_deviation,
)
from l1risk.io import (
    atomic_write_json,
    cache_path,
    meta_path,
    read_coefficients,
    read_dataset,
    write_coefficients,
    write_dataset,
    write_persistence,
    write_ridge_demo,
    write_subset_solution,
    write_sweep,
)
from l1risk.maurey import sparsify
from l1risk.oracle import DEFAULT_BUDGET, _check_grid, best_subset, grid_best
from l1risk.risk import ABSOLUTE, EXPONENTIAL, SQUARED
from l1risk.simgen import (
    ScenarioSpec,
    VARIANCE_CONVENTIONS,
    generate,
    scenario_of,
    sparse_unit_vector,
)
from l1risk.solvers import (
    SolveConfig,
    solve_constrained,
    solve_penalized,
    solve_ridge_constrained,
)

LOSS_BY_FLAG = {"squared": SQUARED, "exp": EXPONENTIAL, "abs": ABSOLUTE}


class ArgError(Exception):
    """Semantic argument problem: reported like a parse failure (exit 2)."""


def parse_lambda_grid(text: str) -> list:
    """Inclusive a:step:b grid, or a single value.

    "0.01:0.02:0.17" yields the nine values 0.01, 0.03, ..., 0.17.
    """
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) != 3:
            raise ValueError
        a, step, b = (float(p) for p in parts)
    except ValueError:
        raise ArgError(f"bad lambda grid {text!r}: expected a:step:b") from None
    if not all(map(math.isfinite, (a, step, b))):
        raise ArgError(f"bad lambda grid {text!r}: a, step and b must be finite")
    if step <= 0 or b < a:
        raise ArgError(f"bad lambda grid {text!r}: need step > 0 and b >= a")
    count = int(round((b - a) / step))
    if abs(a + count * step - b) > 1e-9:
        raise ArgError(f"bad lambda grid {text!r}: step does not divide b - a")
    grid = [float(round(v, 10)) for v in np.linspace(a, b, count + 1)]
    if any(lo >= hi for lo, hi in zip(grid, grid[1:])):
        raise ArgError(f"bad lambda grid {text!r}: values repeat after "
                       "rounding to 10 decimals")
    return grid


def _parse_list(text: str, flag: str, kind) -> list:
    try:
        return [kind(p) for p in text.split(",")]
    except ValueError:
        raise ArgError(f"bad {flag} value {text!r}") from None


def _progress(label: str):
    def advance(done, total):
        print(f"{label} {done}/{total}", file=sys.stderr,
              end="\r" if done < total else "\n", flush=True)
    return advance


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="l1risk",
        description="l1-constrained and l1-penalized empirical risk "
                    "minimization: generators, solvers, and experiments.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simgen", help="generate a dataset CSV + meta sidecar")
    p.add_argument("--scenario", required=True,
                   choices=["section4", "sparse-linear", "null"])
    p.add_argument("--n", type=int, required=True, help="observations")
    p.add_argument("--big-m", type=int,
                   help="section4: independent columns before the 5 proxies")
    p.add_argument("--m", type=int, help="sparse-linear/null: columns")
    p.add_argument("--sigma", type=float, default=1.0,
                   help="sparse-linear/null: noise standard deviation")
    p.add_argument("--k", type=int, default=5,
                   help="sparse-linear: target support size (equal weights, "
                        "unit l2 norm)")
    p.add_argument("--variance-convention", choices=list(VARIANCE_CONVENTIONS),
                   default="var",
                   help="section4: read noise scales as variances or as "
                        "standard deviations")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("solve", help="fit coefficients on a dataset CSV")
    p.add_argument("--data", required=True, help="input dataset CSV")
    p.add_argument("--loss", choices=sorted(LOSS_BY_FLAG), default="squared")
    p.add_argument("--penalty", choices=["l1", "l1ball", "l2ball"],
                   default="l1")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="l1 penalty level (penalty=l1)")
    p.add_argument("--budget", type=float,
                   help="ball radius (penalty=l1ball or l2ball)")
    default = SolveConfig()
    p.add_argument("--max-iter", type=int, default=default.max_iter,
                   help="iteration cap")
    p.add_argument("--tol", type=float, default=default.tol,
                   help="stall threshold on the relative objective change; "
                        "solves stop earlier, at their first certified "
                        "iterate")
    p.add_argument("--out", required=True, help="output coefficients JSON")

    p = sub.add_parser("sweep", help="average penalized fits over a lambda grid")
    p.add_argument("--n", type=int, required=True, help="training observations")
    p.add_argument("--big-m", type=int, required=True)
    p.add_argument("--lambdas", required=True,
                   help="inclusive grid a:step:b, or a single value")
    p.add_argument("--reps", type=int, default=20, help="repetitions per lambda")
    p.add_argument("--test-n", type=int, default=1000,
                   help="held-out sample size")
    p.add_argument("--variance-convention", choices=list(VARIANCE_CONVENTIONS),
                   default="var")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="worker threads (never changes the numbers)")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--out", required=True, help="output sweep CSV")

    p = sub.add_parser("sparsify",
                       help="random sparsification preserving the l1 norm")
    p.add_argument("--coefficients", required=True,
                   help="input coefficients JSON")
    p.add_argument("--kappa", type=int, required=True,
                   help="number of draws (support bound)")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--out", required=True, help="output coefficients JSON")

    p = sub.add_parser("oracle",
                       help="best subset by enumeration, or grid search")
    p.add_argument("--data", required=True, help="input dataset CSV")
    p.add_argument("--k", type=int, required=True, help="subset size")
    p.add_argument("--loss", choices=sorted(LOSS_BY_FLAG), default="squared")
    p.add_argument("--method", choices=["exact", "grid"], default="exact")
    p.add_argument("--radius", type=float, default=1.0,
                   help="grid: coefficient cube half-width")
    p.add_argument("--step", type=float, default=0.5,
                   help="grid: target cell width")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="candidate evaluation cap")
    p.add_argument("--out", required=True, help="output solution JSON")

    p = sub.add_parser("persist",
                       help="constrained-fit excess risk across sample sizes")
    p.add_argument("--ns", required=True, help="comma list, e.g. 100,400,1600")
    p.add_argument("--alpha", type=float, default=1.2,
                   help="columns grow as ceil(n^alpha)")
    p.add_argument("--k", type=int, default=5, help="target support size")
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--out", required=True, help="output CSV")

    p = sub.add_parser("ridge-demo",
                       help="l2-ball fit vs an l1-budget grid on null data")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--m", type=int, default=2000)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.7, help="l2 radius")
    p.add_argument("--budgets", default="0,0.25,0.5,1,2",
                   help="comma list of l1 budgets")
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--out", required=True, help="output CSV")

    p = sub.add_parser("deviation",
                       help="sup |empirical - reference| risk over sparse probes")
    p.add_argument("--data", required=True, help="training dataset CSV")
    p.add_argument("--probes", type=int, default=100)
    p.add_argument("--k", type=int, default=5, help="probe support size")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--loss", choices=sorted(LOSS_BY_FLAG), default="squared")
    p.add_argument("--oracle-data", help="large fresh dataset CSV; omit to "
                                         "use the closed form when available")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--out", help="optional output JSON")
    return top


def cmd_simgen(args) -> int:
    if args.scenario == "section4":
        if args.big_m is None:
            raise ArgError("section4 requires --big-m")
        params = {"big_m": args.big_m,
                  "variance_convention": args.variance_convention}
    else:
        if args.m is None:
            raise ArgError(f"{args.scenario} requires --m")
        params = {"m": args.m, "sigma": args.sigma}
        if args.scenario == "sparse-linear":
            params["beta_star"] = sparse_unit_vector(args.m, args.k)
    spec = ScenarioSpec(args.scenario.replace("-", "_"), args.n, params)
    d = generate(spec, args.seed)
    write_dataset(d, args.out)
    print(f"wrote {args.out} (n={d.n}, m={d.m}), {cache_path(args.out)} "
          f"and {meta_path(args.out)}")
    return 0


def cmd_solve(args) -> int:
    cfg = SolveConfig(max_iter=args.max_iter, tol=args.tol)
    if args.penalty == "l1":
        if args.lam is None:
            raise ArgError("penalty l1 requires --lambda")
        solver, arg = solve_penalized, args.lam
        pen = {"penalty": "l1", "lambda": args.lam}
    else:
        if args.budget is None:
            raise ArgError(f"penalty {args.penalty} requires --budget")
        solver = solve_constrained if args.penalty == "l1ball" \
            else solve_ridge_constrained
        arg = args.budget
        pen = {"penalty": args.penalty, "budget": args.budget}
    beta, report = solver(read_dataset(args.data), LOSS_BY_FLAG[args.loss],
                          arg, cfg)
    write_coefficients(args.out, beta, report,
                       {"loss": args.loss, **pen, "data": args.data})
    state = "converged" if report.converged \
        else f"not converged ({report.reason})"
    print(f"wrote {args.out}: support {beta.support}, "
          f"objective {report.objective:.6g}, "
          f"kkt {report.kkt_residual:.3g}, {state} "
          f"in {report.iterations} iterations")
    return 0


def cmd_sweep(args) -> int:
    lambdas = parse_lambda_grid(args.lambdas)
    scenario = ScenarioSpec("section4", args.n, {
        "big_m": args.big_m,
        "variance_convention": args.variance_convention})
    rows = lambda_sweep(scenario, lambdas, args.reps, args.test_n, args.seed,
                        threads=args.threads, progress=_progress("cell"))
    write_sweep(args.out, rows, {
        "scenario": scenario.kind, "n": scenario.n, **scenario.params,
        "lambdas": lambdas, "reps": args.reps, "test_n": args.test_n})
    unconv = sum(r.n_unconverged for r in rows)
    print(f"wrote {args.out}: {len(rows)} lambdas x {args.reps} reps"
          + (f", {unconv} unconverged cells" if unconv else ""))
    return 0


def cmd_sparsify(args) -> int:
    beta, _ = read_coefficients(args.coefficients)
    outcome = sparsify(beta, args.kappa, args.seed)
    write_coefficients(args.out, outcome.beta_prime, None, {
        "kappa": outcome.kappa, "source_l1": outcome.source_l1,
        "seed": args.seed, "source": args.coefficients})
    print(f"wrote {args.out}: support {beta.support} -> "
          f"{outcome.beta_prime.support} (kappa={args.kappa}), "
          f"l1 {outcome.source_l1:.6g} preserved")
    return 0


def cmd_oracle(args) -> int:
    if args.method == "grid":
        _check_grid(args.radius, args.step)  # no need to read the data first
    d = read_dataset(args.data)
    loss = LOSS_BY_FLAG[args.loss]
    if args.method == "exact":
        sol = best_subset(d, args.k, loss, budget=args.budget)
        params = {"method": "exact", "k": args.k, "loss": args.loss}
    else:
        sol = grid_best(d, args.k, args.radius, args.step, loss,
                        budget=args.budget)
        params = {"method": "grid", "k": args.k, "loss": args.loss,
                  "radius": args.radius, "step": args.step}
    write_subset_solution(args.out, sol, params)
    subset = ",".join(str(j + 1) for j in sol.subset)
    note = " (unbounded direction)" if sol.unbounded else ""
    print(f"wrote {args.out}: subset [{subset}] risk {sol.risk:.6g}{note}")
    return 0


def cmd_persist(args) -> int:
    ns = _parse_list(args.ns, "--ns", int)
    points = persistence_curve(ns, args.alpha, args.k, args.reps, args.seed,
                               args.sigma, progress=_progress("rep"))
    write_persistence(args.out, points, args.reps, args.seed, {
        "ns": ns, "alpha": args.alpha, "k": args.k, "sigma": args.sigma})
    trend = " -> ".join(f"{p.excess_risk:.4f}" for p in points)
    print(f"wrote {args.out}: median excess risk {trend}")
    return 0


def cmd_ridge_demo(args) -> int:
    budgets = _parse_list(args.budgets, "--budgets", float)
    cmp = ridge_vs_l1_demo(args.n, args.m, args.sigma, args.delta, budgets,
                           args.reps, args.seed, progress=_progress("rep"))
    write_ridge_demo(args.out, cmp)
    print(f"wrote {args.out}: ridge risk {cmp.ridge_risk_mean:.4f}, "
          f"selected-l1 risk {cmp.selected_risk_mean:.4f}")
    return 0


def cmd_deviation(args) -> int:
    if args.oracle_data is None and args.loss != "squared":
        raise ArgError("closed-form reference needs --loss squared; "
                       "pass --oracle-data otherwise")
    _check_probes(args.probes, args.k, args.radius)  # before any file is read
    d = read_dataset(args.data)
    loss = LOSS_BY_FLAG[args.loss]
    if args.oracle_data is not None:
        reference = read_dataset(args.oracle_data)
        if reference.m != d.m:
            raise ValueError(f"{args.oracle_data} has {reference.m} columns, "
                             f"{args.data} has {d.m}")
        ref_kind = {"oracle_data": args.oracle_data}
    else:
        try:
            spec = scenario_of(d)
        except ValueError as e:
            raise ValueError(f"{meta_path(args.data)}: {e}") from e
        if spec is None or spec.kind == "section4":
            raise ArgError("no closed form for this dataset; pass --oracle-data")
        reference = spec
        ref_kind = {"closed_form": True, "sigma": spec.params["sigma"]}
    value = sup_deviation(d, args.probes, args.k, args.radius, loss,
                          reference, args.seed)
    if args.out:
        atomic_write_json(args.out, {
            "sup_deviation": value, "probes": args.probes, "k": args.k,
            "radius": args.radius, "loss": args.loss, "seed": args.seed,
            **ref_kind})
    print(f"sup deviation {value:.6g} over {args.probes} probes "
          f"(k={args.k}, radius={args.radius})")
    return 0


COMMANDS = {
    "simgen": cmd_simgen,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "sparsify": cmd_sparsify,
    "oracle": cmd_oracle,
    "persist": cmd_persist,
    "ridge-demo": cmd_ridge_demo,
    "deviation": cmd_deviation,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        with _one_blas_thread():
            return COMMANDS[args.command](args)
    except ArgError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError, ArithmeticError, KeyError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
