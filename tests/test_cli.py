"""Command-line interface: grids, flags, exit codes, reproducibility."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from l1risk.cli import COMMANDS, ArgError, build_parser, main, \
    parse_lambda_grid
from l1risk.io import read_coefficients, read_sweep, write_dataset
from l1risk.simgen import gen_null


def test_parse_lambda_grid():
    grid = parse_lambda_grid("0.01:0.02:0.17")
    assert grid == [0.01, 0.03, 0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.17]
    assert parse_lambda_grid("0.3") == [0.3]
    assert parse_lambda_grid("0.5:0.1:0.5") == [0.5]
    for bad in ("0.1:0.2", "a:b:c", "0.1:0:0.2", "0.2:0.1:0.1",
                "0.01:0.02:0.18", ""):
        with pytest.raises(ArgError):
            parse_lambda_grid(bad)


def test_every_flag_appears_in_its_subcommand_help():
    parser = build_parser()
    subs = parser._subparsers._group_actions[0].choices
    assert sorted(subs) == ["deviation", "oracle", "persist", "ridge-demo",
                            "simgen", "solve", "sparsify", "sweep"]
    for name, sub in subs.items():
        text = sub.format_help()
        for action in sub._actions:
            for opt in action.option_strings:
                assert opt in text, f"{name} help does not list {opt}"


def test_bad_invocations_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["simgen", "--scenario", "section4", "--n", "10",
                 "--seed", "1", "--out", "x.csv"]) == 2  # missing --big-m
    assert main(["simgen", "--scenario", "null", "--n", "10",
                 "--seed", "1", "--out", "x.csv"]) == 2  # missing --m
    assert main(["simgen", "--bogus-flag"]) == 2
    capsys.readouterr()


def test_simgen_is_byte_identical_across_runs(tmp_path, capsys):
    args = ["simgen", "--scenario", "section4", "--n", "15", "--big-m", "25",
            "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
    assert main(args + ["--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.meta.json").read_bytes() == \
        (tmp_path / "b.meta.json").read_bytes()
    assert "wrote" in capsys.readouterr().out


def test_simgen_writes_every_scenario(tmp_path, capsys):
    assert main(["simgen", "--scenario", "sparse-linear", "--n", "12",
                 "--m", "6", "--k", "2", "--sigma", "0.5", "--seed", "3",
                 "--out", str(tmp_path / "sl.csv")]) == 0
    meta = json.loads((tmp_path / "sl.meta.json").read_text())
    assert meta["scenario"] == "sparse_linear"
    assert meta["params"]["beta_star"] == [
        [1, 0.7071067811865475], [2, 0.7071067811865475]]
    assert main(["simgen", "--scenario", "null", "--n", "12", "--m", "4",
                 "--seed", "3", "--out", str(tmp_path / "nu.csv")]) == 0
    assert (tmp_path / "nu.csv").exists()
    capsys.readouterr()


@pytest.fixture
def linear_csv(tmp_path, capsys):
    path = tmp_path / "train.csv"
    assert main(["simgen", "--scenario", "sparse-linear", "--n", "80",
                 "--m", "6", "--k", "2", "--sigma", "0.1", "--seed", "11",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    return path


def test_solve_reports_a_certificate(linear_csv, tmp_path, capsys):
    out = tmp_path / "fit.json"
    assert main(["solve", "--data", str(linear_csv), "--lambda", "0.01",
                 "--tol", "1e-13", "--out", str(out)]) == 0
    beta, record = read_coefficients(out)
    assert record["report"]["converged"] is True
    assert record["report"]["kkt_residual"] <= 1e-5
    assert record["params"]["penalty"] == "l1"
    assert beta.support >= 2
    assert "converged" in capsys.readouterr().out


def test_solve_ball_variants_respect_their_radii(linear_csv, tmp_path, capsys):
    l1_out = tmp_path / "l1ball.json"
    assert main(["solve", "--data", str(linear_csv), "--penalty", "l1ball",
                 "--budget", "0.8", "--out", str(l1_out)]) == 0
    beta, _ = read_coefficients(l1_out)
    assert beta.l1_norm <= 0.8 + 1e-9

    l2_out = tmp_path / "l2ball.json"
    assert main(["solve", "--data", str(linear_csv), "--penalty", "l2ball",
                 "--budget", "0.5", "--loss", "abs", "--out", str(l2_out)]) == 0
    beta, record = read_coefficients(l2_out)
    assert beta.l2_norm <= 0.5 + 1e-9
    assert record["params"]["loss"] == "abs"
    capsys.readouterr()


def test_solve_flag_and_file_errors(linear_csv, tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert main(["solve", "--data", str(linear_csv), "--out", out]) == 2
    assert main(["solve", "--data", str(linear_csv), "--penalty", "l1ball",
                 "--out", out]) == 2
    assert main(["solve", "--data", str(tmp_path / "nope.csv"),
                 "--lambda", "0.1", "--out", out]) == 1
    assert main(["solve", "--data", str(linear_csv), "--lambda", "0.1",
                 "--frob", "--out", out]) == 2
    capsys.readouterr()


def test_sweep_cli_round_trip(tmp_path, capsys):
    args = ["sweep", "--n", "40", "--big-m", "25", "--lambdas", "0.05:0.05:0.1",
            "--reps", "2", "--test-n", "30", "--threads", "2",
            "--max-iter", "2000", "--tol", "1e-10", "--seed", "5"]
    assert main(args + ["--out", str(tmp_path / "s1.csv")]) == 0
    assert main(args + ["--out", str(tmp_path / "s2.csv")]) == 0
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
    assert (tmp_path / "s1.csv").read_text().splitlines()[0] == \
        "lambda,v_training,v_real,b1_norm,b2_norm,beta_l1,reps,seed"
    rows = read_sweep(tmp_path / "s1.csv")
    assert [r.lam for r in rows] == [0.05, 0.1]
    assert main(["sweep", "--n", "40", "--big-m", "25", "--lambdas", "0.1:0:0.2",
                 "--seed", "5", "--out", str(tmp_path / "s3.csv")]) == 2
    capsys.readouterr()


def test_sparsify_cli_preserves_the_l1_norm(linear_csv, tmp_path, capsys):
    fit = tmp_path / "fit.json"
    assert main(["solve", "--data", str(linear_csv), "--lambda", "0.001",
                 "--tol", "1e-12", "--out", str(fit)]) == 0
    sparse = tmp_path / "sparse.json"
    assert main(["sparsify", "--coefficients", str(fit), "--kappa", "8",
                 "--seed", "2", "--out", str(sparse)]) == 0
    dense_beta, _ = read_coefficients(fit)
    sparse_beta, record = read_coefficients(sparse)
    assert sparse_beta.l1_norm == pytest.approx(dense_beta.l1_norm, abs=1e-10)
    assert sparse_beta.support <= 8
    assert record["params"]["kappa"] == 8
    capsys.readouterr()


def test_oracle_cli_exact_and_grid(linear_csv, tmp_path, capsys):
    out = tmp_path / "best.json"
    assert main(["oracle", "--data", str(linear_csv), "--k", "2",
                 "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["subset"] == [1, 2]
    assert record["risk"] < 0.05

    grid_out = tmp_path / "grid.json"
    assert main(["oracle", "--data", str(linear_csv), "--k", "1",
                 "--method", "grid", "--radius", "1.0", "--step", "0.25",
                 "--out", str(grid_out)]) == 0
    assert json.loads(grid_out.read_text())["params"]["method"] == "grid"

    assert main(["oracle", "--data", str(linear_csv), "--k", "3",
                 "--budget", "10", "--out", str(out)]) == 1
    capsys.readouterr()


def test_persist_cli(tmp_path, capsys):
    out = tmp_path / "persist.csv"
    assert main(["persist", "--ns", "20,40", "--alpha", "1.1", "--k", "2",
                 "--reps", "2", "--max-iter", "2000", "--tol", "1e-10",
                 "--seed", "9", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,m,excess_risk,budget,reps,seed"
    assert len(lines) == 3
    assert main(["persist", "--ns", "a,b", "--seed", "9",
                 "--out", str(out)]) == 2
    empty = tmp_path / "empty.csv"
    assert main(["persist", "--ns", "20", "--reps", "0", "--seed", "9",
                 "--out", str(empty)]) == 1
    assert not empty.exists()
    capsys.readouterr()


def test_ridge_demo_cli(tmp_path, capsys):
    out = tmp_path / "ridge.csv"
    assert main(["ridge-demo", "--n", "20", "--m", "10", "--delta", "0.25",
                 "--budgets", "0,0.5", "--reps", "2", "--max-iter", "2000",
                 "--tol", "1e-10", "--seed", "4", "--out", str(out)]) == 0
    kinds = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert kinds == ["ridge", "l1", "l1", "l1_selected"]
    assert main(["ridge-demo", "--budgets", "0,x", "--seed", "4",
                 "--out", str(out)]) == 2
    empty = tmp_path / "empty.csv"
    assert main(["ridge-demo", "--reps", "0", "--seed", "4",
                 "--out", str(empty)]) == 1
    assert not empty.exists()
    capsys.readouterr()


def test_deviation_cli_closed_form_and_oracle_data(linear_csv, tmp_path, capsys):
    out = tmp_path / "dev.json"
    assert main(["deviation", "--data", str(linear_csv), "--probes", "10",
                 "--k", "2", "--seed", "1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["closed_form"] is True
    assert record["sup_deviation"] >= 0.0

    # no closed form away from squared loss: demand a reference sample
    assert main(["deviation", "--data", str(linear_csv), "--loss", "exp",
                 "--probes", "5", "--seed", "1"]) == 2
    ref = tmp_path / "ref.csv"
    write_dataset(gen_null(200, 6, 1.0, seed=2), ref)
    assert main(["deviation", "--data", str(linear_csv), "--loss", "exp",
                 "--probes", "5", "--oracle-data", str(ref),
                 "--seed", "1"]) == 0
    capsys.readouterr()


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "l1risk.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simgen" in proc.stdout


def test_readme_commands_parse():
    """Every `l1risk ...` line in README's code blocks is a valid invocation."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```")[1::2]
    commands = [line.strip() for block in blocks for line in block.splitlines()
                if line.strip().startswith("l1risk ")]
    assert {shlex.split(c)[1] for c in commands} == set(COMMANDS)
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])
