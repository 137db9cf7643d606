"""Command-line interface: grids, flags, exit codes, reproducibility."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from l1risk import cli, experiments
from l1risk.cli import COMMANDS, ArgError, build_parser, main, \
    parse_lambda_grid
from l1risk.experiments import lambda_sweep
from l1risk.io import atomic_write_json, meta_path, read_coefficients, \
    read_dataset, write_dataset
from l1risk.simgen import ScenarioSpec, gen_null
from l1risk.solvers import SolveConfig, solve_penalized


def test_parse_lambda_grid():
    grid = parse_lambda_grid("0.01:0.02:0.17")
    assert grid == [0.01, 0.03, 0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.17]
    assert parse_lambda_grid("0.3") == [0.3]
    assert parse_lambda_grid("0.5:0.1:0.5") == [0.5]
    for bad in ("0.1:0.2", "a:b:c", "0.1:0:0.2", "0.2:0.1:0.1",
                "0.01:0.02:0.18", "", "0:inf:1", "0:nan:1", "nan:0.1:1",
                "0.1:0.1:inf", "-inf:1:0", "0:1e-11:5e-11",
                "1:1e-11:1.00000000005", "0:3e-11:1.2e-10"):
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
    assert (tmp_path / "a.cache.npy").read_bytes() == \
        (tmp_path / "b.cache.npy").read_bytes()
    assert "a.cache.npy" in capsys.readouterr().out


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
    assert record["report"]["reason"] == "certified"
    assert record["report"]["kkt_residual"] <= 1e-5
    assert record["params"]["penalty"] == "l1"
    assert beta.support >= 2
    assert "converged" in capsys.readouterr().out


def test_commands_run_one_blas_thread_and_restore_the_count(
        openblas_at_two_threads, linear_csv, tmp_path, monkeypatch, capsys):
    get = openblas_at_two_threads
    seen = []

    def spy(*args):
        seen.append(get())
        return solve_penalized(*args)

    monkeypatch.setattr(cli, "solve_penalized", spy)
    assert main(["solve", "--data", str(linear_csv), "--lambda", "0.1",
                 "--out", str(tmp_path / "fit.json")]) == 0
    assert seen == [1]
    assert get() == 2


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
    # solver settings SolveConfig rejects are library errors, raised before
    # the data is read
    for flags, message in ((["--max-iter", "0"], "max_iter"),
                           (["--tol", "-1"], "tol"), (["--tol", "0"], "tol"),
                           (["--tol", "inf"], "tol")):
        assert main(["solve", "--data", str(tmp_path / "nope.csv"),
                     "--lambda", "0.1", *flags, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "nope.csv" not in err
    assert not Path(out).exists()


@pytest.mark.parametrize("argv, message", [
    (["solve", "--out", "fit.json"], "penalty l1 requires --lambda"),
    (["solve", "--penalty", "l1ball", "--out", "fit.json"],
     "penalty l1ball requires --budget"),
    (["solve", "--penalty", "l2ball", "--out", "fit.json"],
     "penalty l2ball requires --budget"),
    (["deviation", "--loss", "exp", "--seed", "1"],
     "closed-form reference needs --loss squared; pass --oracle-data "
     "otherwise"),
], ids=["solve l1", "solve l1ball", "solve l2ball", "deviation exp"])
def test_missing_flags_exit_2_before_any_file_is_read(argv, message,
                                                      monkeypatch, capsys):
    def refuse(path):
        raise AssertionError(f"read {path} before the flag checks")

    monkeypatch.setattr(cli, "read_dataset", refuse)
    assert main([argv[0], "--data", "nothere.csv", *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["deviation", "--probes", "0", "--seed", "1"],
     "probe_count must be positive"),
    (["deviation", "--k", "0", "--seed", "1"], "need 1 <= k <= m"),
    (["oracle", "--method", "grid", "--k", "1", "--step", "0"],
     "step must be positive, finite and not so small that 2 * cube_radius "
     "/ step overflows"),
    (["oracle", "--method", "grid", "--k", "1", "--radius", "0"],
     "cube_radius must be positive and finite"),
], ids=["deviation probes 0", "deviation k 0", "grid step 0",
        "grid radius 0"])
def test_values_that_need_no_data_exit_1_before_any_file_is_read(
        argv, message, linear_csv, tmp_path, monkeypatch, capsys):
    reads = []

    def record(path):
        reads.append(path)
        return read_dataset(path)

    monkeypatch.setattr(cli, "read_dataset", record)
    extra = ["--oracle-data", str(linear_csv)] if argv[0] == "deviation" \
        else []
    out = tmp_path / "out.json"
    assert main([argv[0], "--data", str(linear_csv), *argv[1:], *extra,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert reads == []
    assert not out.exists()
    # the library raises the same message once the data is read
    monkeypatch.setattr(cli, "_check_probes", lambda *a: None)
    monkeypatch.setattr(cli, "_check_grid", lambda *a: None)
    assert main([argv[0], "--data", str(linear_csv), *argv[1:], *extra,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert reads


@pytest.mark.parametrize("argv", [
    ["solve", "--data", "{data}", "--loss", "exp", "--lambda", "nan"],
    ["solve", "--data", "{data}", "--loss", "exp", "--lambda", "inf"],
    ["solve", "--data", "{data}", "--penalty", "l1ball", "--budget", "nan"],
    ["sweep", "--n", "40", "--big-m", "25", "--seed", "1", "--lambdas", "nan"],
    ["ridge-demo", "--seed", "1", "--delta", "nan"],
    ["ridge-demo", "--seed", "1", "--budgets", "0,nan"],
    ["persist", "--ns", "20", "--seed", "1", "--sigma", "nan"],
    ["simgen", "--scenario", "null", "--n", "10", "--m", "3", "--seed", "1",
     "--sigma", "nan"],
], ids=lambda argv: " ".join([argv[0], *argv[-2:]]))
def test_nan_parameters_exit_1_and_write_nothing(argv, linear_csv, tmp_path,
                                                 capsys):
    before = sorted(tmp_path.iterdir())
    argv = [str(linear_csv) if a == "{data}" else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert "error:" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_sweep_cli_round_trip(tmp_path, capsys):
    args = ["sweep", "--n", "40", "--big-m", "25", "--lambdas", "0.05:0.05:0.1",
            "--reps", "2", "--test-n", "30", "--threads", "2", "--seed", "5"]
    assert main(args + ["--out", str(tmp_path / "s1.csv")]) == 0
    assert main(args + ["--out", str(tmp_path / "s2.csv")]) == 0
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
    assert (tmp_path / "s1.csv").read_text().splitlines()[0] == \
        "lambda,v_training,v_real,b1_norm,b2_norm,beta_l1,reps,seed"
    lines = (tmp_path / "s1.csv").read_text().splitlines()[1:]
    assert [float(line.split(",")[0]) for line in lines] == [0.05, 0.1]
    assert main(["sweep", "--n", "40", "--big-m", "25", "--lambdas", "0.1:0:0.2",
                 "--seed", "5", "--out", str(tmp_path / "s3.csv")]) == 2
    capsys.readouterr()
    # lambda_sweep's own check, made before any cell is drawn
    assert main(["sweep", "--n", "40", "--big-m", "25", "--lambdas", "0.1",
                 "--reps", "1", "--threads", "0", "--seed", "5",
                 "--out", str(tmp_path / "s4.csv")]) == 1
    assert capsys.readouterr().err == "error: threads must be positive\n"
    assert not (tmp_path / "s4.csv").exists()


def test_uncertified_sweep_cells_are_counted(tmp_path, monkeypatch, capsys):
    def one_iteration(train, loss, lam):
        return solve_penalized(train, loss, lam, SolveConfig(max_iter=1))

    # one iteration cannot certify lambda = 0.01; at lambda = 2 the start,
    # beta = 0, is already certified
    monkeypatch.setattr(experiments, "solve_penalized", one_iteration)
    rows = lambda_sweep(ScenarioSpec("section4", 40, {"big_m": 25}),
                        [0.01, 2.0], reps=2, test_n=30, seed=5)
    assert [r.n_unconverged for r in rows] == [2, 0]
    out = tmp_path / "s.csv"
    assert main(["sweep", "--n", "40", "--big-m", "25",
                 "--lambdas", "0.01:1.99:2", "--reps", "2", "--test-n", "30",
                 "--seed", "5", "--out", str(out)]) == 0
    assert capsys.readouterr().out == \
        f"wrote {out}: 2 lambdas x 2 reps, 2 unconverged cells\n"
    assert json.loads(meta_path(out).read_text())["unconverged"] == \
        [[0.01, 2], [2.0, 0]]


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "40", "--big-m", "25", "--lambdas", "0.1"],
    ["persist", "--ns", "20"],
    ["ridge-demo"],
], ids=lambda argv: argv[0])
def test_experiment_commands_take_no_solver_flags(argv, tmp_path, capsys):
    # they run the solvers' own stopping rule; only solve takes these flags
    out = tmp_path / "out.csv"
    for flags in (["--max-iter", "2000"], ["--tol", "1e-10"]):
        assert main([*argv, *flags, "--seed", "1", "--out", str(out)]) == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in \
            capsys.readouterr().err
    assert not out.exists()


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
                 "--reps", "2", "--seed", "9", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,m,excess_risk,budget,reps,seed"
    assert len(lines) == 3
    assert main(["persist", "--ns", "a,b", "--seed", "9",
                 "--out", str(out)]) == 2
    empty = tmp_path / "empty.csv"
    # an empty item is a malformed list, not one size fewer
    for ns in ("20,,40", "20,", ""):
        assert main(["persist", "--ns", ns, "--seed", "9",
                     "--out", str(empty)]) == 2
    assert main(["persist", "--ns", "20", "--reps", "0", "--seed", "9",
                 "--out", str(empty)]) == 1
    assert not empty.exists()
    capsys.readouterr()


@pytest.mark.parametrize("alpha, numpy_says", [
    ("200", "Maximum allowed dimension exceeded"),  # m = 1.6e260
    ("12", "Unable to allocate 29.1 PiB"),  # m = 4.1e15
])
def test_persist_names_alpha_and_m_when_m_is_too_large(
        alpha, numpy_says, tmp_path, capsys):
    out = tmp_path / "persist.csv"
    assert main(["persist", "--ns", "20", "--alpha", alpha, "--reps", "1",
                 "--seed", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: alpha = {float(alpha)} gives m = n^alpha = ")
    assert "columns at n = 20: " + numpy_says in err
    assert not out.exists()


def test_ridge_demo_cli(tmp_path, capsys):
    out = tmp_path / "ridge.csv"
    assert main(["ridge-demo", "--n", "20", "--m", "10", "--delta", "0.25",
                 "--budgets", "0,0.5", "--reps", "2", "--seed", "4",
                 "--out", str(out)]) == 0
    kinds = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert kinds == ["ridge", "l1", "l1", "l1_selected"]
    assert main(["ridge-demo", "--budgets", "0,x", "--seed", "4",
                 "--out", str(out)]) == 2
    empty = tmp_path / "empty.csv"
    for budgets in ("0,,1", "0,1,"):
        assert main(["ridge-demo", "--budgets", budgets, "--seed", "4",
                     "--out", str(empty)]) == 2
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

    # no closed form away from squared loss or for section4: demand a
    # reference sample
    assert main(["deviation", "--data", str(linear_csv), "--loss", "exp",
                 "--probes", "5", "--seed", "1"]) == 2
    section4 = tmp_path / "section4.csv"
    assert main(["simgen", "--scenario", "section4", "--n", "20",
                 "--big-m", "25", "--seed", "1", "--out", str(section4)]) == 0
    assert main(["deviation", "--data", str(section4), "--probes", "5",
                 "--seed", "1"]) == 2
    assert "no closed form" in capsys.readouterr().err
    ref = tmp_path / "ref.csv"
    write_dataset(gen_null(200, 6, 1.0, seed=2), ref)
    assert main(["deviation", "--data", str(linear_csv), "--loss", "exp",
                 "--probes", "5", "--oracle-data", str(ref),
                 "--seed", "1"]) == 0
    capsys.readouterr()
    # a reference of another column count is named with the training set
    narrow = tmp_path / "narrow.csv"
    write_dataset(gen_null(200, 5, 1.0, seed=2), narrow)
    assert main(["deviation", "--data", str(linear_csv), "--probes", "5",
                 "--oracle-data", str(narrow), "--seed", "1"]) == 1
    assert capsys.readouterr().err == \
        f"error: {narrow} has 5 columns, {linear_csv} has 6\n"


def test_deviation_json_keeps_its_key_order(linear_csv, tmp_path,
                                            monkeypatch, capsys):
    written = []

    def spy(path, record):
        written.append(path)
        atomic_write_json(path, record)

    monkeypatch.setattr(cli, "atomic_write_json", spy)
    ref = tmp_path / "ref.csv"
    write_dataset(gen_null(200, 6, 1.0, seed=2), ref)
    head = ["sup_deviation", "probes", "k", "radius", "loss", "seed"]
    for flags, tail in (([], ["closed_form", "sigma"]),
                        (["--oracle-data", str(ref)], ["oracle_data"])):
        out = tmp_path / "dev.json"
        assert main(["deviation", "--data", str(linear_csv), "--probes", "5",
                     "--seed", "1", *flags, "--out", str(out)]) == 0
        text = out.read_text()
        assert list(json.loads(text)) == head + tail
        assert text.startswith('{\n  "sup_deviation": ')
        assert text.endswith("\n}\n")
    assert written == [str(tmp_path / "dev.json")] * 2
    capsys.readouterr()


@pytest.mark.parametrize("radius", ["-1", "nan", "inf"])
def test_deviation_radius_must_be_finite_and_nonnegative(radius, linear_csv,
                                                         tmp_path, capsys):
    out = tmp_path / "dev.json"
    assert main(["deviation", "--data", str(linear_csv), "--probes", "5",
                 "--radius", radius, "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: radius must be nonnegative and finite\n"
    assert not out.exists()


MALFORMED_COEFFICIENTS = {
    "nonzeros not a list": {"m": 4, "nonzeros": 5},
    "null value": {"m": 4, "nonzeros": [[1, None]]},
    "null index": {"m": 4, "nonzeros": [[None, 1.0]]},
    "null m": {"m": None, "nonzeros": []},
    "record a list": [1, 2],
    # read at the parent as beta = (2, 1, 0, 0, 0) and exited 0
    "duplicate, fractional and boolean indices": {
        "m": 5, "nonzeros": [[1, 0.5], [1, 0.7], [2.9, 1.0], [True, 2.0]]},
    "string index and value": {"m": 5, "nonzeros": [["3", "1e0"]]},
    # 7 PiB of zeros: numpy refuses the request at once
    "m too large to allocate": {"m": 10 ** 15, "nonzeros": []},
}


@pytest.mark.parametrize("record", MALFORMED_COEFFICIENTS.values(),
                         ids=MALFORMED_COEFFICIENTS.keys())
def test_sparsify_rejects_malformed_coefficients(record, tmp_path, capsys):
    coefficients = tmp_path / "fit.json"
    coefficients.write_text(json.dumps(record))
    out = tmp_path / "sparse.json"
    assert main(["sparsify", "--coefficients", str(coefficients), "--kappa",
                 "2", "--seed", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


MALFORMED_SIDECARS = {
    "sidecar a list": [1, 2],
    "params a list": {"scenario": "sparse_linear", "params": [1]},
    "params missing": {"scenario": "null"},
    "null m": {"scenario": "null", "params": {"m": None, "sigma": 1.0}},
    "repeated beta_star index": {"scenario": "sparse_linear", "params": {
        "m": 6, "sigma": 0.1, "beta_star": [[1, 0.5], [1, 0.5]]}},
    "beta_star a string": {"scenario": "sparse_linear", "params": {
        "m": 6, "sigma": 0.1, "beta_star": "x"}},
    "m a word": {"scenario": "sparse_linear", "params": {
        "m": "six", "sigma": 0.1, "beta_star": []}},
    # 6 columns in the CSV: this used to fail only at the first probe
    "m one too many": {"scenario": "null", "params": {"m": 7, "sigma": 1.0}},
    "big_m one too many": {"scenario": "section4", "params": {
        "big_m": 2, "variance_convention": "var"}},
}


@pytest.mark.parametrize("sidecar", MALFORMED_SIDECARS.values(),
                         ids=MALFORMED_SIDECARS.keys())
def test_deviation_rejects_a_malformed_sidecar(sidecar, linear_csv, capsys):
    linear_csv.with_name("train.meta.json").write_text(json.dumps(sidecar))
    assert main(["deviation", "--data", str(linear_csv), "--probes", "5",
                 "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {linear_csv.with_name('train.meta.json')}: ")
    assert "Traceback" not in err


def test_parse_errors_name_the_file(linear_csv, tmp_path, capsys):
    out = str(tmp_path / "out.json")
    sidecar = linear_csv.with_name("train.meta.json")
    sidecar.write_text('{"scenario": "null",}')
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("y,x1,x2\n1.0,2.0,3.0\n1.0,2.0\n")
    fit = tmp_path / "fit.json"
    fit.write_text('{"m": 4 "nonzeros": []}')
    for path, argv in [
            (sidecar, ["solve", "--data", str(linear_csv), "--lambda", "0.1"]),
            (ragged, ["solve", "--data", str(ragged), "--lambda", "0.1"]),
            (fit, ["sparsify", "--coefficients", str(fit), "--kappa", "2",
                   "--seed", "1"])]:
        assert main(argv + ["--out", out]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not Path(out).exists()


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "l1risk.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simgen" in proc.stdout


def _readme_blocks():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("```")[1::2]


def test_readme_commands_parse():
    """Every `l1risk ...` line in README's code blocks is a valid invocation."""
    blocks = _readme_blocks()
    commands = [line.strip() for block in blocks for line in block.splitlines()
                if line.strip().startswith("l1risk ")]
    assert {shlex.split(c)[1] for c in commands} == set(COMMANDS)
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])


def test_readme_python_quick_start_runs(capsys):
    """README's Python quick start runs against the current public API."""
    code = [block.split("\n", 1)[1] for block in _readme_blocks()
            if block.startswith("python\n")]
    assert len(code) == 1
    exec(compile(code[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("True ")
