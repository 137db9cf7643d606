"""l1risk benchmark: one workload per invocation, every metric by name.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep-ref --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 30   # every workload, both modes

Workloads (see workloads.py): `sweep-ref`, `constrained`, `cli-cold`. The
program is used from source (`src/`); nothing is installed or built.
Without `--workload`, each workload runs in its own process, timed and then
traced, and the exit code is 0 only when every one of those runs passed.

Output: a readable report, then as the last line one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones. The
full record (environment, digest, exact counts, rounds) is written to
`bench/out/result-<workload>-seed<seed>-trace<t>.json`, and a traced run's
spans to `bench/out/spans-...json`. The exit code is 0 when every operation
passed its correctness gate and every round repeated the output digest
and exact counts of the first round and of earlier runs of the same sources
and seed (kept in `bench/out/digests.json`), 1 otherwise, and 2 when the
program's sources are missing.

End-to-end metrics (timed runs):
  setup_s            median over 5 fresh processes of spawn -> import l1risk
                     -> one warm-up solve of the workload's shape -> exit
  cells_per_s        median over rounds of cells completed per second; a
                     cell is one train draw with its fits and evaluation,
                     and in cli-cold one fresh-process command
  cell_p50_ms        median cell latency
  cell_tail_ms       highest percentile with 10 cells beyond it in a run
                     of the workload's minimum length; longer runs read the
                     same percentile (it and the cell count are recorded)
  round_s            median wall time of one round (a full workload pass)
  solve_p50_ms       median latency of one solve as the workload issues it:
                     a solver call in sweep-ref and constrained, a whole
                     fresh `l1risk solve` process (import, CSV read, solve,
                     write) in cli-cold
  certified_frac     solves with kkt_residual <= 1e-5 over all solves
  peak_rss_mb        peak resident set of the process doing the work (the
                     largest child process in cli-cold)
failed_frac is printed in the report; it is 0 when nothing fails, so the
result line carries it as `failed` out of `attempted`.

Per-layer metrics (traced runs) are per round, medians over traced rounds;
layers are the l1risk modules (see harness.PER_LAYER). `<layer>.calls`
counts every call into the module (simgen's include `true_risk_gaussian`
and `sparse_unit_vector`); accepted line-search trials are taken to be the
iterations; computed products and bytes follow recorder.solve_totals.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sweep-ref", "constrained", "cli-cold")


def run_all(seed: int, seconds: float) -> int:
    codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                             "--seed", str(seed), "--seconds", str(seconds),
                             "--trace", str(trace)]).returncode
             for name in WORKLOAD_NAMES for trace in (0, 1)]
    return 0 if all(code == 0 for code in codes) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="default: every workload, timed then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds)

    src = ROOT / "src"
    if not (src / "l1risk" / "__init__.py").is_file():
        print(f"error: no l1risk sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import l1risk  # noqa: F401  (first, before anything else imports numpy)

    import harness
    from workloads import WORKLOADS

    result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), ROOT / "bench" / "out")
    for line in harness.report_lines(result):
        print(line)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
