"""Traced `l1risk` command: wraps the CLI's imported functions, then runs it.

Usage: python3 cli_runner.py <dump.json> <l1risk arguments...>

Behaves like `python -m l1risk.cli <arguments>` (same exit code) and writes
the recorded spans, solve reports and counters, plus the import time of
`l1risk.cli`, to <dump.json> when the command returns.
"""
import json
import sys
import time

start = time.perf_counter()
import l1risk.cli  # noqa: E402  (first, before anything else imports numpy)

import_ms = 1000.0 * (time.perf_counter() - start)

from recorder import Recorder, RoundLog  # noqa: E402

if __name__ == "__main__":
    dump_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install(l1risk.cli)
    recorder.log = RoundLog(traced=True)
    code = l1risk.cli.main(argv)
    recorder.uninstall()
    with open(dump_path, "w") as fh:
        json.dump({**recorder.log.dump(), "import_ms": import_ms}, fh)
    sys.exit(code)
