"""Set-up probe: a fresh process that imports l1risk and runs one warm-up solve.

Usage: python3 probe.py <workload parameters as JSON>

Prints one JSON line with the import time and the first solve's time. The
caller times the whole process, from spawn to exit.
"""
import json
import sys
import time

start = time.perf_counter()
import l1risk  # noqa: E402  (first, before anything else imports numpy)
import l1risk.cli  # noqa: E402,F401

import_s = time.perf_counter() - start

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    params = json.loads(sys.argv[1])
    workload = type(WORKLOADS[params["name"]])(**params)
    print(json.dumps({"import_s": import_s,
                      "first_solve_s": workload.warm_up()}))
