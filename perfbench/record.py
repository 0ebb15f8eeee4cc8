#!/usr/bin/env python3
"""Record the expected stdout digest of every pooled request.

Usage: python3 perfbench/record.py [WORKLOAD ...]   (default: all workloads)

Runs each request of the named workloads' pools once, with PYTHONHASHSEED=0,
and stores the sha256 of its stdout in expected.json.  Entries of other
workloads are kept; entries no pool holds any more are dropped.  A pooled
request that does not pass is reported and not recorded, and the script
exits 1: fix the pool, since a workload must pass at the commit that records
it.  Run it only at a commit whose outputs are known to be right; later
commits are checked against these bytes.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import pool
import run


def main(workloads: list[str]) -> int:
    run.WORK.mkdir(parents=True, exist_ok=True)
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8")) if run.EXPECTED.exists() else {}
    runner = run.Runner(0, time.perf_counter() + 3600)
    failures = 0
    for workload in workloads or pool.WORKLOADS:
        requests = pool.pool(workload)
        run.write_tables(requests)
        for argv in requests:
            result = runner.run(argv, hashseed=0)
            ok = result.returncode == 0
            if ok and result.stdout.startswith(b"{"):
                ok = json.loads(result.stdout).get("status") == "pass"
            print(f"{result.wall_s:7.2f}s {'pass' if ok else 'FAIL'} {' '.join(argv)}", file=sys.stderr)
            if ok:
                expected[pool.key(argv)] = hashlib.sha256(result.stdout).hexdigest()
            else:
                failures += 1
    pooled = {pool.key(argv) for workload in pool.WORKLOADS for argv in pool.pool(workload)}
    expected = {key: digest for key, digest in expected.items() if key in pooled}
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
