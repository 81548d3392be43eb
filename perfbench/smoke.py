"""Smoke test of the benchmark at a tiny size.

Run from the root of a checkout::

    python3 perfbench/smoke.py

For every workload, two traced runs of the same 30 queries with seed 1 must
pass and agree exactly on the counters in ``EXACT``, and a traced run with
seed 2 must pass as well.  Exits 0 on success, 1 otherwise.
"""

import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
QUERIES = 30
EXACT = ("solver.nodes", "solver.memo_hits", "breakdown.calls",
         "breakdown.setup_calls", "words.calls", "words.letters")


def run(workload, seed):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1", "--queries", str(QUERIES)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    ok = (p.returncode == 0 and result is not None and result["correct"]
          and result["attempted"] == QUERIES and result["failed"] == 0)
    if not ok:
        print(p.stdout[-3000:], p.stderr[-3000:], sep="\n")
    return ok, result


def main():
    failures = []
    for workload in WORKLOADS:
        ok1, first = run(workload, 1)
        ok2, second = run(workload, 1)
        ok3, _ = run(workload, 2)
        if not (ok1 and ok2 and ok3):
            failures.append(f"{workload}: a run failed")
            continue
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                failures.append(f"{workload}: {name} {a} != {b}")
        print(f"{workload}: ok, " + ", ".join(
            f"{name}={first['metrics'][name]['value']}" for name in EXACT))
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
