"""Record reference.json: the output digest of every op a seed can issue.

Usage: python3 perfbench/record.py   (from the root of a checkout)

Runs every cold CLI op once and every pooled class query once, refuses to
record when any exit code or independent check fails, and writes the
digests.  The reference guards against behaviour changes; it is not an
oracle.  A change that alters an output on purpose records it again.
"""

from __future__ import annotations

import json
import sys

import run
from queries import CURVES, POOL_PER_CURVE


def main() -> int:
    reference = {"ops": {}, "queries": {}}
    failures = []
    for argv in run.all_cold_ops():
        res = run.run_cold_op(argv, "plain")
        key = run.op_key(argv)
        reference["ops"][key] = run.digest(res.stdout)
        failures.extend(run.check_cold_op(res, reference))
        print(f"{res.seconds:7.3f} s  {key}", file=sys.stderr)
    result = run.run_query_worker(0, "plain")
    if "error" in result:
        failures.append(result["error"])
    else:
        by_curve = {",".join(map(str, lams)): [None] * POOL_PER_CURVE for lams in CURVES}
        for (lams, k), got, bad in zip(result["positions"], result["digests"], result["failures"]):
            by_curve[",".join(map(str, lams))][k] = got
            failures.extend(bad)
        reference["queries"] = by_curve
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    run.REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
