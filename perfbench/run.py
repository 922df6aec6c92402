"""Run one workload of the eseds benchmark and print its metrics.

    python3 perfbench/run.py --workload read-tcp --seed 1 --seconds 20 --trace 0

Imports eseds from ``src/`` beside this directory; with no sources there it
exits with code 2 and prints no result.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, measured for
``--seconds`` seconds, with seven set-ups timed across the run.  With ``--trace 1`` they are the
per-layer ones: the workload runs a fixed number of operations twice from
identical set-ups, untraced and then traced, so counts repeat exactly for a
seed, and the spans of the traced phase are written under
``perfbench/out/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=None) -> int:
    if not (SRC / "eseds" / "__init__.py").is_file():
        print(f"error: eseds sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    workloads = workloads or WORKLOADS
    args = parse_args(argv, workloads)
    # one CPU for this process and the server child it starts: a loopback
    # round trip is then two context switches, not two cross-CPU wake-ups,
    # which on a 2-vCPU VM made read-tcp about 1.4x slower
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = workloads[args.workload]
    env = harness.environment(spec)
    if args.trace:
        phases, rows = harness.measure_traced(spec, args.seed, env)
    else:
        phases, rows = harness.measure(spec, args.seed, args.seconds)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    violations = sum(p.violations for p in phases)

    print(f"# eseds benchmark: workload={spec.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# environment: " + json.dumps(env))
    for name, value, unit, note in rows:
        print(f"{name:38} {value:>14.6g} {unit:6} {note}")
    print(f"{'fail_ratio':38} {failed / attempted:>14.6g} {'ratio':6} "
          f"{failed} of {attempted} operations; {violations} failed end-of-round checks")
    print(json.dumps({
        "correct": failed == 0 and violations == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows if name not in harness.TABLE_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
