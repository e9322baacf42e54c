"""Benchmark entry point for the DASH directory-coherence simulator.

Run from the repository root::

    python3 perfbench/run.py --workload lu_sparse_miss --seed 0 --seconds 24 --trace 0

``--trace 0`` times untraced repeats of the workload for about
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` makes one
untraced and one traced pass and reports the per-layer metrics.  Either
way every simulated point is checked (see ``measure.Checker``).  The
output is a table of every metric with its unit and sample count, one
``record`` line of JSON with the host fingerprint and raw samples, and
last a JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 2 when the simulator's source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def add_source_paths() -> bool:
    """Import the simulator from this checkout; False when it is missing."""
    if not (SRC / "repro").is_dir() or not (ROOT / "benchmarks").is_dir():
        return False
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not add_source_paths():
        print(f"perfbench: simulator source not found under {ROOT}",
              file=sys.stderr)
        return 2

    from measure import measure, trace
    from workloads import WORKLOADS

    from repro.obs.telemetry import host_info

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.trace:
        metrics, checker, record = trace(workload, args.seed)
        samples = 1
    else:
        metrics, checker, record = measure(workload, args.seed, args.seconds)
        samples = record["samples"]

    print(f"workload {workload.name}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  samples {samples}")
    per_metric = record.get("samples_per_metric", {})
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.10g}"
        print(f"  {name:30s} {shown:>18} {unit:12s} "
              f"n={per_metric.get(name, samples)}")
    for problem in checker.problems:
        print(f"  FAILED {problem}")
    record.update(workload=workload.name, seed=args.seed, trace=args.trace,
                  host=host_info(), problems=checker.problems)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
