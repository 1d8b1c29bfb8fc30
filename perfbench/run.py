"""Run one PIT-Search benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot-zipf --seed 1 --seconds 16 --trace 0

Builds the artifacts with the ``pit-search`` CLI, serves them with
``pit-search serve``, drives the daemon with an open-loop client and
checks its answers. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics. A full
record of the run is written under ``.perfbench-out/``. The exit code is
1 when a correctness gate fails and 2 when the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so the daemon is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path[:0] = [str(HERE), str(SRC)]
    import runner
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    record = runner.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    metrics = record.per_layer if args.trace else record.end_to_end
    for name, metric in metrics.items():
        print(f"{name:40s} {metric.value:14.6g} {metric.unit}")
    for name, gate in record.gates.items():
        print(f"gate {name}: {'ok' if gate.ok else 'FAILED'} ({gate.value})")
    for name, check in record.checks.items():
        print(f"check {name}: {'ok' if check.ok else 'MISSED'} ({check.value}, {check.bound})")
    print(json.dumps({
        "correct": record.correct,
        "attempted": record.notes["attempted"],
        "failed": record.notes["failed"],
        "metrics": {k: {"value": m.value, "unit": m.unit} for k, m in metrics.items()},
    }))
    return 0 if record.correct else 1


if __name__ == "__main__":
    sys.exit(main())
