#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite-batch --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics (and writes a ``repro-trace-v1`` Chrome trace under
``.bench_out/traces/``).  Metric names, units and directions come from
``BENCHMARK.json``; the run fails if it cannot produce every one of
them.  Each metric is printed as a ``name value unit`` line, and the
last line of standard output is one JSON object::

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

Every output is checked against an oracle (the reference interpreter
and each attack scenario's declared outcome); a mismatch makes the run
incorrect, never merely slow.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("cli-cold", "suite-batch", "serve-hot")


def _declared(trace: bool) -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.have_package():
        print(f"perfbench: no package at {common.SRC}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    # Relative paths (the daemon's socket among them) hang off the root.
    os.chdir(common.ROOT)
    # Unwind on SIGTERM too, so every daemon and child is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    declared = _declared(bool(args.trace))
    try:
        workload = importlib.import_module(args.workload.replace("-", "_"))
        outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    except common.BenchError as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 1
    metrics = outcome["metrics"]
    missing = sorted(set(declared) - set(metrics))
    extra = sorted(set(metrics) - set(declared))
    bad = sorted(name for name, value in metrics.items() if not math.isfinite(value))
    if missing or extra or bad:
        print(f"perfbench: metrics missing {missing}, undeclared {extra}, "
              f"non-finite {bad}", file=sys.stderr)
        return 1
    for problem in outcome["problems"]:
        print(f"perfbench: oracle: {problem}", file=sys.stderr)
    for name in sorted(metrics):
        print(f"{name} {metrics[name]!r} {declared[name]}")
    result = {
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": float(metrics[name]), "unit": declared[name]}
            for name in sorted(metrics)
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
