"""Repository benchmark: one command, every metric by name and unit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hub_hectic --seed 1 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric declared in
``BENCHMARK.json``; ``--trace 1`` makes a separate traced run that
prints every per-layer metric and the per-layer table (count, total,
self time and share of the timed wall per layer).  ``--workload all``
runs every workload in turn and exits nonzero if any of them failed.  Inputs come from
``--seed`` only.  Every run checks the program's answers; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is nonzero when any
correctness gate failed.  A run record (host fingerprint, seed, input
digest, sample counts, attempted/failed per operation kind) is written
to ``.perfbench-out/`` in the checkout.

The benchmark runs the program from the checkout's own ``src/`` tree
and refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import common
from spans import format_layer_table

WORKLOADS = ("serve_calm", "hub_hectic", "batch_mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOADS, "all")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    codes = []
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        codes.append(subprocess.run([
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]).returncode)
    return max(codes)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no src/repro package under {root}; run from "
              "the root of a repository checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(common.OUT_DIR, exist_ok=True)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    workload = __import__(args.workload)
    started = time.time()
    ticks = common.cpu_ticks()
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    values = dict(outcome.metrics)
    missing = [n for n in units if n not in values]
    if args.trace:
        # Layers a workload does not exercise did no work on it.
        values.update({n: 0.0 for n in missing})
    elif missing:
        raise RuntimeError(f"workload reported no {missing}")
    metrics = {
        name: {"value": float(values[name]), "unit": units[name]}
        for name in units
    }

    correct = outcome.failed == 0 and outcome.attempted > 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "host": common.host_fingerprint(ticks),
        "correct": correct,
        "ops": outcome.ops,
        "metrics": metrics,
        **outcome.record,
    }
    stem = os.path.join(
        common.OUT_DIR, f"{args.workload}-seed{args.seed}"
    )
    if args.trace:
        table = format_layer_table(
            outcome.layers, outcome.traced_wall_s,
            {n: m["value"] for n, m in metrics.items()}, units,
        )
        record["layers"] = outcome.layers
        record["traced_wall_s"] = outcome.traced_wall_s
        print(table)
        spans_path = f"{stem}-spans.json"
        with open(spans_path, "w") as fh:
            # (layer, parent layer, start, end); perf_counter seconds of
            # the process that recorded the span.
            json.dump(outcome.spans, fh)
        record["spans_file"] = spans_path
    else:
        for name, m in metrics.items():
            print(f"{name:<24}{m['value']:>16.6g}  {m['unit']}")
    for kind, row in sorted(outcome.ops.items()):
        print(f"ops {kind:<20} attempted {row['attempted']:>9} "
              f"failed {row['failed']:>5}")

    path = f"{stem}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print(f"run record: {path}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
