#!/usr/bin/env python
"""Guard the perf trajectory: fail CI on a benchmark throughput cliff.

The bench harness writes ``BENCH_e16.json`` / ``BENCH_e17.json`` /
``BENCH_e19.json`` artifacts at the repo root (see
``benchmarks/conftest.py``), and those
artifacts are committed — they *are* the performance baseline of the
last merged PR.  This script compares a freshly measured artifact
against the committed baseline row by row and exits nonzero when any
metric's slowdown ratio exceeds ``1 + tolerance``.

Matching is strict like-for-like: rows pair up only when every
non-metric field agrees — including the ``smoke`` flag, so reduced-size
CI smoke numbers are never judged against full-mode baselines.  A fresh
row with no matching baseline row is skipped (new cells and axis
extensions must not fail the guard), as is a whole artifact missing
from the baseline directory.

Metrics and direction:

* ``*_per_s`` (steps/s, frames/s, requests/s) — higher is better;
* ``us_per_step`` / ``*_us`` / ``wall_ms`` — lower is better.

The slowdown ratio is ``baseline / fresh`` for a higher-is-better
metric and ``fresh / baseline`` for a lower-is-better one.  So with
``--tolerance 0.30`` a time metric fails when it rises more than 30%,
but a throughput metric fails when it falls more than
``tol / (1 + tol)`` ≈ 23.1% (1/1.30 of the baseline), not 30%.

``speedup`` and ``fused_fraction`` columns are informational ratios and
are deliberately not guarded — the absolute throughputs they derive
from already are, and guarding both double-counts one slowdown.

Usage (mirrors the CI bench-smoke job)::

    cp BENCH_e16.json BENCH_e17.json BENCH_e19.json .bench-baseline/
    pytest benchmarks --smoke                           # rewrites them
    python scripts/check_bench_regression.py \
        --baseline .bench-baseline --fresh . --tolerance 0.30
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ARTIFACTS = ("BENCH_e16.json", "BENCH_e17.json", "BENCH_e19.json")


def _is_metric(field: str) -> bool:
    return field.endswith("_per_s") or _lower_is_better(field)


def _lower_is_better(field: str) -> bool:
    return (
        field == "us_per_step"
        or field.endswith("_us")
        or field.endswith("wall_ms")
    )


_UNGUARDED = {"speedup", "fused_fraction"}


def _row_key(row: dict) -> tuple:
    """Identity of a row: every non-metric, non-ratio field."""
    return tuple(sorted(
        (k, v) for k, v in row.items()
        if not _is_metric(k) and k not in _UNGUARDED
        and not isinstance(v, float)
    ))


def _load_tables(path: Path) -> dict[str, list[dict]] | None:
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    tables = data.get("tables")
    return tables if isinstance(tables, dict) else None


def compare(
    baseline: dict[str, list[dict]],
    fresh: dict[str, list[dict]],
    tolerance: float,
    label: str,
) -> tuple[list[str], int]:
    """Return (regression messages, rows compared)."""
    failures: list[str] = []
    compared = 0
    for table, fresh_rows in sorted(fresh.items()):
        base_by_key: dict[tuple, dict] = {}
        for row in baseline.get(table, []):
            base_by_key[_row_key(row)] = row
        for row in fresh_rows:
            base = base_by_key.get(_row_key(row))
            if base is None:
                continue  # new cell — nothing committed to compare to
            compared += 1
            for field, value in row.items():
                if not _is_metric(field) or field in _UNGUARDED:
                    continue
                ref = base.get(field)
                if not isinstance(ref, (int, float)) or ref <= 0:
                    continue
                if not isinstance(value, (int, float)) or value <= 0:
                    failures.append(
                        f"{label}:{table}: {field} unreadable "
                        f"(fresh={value!r})"
                    )
                    continue
                if _lower_is_better(field):
                    ratio = value / ref  # >1 means slower
                else:
                    ratio = ref / value
                if ratio > 1.0 + tolerance:
                    # The size of the move relative to the baseline: a
                    # throughput halving "fell 50%", not "fell 100%".
                    if _lower_is_better(field):
                        direction, change = "rose", value / ref - 1.0
                    else:
                        direction, change = "fell", 1.0 - value / ref
                    failures.append(
                        f"{label}:{table}: {field} {direction} "
                        f"{change * 100:.1f}% past tolerance "
                        f"(baseline {ref:,.1f} -> fresh {value:,.1f}, "
                        f"row {dict(_row_key(row))})"
                    )
    return failures, compared


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--baseline", type=Path, required=True,
        help="directory holding the committed BENCH_e*.json baselines",
    )
    parser.add_argument(
        "--fresh", type=Path, default=Path("."),
        help="directory holding the freshly measured artifacts "
             "(default: current directory)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed slowdown ratio above 1 before failing "
             "(default 0.30: a time may rise 30%%, a throughput may "
             "fall about 23.1%%)",
    )
    args = parser.parse_args(argv)

    all_failures: list[str] = []
    total_compared = 0
    for name in ARTIFACTS:
        fresh = _load_tables(args.fresh / name)
        if fresh is None:
            print(f"{name}: no fresh artifact — skipped")
            continue
        base = _load_tables(args.baseline / name)
        if base is None:
            print(f"{name}: no committed baseline — skipped")
            continue
        failures, compared = compare(
            base, fresh, args.tolerance, name,
        )
        total_compared += compared
        print(f"{name}: {compared} rows compared, "
              f"{len(failures)} regressions")
        all_failures.extend(failures)

    if all_failures:
        print(f"\nFAIL: {len(all_failures)} metric(s) slowed past a "
              f"ratio of {1 + args.tolerance:.2f}:", file=sys.stderr)
        for msg in all_failures:
            print(f"  {msg}", file=sys.stderr)
        return 1
    print(f"OK: no slowdown ratio past {1 + args.tolerance:.2f} "
          f"across {total_compared} compared rows")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
