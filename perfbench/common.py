"""Shared plumbing: run results, sample statistics, host fingerprint."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field

import numpy as np

#: Run records, server logs and span files, inside the checkout.
OUT_DIR = ".perfbench-out"


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    ``metrics`` holds every end-to-end value of an untraced run and
    every per-layer value of a traced one; ``ops`` counts attempted and
    failed operations per kind; ``record`` carries the rest of the run
    record (input digest, sample counts, per-pass figures).
    """

    metrics: dict = field(default_factory=dict)
    ops: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)
    #: traced runs: layer -> {"count", "total_s", "self_s"}, the timed
    #: wall those spans were recorded in, and the most recent raw spans.
    layers: dict = field(default_factory=dict)
    traced_wall_s: float = 0.0
    spans: list = field(default_factory=list)

    def attempt(self, kind: str, ok: bool = True, count: int = 1) -> None:
        row = self.ops.setdefault(kind, {"attempted": 0, "failed": 0})
        row["attempted"] += count
        if not ok:
            row["failed"] += count

    @property
    def attempted(self) -> int:
        return sum(row["attempted"] for row in self.ops.values())

    @property
    def failed(self) -> int:
        return sum(row["failed"] for row in self.ops.values())


def percentiles(samples, *qs) -> tuple[float, ...]:
    arr = np.asarray(samples, dtype=np.float64)
    return tuple(float(np.percentile(arr, q)) for q in qs)


def quiet_blocks(passes, block: int, share: float):
    """Round latencies at the speed of a run's quietest blocks.

    On a shared host, other tenants can slow every program by 20-50%
    for stretches of 20 s to minutes, and a median over a run measures
    how much of the run fell into such a stretch.  Instead, ``passes``
    holds one list of per-round latencies per pass, where round ``r``
    does the same work in every pass.  Each pass is cut into blocks of
    ``block`` consecutive rounds, each block is scored by its time over
    the median time of the same block across passes, and the
    best-scoring ``share`` of blocks (at least one) is kept.

    Returns the round latencies at the quiet speed: each round's
    median across passes times the kept blocks' time over their
    medians' time (the quiet factor, below 1 when part of the run was
    slowed), and the factor.  A pass at the quiet speed takes the sum
    of the latencies.
    """
    rounds = np.asarray(passes, dtype=np.float64)  # (passes, rounds)
    n_pass, n_round = rounds.shape
    n_block = n_round // block
    blocks = rounds[:, :n_block * block].reshape(n_pass, n_block, block)
    times = blocks.sum(axis=2)
    ref = np.broadcast_to(np.median(times, axis=0), times.shape).ravel()
    times = times.ravel()
    kept = np.argsort(times / ref, kind="stable")[
        :max(1, round(share * times.size))
    ]
    factor = float(times[kept].sum() / ref[kept].sum())
    return factor * np.median(rounds, axis=0), factor


def median(values) -> float:
    return float(statistics.median(values))


def self_peak_rss_mb(children: bool = False) -> float:
    """Peak RSS of this process (and, with ``children``, the largest of
    its waited-for child processes), in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(
            peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def proc_status_kb(pid: int, key: str) -> int:
    """One ``/proc/<pid>/status`` field (e.g. ``VmHWM``) in kB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(f"{key} not in /proc/{pid}/status")


def cpu_ticks() -> tuple[int, int]:
    """(all, steal) CPU ticks since boot from ``/proc/stat``; steal is
    time a hypervisor gave this machine's CPUs to someone else."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return sum(fields), fields[7]


def host_fingerprint(ticks_at_start: tuple[int, int]) -> dict:
    total, steal = cpu_ticks()
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "machine": platform.machine(),
        "loadavg": list(os.getloadavg()),
        "cpu_steal_frac": (
            (steal - ticks_at_start[1]) / (total - ticks_at_start[0])
            if total > ticks_at_start[0] else 0.0
        ),
    }
