"""E17 (extension) — the serving layer: session knee, shards, loopback.

Three tables over :mod:`repro.serve`, all with per-session costs pinned
to the single-hub oracle (serving must change speed, never answers):

* **sessions knee** — one hub shard advances fleets from tens to
  hundreds/thousands of sessions across universe widths; E16's hub
  table stopped at 64 sessions, this one follows aggregate steps/s to
  the memory-bandwidth knee (`repro bench --sessions N` extends the
  axis further);
* **shard scaling** — the same calm-phase workload through 1/2/4
  shards (one in-process shard; N > 1 process shards).  Scaling is
  machine-bound: a box with one usable core *cannot* speed up, so the
  ≥2× (1 → 4 shards) acceptance assertion arms only when the machine
  actually has ≥4 cores (the table itself prints everywhere, and the
  bit-identical cost assertion always holds);
* **loopback requests/s** — a live :class:`StreamServer` per shard
  count, driven by the :mod:`repro.serve.loadgen` client fleet over
  real TCP connections, with oracle verification on.
"""

import os
import time

from repro.core.packed import masks_to_lanes
from repro.core.switches import SwitchUniverse
from repro.engine.metrics import DETERMINISTIC_FAMILIES
from repro.obs.histogram import Histogram
from repro.serve.client import ServeClient
from repro.serve.loadgen import drifting_masks, run_loadgen
from repro.serve.server import ServeConfig, ServerThread
from repro.serve.shard import ShardPool, shard_kind
from repro.solvers.online import RentOrBuyScheduler, WindowScheduler
from repro.util.texttable import format_table

#: Shard-scaling acceptance: ≥2× aggregate steps/s from 1 to 4 shards
#: on the calm-phase workload — armed when the machine has the cores to
#: show it (a 1-core box physically cannot).
SCALING_SHARDS = 4
MIN_SCALING = 2.0


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-POSIX
        return os.cpu_count() or 1


def _fleet(width: int, sessions: int, steps: int, *, phase: int):
    return {
        f"u{s}": masks_to_lanes(
            drifting_masks(width, steps, seed=s, phase=phase), width
        )
        for s in range(sessions)
    }


def _mixed_scheduler(s: int, w: float):
    return (
        RentOrBuyScheduler(w, alpha=1.0, memory=4)
        if s % 2 == 0
        else WindowScheduler(k=16)
    )


def test_bench_serve_sessions_knee(
    benchmark, smoke, sessions_axis, bench_artifact
):
    """Aggregate steps/s of one hub shard as the fleet grows."""
    per_session = 400 if smoke else 1_500
    chunk = 512
    fleets = [16, 64] if smoke else [64, 256, 1024]
    if sessions_axis:
        fleets = sorted({*fleets, sessions_axis})
    widths = [96] if smoke else [96, 256]

    rows = []
    trajectory = []
    for width in widths:
        universe = SwitchUniverse.of_size(width)
        w = float(width)
        for sessions in fleets:
            feeds = _fleet(width, sessions, per_session, phase=150)
            with ShardPool(1) as pool:
                for s, sid in enumerate(feeds):
                    pool.open(
                        _mixed_scheduler(s, w), universe, w, session_id=sid
                    )
                t0 = time.perf_counter()
                for lo in range(0, per_session, chunk):
                    pool.feed_many({
                        sid: lanes[lo : lo + chunk]
                        for sid, lanes in feeds.items()
                    })
                elapsed = time.perf_counter() - t0
                runs = pool.finish_all()
            assert len(runs) == sessions
            total = sessions * per_session
            rows.append([
                width,
                sessions,
                total,
                round(1e3 * elapsed, 1),
                f"{total / elapsed:,.0f}",
            ])
            trajectory.append({
                "width": width,
                "sessions": sessions,
                "steps_per_s": total / elapsed,
            })
    bench_artifact.record("e17", "sessions_knee", trajectory)

    def once():
        width = widths[0]
        universe = SwitchUniverse.of_size(width)
        with ShardPool(1) as pool:
            sid = pool.open(
                RentOrBuyScheduler(float(width)), universe, float(width)
            )
            pool.feed_many({
                sid: masks_to_lanes(
                    drifting_masks(width, chunk, seed=99), width
                )
            })
            return pool.finish(sid).cost

    benchmark.pedantic(once, iterations=1, rounds=1)

    print()
    print(format_table(
        ["|U|", "sessions", "total steps", "wall ms", "steps/s"],
        rows,
        title=f"E17: sessions knee, one hub shard "
              f"({per_session} steps/session)",
    ))


def test_bench_serve_shard_scaling(benchmark, smoke, bench_artifact):
    """Calm-phase workload across 1/2/4 shards."""
    width = 256
    per_session = 1_000 if smoke else 4_000
    sessions = 16 if smoke else 32
    chunk = 2_000
    universe = SwitchUniverse.of_size(width)
    w = float(width)
    feeds = _fleet(width, sessions, per_session, phase=600)
    cores = _usable_cores()

    rows = []
    trajectory = []
    reference_costs = None
    reference_hists = None
    rates: dict[int, float] = {}
    for shards in (1, 2, SCALING_SHARDS):
        with ShardPool(shards) as pool:
            for sid in feeds:
                pool.open(
                    RentOrBuyScheduler(w, alpha=2.0, memory=8),
                    universe,
                    w,
                    session_id=sid,
                )
            t0 = time.perf_counter()
            for lo in range(0, per_session, chunk):
                pool.feed_many({
                    sid: lanes[lo : lo + chunk]
                    for sid, lanes in feeds.items()
                })
            elapsed = time.perf_counter() - t0
            runs = pool.finish_all()
            merged = pool.merged_histograms()
        costs = {sid: run.cost for sid, run in runs.items()}
        hists = {
            name: merged[name].aggregate()
            for name in DETERMINISTIC_FAMILIES
        }
        # Shard placement must never change an answer — nor a
        # distribution: every pool shape's merged deterministic
        # histograms are bit-identical to the 1-shard (single-hub)
        # aggregates for the same traffic.
        if reference_costs is None:
            reference_costs, reference_hists = costs, hists
        else:
            assert costs == reference_costs
            assert hists == reference_hists
        total = sessions * per_session
        rates[shards] = rate = total / elapsed
        rows.append([
            shard_kind(shards),
            shards,
            round(1e3 * elapsed, 1),
            f"{rate:,.0f}",
        ])
        trajectory.append({
            "kind": shard_kind(shards),
            "shards": shards,
            "steps_per_s": rate,
        })
    bench_artifact.record("e17", "shard_scaling", trajectory)

    def once():
        with ShardPool(2) as pool:
            sid = pool.open(RentOrBuyScheduler(w), universe, w)
            pool.feed_many({sid: next(iter(feeds.values()))[:chunk]})
            return pool.finish(sid).cost

    benchmark.pedantic(once, iterations=1, rounds=1)

    scaling = rates[SCALING_SHARDS] / rates[1]
    print()
    print(format_table(
        ["shard kind", "shards", "wall ms", "steps/s"],
        rows,
        title=f"E17: shard scaling, calm phases "
              f"({sessions} sessions × {per_session} steps, "
              f"{cores} usable core(s), 1→{SCALING_SHARDS} shards "
              f"{scaling:.2f}×)",
    ))
    if not smoke and cores >= SCALING_SHARDS:
        assert scaling >= MIN_SCALING
    elif cores < SCALING_SHARDS:
        print(f"(scaling assertion idle: {cores} usable core(s) "
              f"cannot express {SCALING_SHARDS}-way parallelism)")


def test_bench_serve_loopback_requests(benchmark, smoke, bench_artifact):
    """Requests/s through live TCP serving, verified per session.

    Each shard count runs under both wire protocols — v1 JSON frames
    and v3 binary lane frames (byte-shuffled and deflated, pipelined:
    one ``feed_many`` frame per burst) — so the table shows what the
    binary protocol buys in bytes-on-wire and server decode CPU at
    identical, oracle-verified answers.  Acceptance: the binary
    protocol puts at most half of v1's request bytes on the wire.
    """
    sessions = 24 if smoke else 128
    steps = 240 if smoke else 1_000
    chunk = 120 if smoke else 250
    clients = 8
    shard_counts = [1, 2] if smoke else [1, 2, 4]
    protos = [("json", False), ("bin", True)]

    rows = []
    trajectory = []
    bytes_out: dict[tuple[int, str], int] = {}
    for shards in shard_counts:
        for proto, pipeline in protos:
            config = ServeConfig(shards=shards, max_sessions=sessions + 8)
            with ServerThread(config) as (host, port):
                result = run_loadgen(
                    host,
                    port,
                    sessions=sessions,
                    steps=steps,
                    chunk=chunk,
                    width=96,
                    clients=clients,
                    verify=True,  # oracle equality on every session
                    proto=proto,
                    pipeline=pipeline,
                )
                # Server-side view of the same traffic: merged
                # drain-cycle histogram over all shards plus the
                # per-protocol decode-CPU counters, over the wire.
                with ServeClient(host, port) as probe:
                    telemetry = probe.metrics()
                    wire = telemetry["histograms"]
                    decode_s = telemetry["metrics"]["engine"]["wire"][
                        proto
                    ]["decode_s"]
                    stream = telemetry["metrics"]["engine"]["stream"]
            drain = Histogram.from_wire_aggregate(
                wire.get("drain_cycle_seconds")
            )
            assert result.verified is True
            # Client and server measure the same requests with the
            # same histogram type; a drain cycle is a strict
            # sub-interval of a feed round trip.
            lat = result.latency
            assert lat.count >= result.sessions
            assert drain.count > 0
            bytes_out[(shards, proto)] = result.bytes_out
            ms = 1e3
            rows.append([
                shards,
                shard_kind(shards),
                proto,
                result.sessions,
                result.frames,
                round(result.wall_s, 2),
                f"{result.frames_per_s:,.0f}",
                f"{result.steps_per_s:,.0f}",
                f"{result.bytes_out:,}",
                f"{decode_s * ms:.1f}",
                f"{lat.p50 * ms:.1f} / {lat.p95 * ms:.1f} "
                f"/ {lat.p99 * ms:.1f}",
                f"{drain.p50 * ms:.1f} / {drain.p95 * ms:.1f} "
                f"/ {drain.p99 * ms:.1f}",
                f"{stream['fused_fraction']:.1%}",
            ])
            trajectory.append({
                "shards": shards,
                "kind": shard_kind(shards),
                "proto": proto,
                "sessions": result.sessions,
                # Requests/s; the key stays, so the regression guard
                # compares like with like against older artifacts.
                "frames_per_s": result.frames_per_s,
                "steps_per_s": result.steps_per_s,
                "fused_fraction": stream["fused_fraction"],
            })
    bench_artifact.record("e17", "loopback_requests", trajectory)

    # Wire-protocol acceptance: identical traffic, ≥2× fewer request
    # bytes under the binary protocol at every shard count.
    for shards in shard_counts:
        assert bytes_out[(shards, "bin")] * 2 <= bytes_out[(shards, "json")]

    def once():
        with ServerThread(ServeConfig(shards=1)) as (host, port):
            return run_loadgen(
                host, port, sessions=4, steps=60, chunk=30, clients=2
            ).frames

    benchmark.pedantic(once, iterations=1, rounds=1)

    print()
    print(format_table(
        ["shards", "kind", "proto", "sessions", "requests", "wall s",
         "requests/s",
         "steps/s", "req bytes", "decode ms",
         "client p50/p95/p99 ms", "drain p50/p95/p99 ms", "fused %"],
        rows,
        title=f"E17: loopback serving, {clients} clients, "
              f"chunk={chunk} (costs verified vs single hub; "
              f"bin = one binary feed_many frame per pipelined burst, "
              f"raw or shuffled+deflated section; "
              f"requests = opens + feed chunks + closes)",
    ))
