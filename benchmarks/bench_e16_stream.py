"""E16 (extension) — lane-packed streaming vs the scalar cursor path.

The online stack (``repro.solvers.online`` + ``repro.engine.stream``)
runs on batched lane-packed cursors; the scalar cursors remain the
correctness oracle.  This bench measures what the packed path buys and
proves it changes speed, never answers:

* **single session** — drifting-working-set streams are fed to a
  scalar-cursor :class:`~repro.engine.stream.StreamSession` step by
  step and to a packed session in ``feed_many`` chunks, across phase
  lengths from hectic (a drift every 60 steps) to calm (every 600);
  costs must be *bit-identical* everywhere, and on the acceptance cell
  (n ≥ 10k, 600-step phases — the stable-phase regime online policies
  are built for) the packed path must be ≥5× faster for both policies.
  The hectic cells are reported too: segments shrink toward a handful
  of steps there and the NumPy dispatch amortizes worse — that
  honesty row is the point of the table;
* **many sessions** — a :class:`~repro.engine.stream.StreamHub`
  multiplexes 1…64 concurrent sessions with mixed policies; the table
  reports aggregate steps/sec as the fleet grows.
"""

import time

import numpy as np
import pytest

from repro.core.context import RequirementSequence
from repro.core.packed import masks_to_lanes
from repro.core.switches import SwitchUniverse
from repro.engine.stream import StreamHub, StreamSession
from repro.solvers.online import (
    RentOrBuyScheduler,
    ScalarOnly,
    WindowScheduler,
)
from repro.util.rng import make_rng
from repro.util.texttable import format_table

#: Single-session acceptance: packed ≥ 5× scalar steps/sec at n ≥ 10k
#: on the calm-phase cell (a working-set drift every TARGET_PHASE steps).
TARGET_N = 10_000
TARGET_PHASE = 600
MIN_SPEEDUP = 5.0


def _drifting_masks(
    width: int,
    n: int,
    seed,
    *,
    phase: int = 150,
    noise: float = 0.003,
    offset: int = 0,
) -> list[int]:
    """A phased stream: a ~12-switch working set that drifts every
    ``phase`` steps, plus occasional noise bits — the regime online
    policies are built for (stable phases, abrupt changes).  ``offset``
    staggers the drift boundary (a fleet of real sessions is not
    phase-locked; the fused-hub bench gives each session its own)."""
    rng = make_rng(seed)
    masks = []
    working = set(int(x) for x in rng.choice(width, size=12, replace=False))
    for i in range(n):
        if i % phase == offset % phase and i > offset % phase:
            drop = min(len(working), int(rng.integers(3, 7)))
            for s in list(rng.permutation(sorted(working))[:drop]):
                working.discard(int(s))
            while len(working) < 12:
                working.add(int(rng.integers(0, width)))
        subset = rng.random(len(working)) < 0.7
        mask = 0
        for keep, switch in zip(subset, sorted(working)):
            if keep:
                mask |= 1 << switch
        if rng.random() < noise:
            mask |= 1 << int(rng.integers(0, width))
        masks.append(mask)
    return masks


def test_bench_stream_single_session(benchmark, smoke):
    width = 96  # two lanes
    n = 2_000 if smoke else TARGET_N
    chunk = 2_048
    phases = [60, TARGET_PHASE] if smoke else [60, 150, TARGET_PHASE]
    min_speedup = 1.5 if smoke else MIN_SPEEDUP  # smoke: noise head room
    universe = SwitchUniverse.of_size(width)
    w = float(width)

    rows = []
    accept = {}
    for phase in phases:
        masks = _drifting_masks(width, n, seed=0, phase=phase, noise=0.001)
        lanes = masks_to_lanes(masks, width)
        for scheduler in (
            RentOrBuyScheduler(w, alpha=2.0, memory=8),
            WindowScheduler(k=64),
        ):
            # Best of three runs per path: the ratio of two noisy
            # timings is itself noisy, and minima are the standard
            # stabilizer for throughput micro-benchmarks.
            scalar_s = float("inf")
            for _rep in range(3):
                scalar = StreamSession(ScalarOnly(scheduler), universe, w)
                t0 = time.perf_counter()
                for mask in masks:
                    scalar.feed(mask)
                scalar_s = min(scalar_s, time.perf_counter() - t0)
            packed_s = float("inf")
            for _rep in range(3):
                packed = StreamSession(scheduler, universe, w)
                t0 = time.perf_counter()
                for lo in range(0, n, chunk):
                    packed.feed_many(lanes[lo : lo + chunk])
                packed_s = min(packed_s, time.perf_counter() - t0)

            # Bit-identical accounting — the packed path changes
            # speed, never answers.
            run_scalar = scalar.finish()
            assert packed.finish() == run_scalar

            if phase == TARGET_PHASE:
                accept[scheduler.name] = scalar_s / packed_s
            rows.append([
                scheduler.name,
                phase,
                run_scalar.hypers,
                round(1e6 * scalar_s / n, 2),
                round(1e6 * packed_s / n, 2),
                f"{scalar_s / packed_s:.1f}×",
            ])

    masks = _drifting_masks(
        width, n, seed=0, phase=TARGET_PHASE, noise=0.001
    )
    lanes = masks_to_lanes(masks, width)

    def once():
        session = StreamSession(
            RentOrBuyScheduler(w, alpha=2.0, memory=8), universe, w
        )
        for lo in range(0, n, chunk):
            session.feed_many(lanes[lo : lo + chunk])
        return session.cost

    benchmark.pedantic(once, iterations=1, rounds=1)

    print()
    print(format_table(
        ["policy", "phase len", "hypers", "scalar µs/step",
         "packed µs/step", "speedup"],
        rows,
        title=f"E16: packed vs scalar streaming session "
              f"(n={n}, chunk={chunk})",
    ))
    assert min(accept.values()) >= min_speedup


def test_bench_stream_hub_many_sessions(
    benchmark, smoke, sessions_axis, bench_artifact
):
    width = 96
    per_session = 500 if smoke else 2_000
    fleet_sizes = [1, 4, 8] if smoke else [1, 8, 16, 64]
    if sessions_axis:
        fleet_sizes = sorted({*fleet_sizes, sessions_axis})
    chunk = 512
    universe = SwitchUniverse.of_size(width)
    w = float(width)

    rows = []
    trajectory = []
    for fleet in fleet_sizes:
        hub = StreamHub()
        feeds = {}
        for s in range(fleet):
            scheduler = (
                RentOrBuyScheduler(w, alpha=1.0, memory=4)
                if s % 2 == 0
                else WindowScheduler(k=16)
            )
            sid = hub.open(scheduler, universe, w, session_id=f"u{s}")
            feeds[sid] = masks_to_lanes(
                _drifting_masks(width, per_session, seed=s), width
            )
        t0 = time.perf_counter()
        for lo in range(0, per_session, chunk):
            hub.feed_many(
                {sid: lanes[lo : lo + chunk] for sid, lanes in feeds.items()}
            )
        elapsed = time.perf_counter() - t0
        runs = hub.finish_all()
        assert len(runs) == fleet
        total = fleet * per_session
        assert hub.metrics.stream_steps == total
        rows.append([
            fleet,
            total,
            f"{hub.hyper_rate:.1%}",
            round(1e3 * elapsed, 1),
            f"{total / elapsed:,.0f}",
        ])
        trajectory.append({
            "sessions": fleet,
            "chunk": chunk,
            "steps_per_s": total / elapsed,
            "fused_fraction": hub.metrics.stream_fused_fraction,
        })
    bench_artifact.record("e16", "hub_many_sessions", trajectory)

    def once():
        hub = StreamHub()
        sid = hub.open(
            RentOrBuyScheduler(w, alpha=1.0, memory=4), universe, w
        )
        hub.feed_many(
            {sid: masks_to_lanes(_drifting_masks(width, chunk, seed=99), width)}
        )
        return hub.finish(sid).cost

    benchmark.pedantic(once, iterations=1, rounds=1)

    print()
    print(format_table(
        ["sessions", "total steps", "hyper rate", "wall ms", "steps/s"],
        rows,
        title="E16: StreamHub aggregate throughput (mixed policies)",
    ))


#: Fused-hub acceptance, calm regime: fused sweep ≥ 3× the sequential
#: per-session hub loop at 256 sessions × 64-step chunks (≥ 2× in smoke
#: mode, where the fleet is smaller and fixed costs amortize worse).
FUSED_MIN_SPEEDUP = 3.0
FUSED_MIN_SPEEDUP_SMOKE = 2.0
#: Hectic regime: drifts land inside nearly every chunk, so the kernel
#: lives in batched trigger replay rather than the quiet fast path; the
#: floor is lower but the per-session loop must still lose at fleet
#: scale.
FUSED_MIN_SPEEDUP_HECTIC = 2.0
FUSED_MIN_SPEEDUP_HECTIC_SMOKE = 1.2


@pytest.mark.parametrize("regime", ["calm", "hectic"])
def test_bench_stream_fused_hub(
    benchmark, smoke, sessions_axis, bench_artifact, regime
):
    """Fused multi-cursor sweep vs the per-session hub loop.

    One ``StreamHub`` serves a fleet of mixed-policy sessions in
    64-step drain cycles — the serving-shard shape, where the
    per-session Python loop (not the lane math) is the bottleneck.
    The fused path stacks same-shape cursors into ``(S, C, L)`` blocks
    and advances the whole fleet epoch by epoch: a vectorized scan
    finds each session's next trigger, all due installs resolve in one
    batched replay pass, and the sweep resumes from per-session
    offsets.  Drift boundaries are staggered per session, so trigger
    cost spreads across cycles the way unsynchronized fleets spread it.

    The *calm* regime (drift every ~19 chunks) measures the quiet fast
    path; the *hectic* regime (a drift inside nearly every chunk)
    measures batched trigger replay, the cell the old quiet-only sweep
    surrendered to the per-session fallback.

    Speed changes, answers never: both hubs must produce identical
    per-session costs, and every session is cross-checked against the
    step-by-step scalar oracle.
    """
    width = 96
    chunk = 64
    fleet = 64 if smoke else 256
    rounds = 8 if smoke else 24
    if regime == "calm":
        phase = 450 if smoke else 1200
        window_k = 512 if smoke else 1024
        alpha = 6.0
        min_speedup = FUSED_MIN_SPEEDUP_SMOKE if smoke else FUSED_MIN_SPEEDUP
    else:
        phase = 48
        window_k = 32
        alpha = 2.0
        min_speedup = (
            FUSED_MIN_SPEEDUP_HECTIC_SMOKE if smoke
            else FUSED_MIN_SPEEDUP_HECTIC
        )
    if sessions_axis:
        fleet = max(fleet, sessions_axis)
    steps = chunk * (rounds + 1)  # one untimed warmup round
    universe = SwitchUniverse.of_size(width)
    w = float(width)

    mask_traces = {
        f"u{s}": _drifting_masks(
            width, steps, seed=s, phase=phase, noise=3e-4,
            offset=(s * 131) % phase,
        )
        for s in range(fleet)
    }
    lane_traces = {
        sid: masks_to_lanes(masks, width)
        for sid, masks in mask_traces.items()
    }

    def scheduler_for(s):
        if s % 4 == 3:
            return WindowScheduler(k=window_k)
        return RentOrBuyScheduler(w, alpha=alpha, memory=8)

    def run_fused():
        hub = StreamHub()
        for s, sid in enumerate(lane_traces):
            hub.open(scheduler_for(s), universe, w, session_id=sid)
        hub.feed_many(
            {sid: ln[:chunk] for sid, ln in lane_traces.items()}
        )
        t0 = time.perf_counter()
        for r in range(1, rounds + 1):
            lo = r * chunk
            hub.feed_many(
                {sid: ln[lo:lo + chunk] for sid, ln in lane_traces.items()}
            )
        elapsed = time.perf_counter() - t0
        assert hub.total_steps == fleet * steps  # O(1) running counters
        costs = {sid: r.cost for sid, r in hub.finish_all().items()}
        return fleet * chunk * rounds / elapsed, costs, hub.metrics

    def run_sequential():
        """The baseline: bare sessions fed back to back, chunk by chunk
        (each chunk one ``sweep_many`` call at S = 1)."""
        sessions = {
            sid: StreamSession(scheduler_for(s), universe, w)
            for s, sid in enumerate(lane_traces)
        }
        for sid, session in sessions.items():
            session.feed_many(lane_traces[sid][:chunk])
        t0 = time.perf_counter()
        for r in range(1, rounds + 1):
            lo = r * chunk
            for sid, session in sessions.items():
                session.feed_many(lane_traces[sid][lo:lo + chunk])
        elapsed = time.perf_counter() - t0
        costs = {sid: session.cost for sid, session in sessions.items()}
        return fleet * chunk * rounds / elapsed, costs

    # Best of three per path — ratios of noisy timings are noisy.
    seq_rate = fused_rate = 0.0
    for _rep in range(3):
        rate, seq_costs = run_sequential()
        seq_rate = max(seq_rate, rate)
        rate, fused_costs, fused_metrics = run_fused()
        fused_rate = max(fused_rate, rate)
    assert fused_costs == seq_costs
    fused_n = fused_metrics.stream_fused
    fallback_n = fused_metrics.stream_fused_fallback
    # Epoch replay keeps every eligible chunk inside the kernel.
    assert fused_n == fleet * (rounds + 1)
    assert fallback_n == 0
    fraction = fused_metrics.stream_fused_fraction
    epochs_n = fused_metrics.stream_replay_epochs
    triggers_n = fused_metrics.stream_replay_triggers
    if regime == "hectic":
        # Hectic phases must actually exercise batched replay.
        assert triggers_n > fleet * rounds // 2

    # The scalar oracle replays every session one mask at a time —
    # per-session costs must be bit-identical on the benchmarked shape.
    for s, (sid, masks) in enumerate(mask_traces.items()):
        oracle = StreamSession(
            ScalarOnly(scheduler_for(s)), universe, w
        )
        for mask in masks:
            oracle.feed(mask)
        assert oracle.cost == fused_costs[sid]

    def once():
        hub = StreamHub()
        for s, sid in enumerate(lane_traces):
            hub.open(scheduler_for(s), universe, w, session_id=sid)
        hub.feed_many(
            {sid: ln[:chunk] for sid, ln in lane_traces.items()}
        )
        return hub.total_steps

    benchmark.pedantic(once, iterations=1, rounds=1)

    speedup = fused_rate / seq_rate
    bench_artifact.record("e16", "fused_hub", [{
        "regime": regime,
        "sessions": fleet,
        "chunk": chunk,
        "rounds": rounds,
        "seq_steps_per_s": seq_rate,
        "fused_steps_per_s": fused_rate,
        "speedup": speedup,
        "fused_fraction": fraction,
        "replay_epochs": epochs_n,
        "replay_triggers": triggers_n,
    }])
    print()
    print(format_table(
        ["regime", "sessions", "chunk", "seq steps/s", "fused steps/s",
         "speedup", "fused %", "epochs", "triggers"],
        [[
            regime,
            fleet,
            chunk,
            f"{seq_rate:,.0f}",
            f"{fused_rate:,.0f}",
            f"{speedup:.2f}×",
            f"{fraction:.1%}",
            epochs_n,
            triggers_n,
        ]],
        title="E16: fused epoch sweep vs bare sessions back to back "
              f"(mixed policies, staggered drift every {phase} steps)",
    ))
    assert speedup >= min_speedup


#: Kernel crossover grid: stack sizes × chunk lengths at which the
#: epoch kernel and the galloping per-cursor kernel are timed against
#: each other (``SMALL_STACK_SESSIONS`` is set from this table).
CROSSOVER_SESSIONS = (1, 2, 4, 8, 16, 32)
CROSSOVER_CHUNKS = (64, 256)


@pytest.mark.parametrize("regime", ["calm", "hectic"])
def test_bench_kernel_crossover(
    benchmark, smoke, bench_artifact, monkeypatch, regime
):
    """Epoch kernel vs the galloping per-cursor kernel across (S, C).

    ``sweep_many`` serves a group of at most ``SMALL_STACK_SESSIONS``
    sessions with each cursor's galloping kernel (``step_many``)
    instead of the epoch kernel.  This grid times both plans on the
    same rent-or-buy fleet of ``S`` sessions fed ``C``-step chunks: the
    threshold is pinned to 0 (always the epoch kernel) and to ``S``
    (always the per-cursor kernel), best of a few alternating runs
    each.  A calm fleet drifts every 600 steps, a hectic one every 48,
    staggered per session.  Both plans must produce identical costs;
    the ``speedup`` column (epoch over per-cursor) locates the
    crossover.
    """
    from repro.solvers import online

    width = 96
    w = float(width)
    phase = 600 if regime == "calm" else 48
    cell_steps = 2**13 if smoke else 2**17
    reps = 2 if smoke else 5
    universe = SwitchUniverse.of_size(width)
    smax = max(CROSSOVER_SESSIONS)

    def rounds_for(S, chunk):
        return max(2, cell_steps // (S * chunk))

    # Session s needs enough steps for every cell whose stack holds it.
    need = [
        max(
            chunk * (rounds_for(S, chunk) + 1)
            for S in CROSSOVER_SESSIONS if S > s
            for chunk in CROSSOVER_CHUNKS
        )
        for s in range(smax)
    ]
    lanes = [
        masks_to_lanes(
            _drifting_masks(
                width, need[s], seed=s, phase=phase,
                offset=(s * 131) % phase,
            ),
            width,
        )
        for s in range(smax)
    ]

    def run(S, chunk, threshold):
        monkeypatch.setattr(online, "SMALL_STACK_SESSIONS", threshold)
        rounds = rounds_for(S, chunk)
        hub = StreamHub()
        sids = [
            hub.open(
                RentOrBuyScheduler(w, alpha=2.0, memory=8), universe, w
            )
            for _ in range(S)
        ]
        hub.feed_many({sid: lanes[s][:chunk] for s, sid in enumerate(sids)})
        t0 = time.perf_counter()
        for r in range(1, rounds + 1):
            lo = r * chunk
            hub.feed_many({
                sid: lanes[s][lo:lo + chunk] for s, sid in enumerate(sids)
            })
        elapsed = time.perf_counter() - t0
        costs = [hub.finish(sid).cost for sid in sids]
        return S * chunk * rounds / elapsed, costs

    rows = []
    table = []
    for chunk in CROSSOVER_CHUNKS:
        for S in CROSSOVER_SESSIONS:
            fused = per_cursor = 0.0
            for _rep in range(reps):
                rate, fused_costs = run(S, chunk, 0)
                fused = max(fused, rate)
                rate, solo_costs = run(S, chunk, S)
                per_cursor = max(per_cursor, rate)
            assert fused_costs == solo_costs
            rows.append({
                "regime": regime,
                "sessions": S,
                "chunk": chunk,
                "rounds": rounds_for(S, chunk),
                "fused_steps_per_s": fused,
                "per_cursor_steps_per_s": per_cursor,
                "speedup": fused / per_cursor,
            })
            table.append([
                S, chunk, f"{fused:,.0f}", f"{per_cursor:,.0f}",
                f"{fused / per_cursor:.2f}×",
            ])

    benchmark.pedantic(
        lambda: run(4, 64, 0), iterations=1, rounds=1
    )
    bench_artifact.record("e16", "kernel_crossover", rows)
    print()
    print(format_table(
        ["sessions", "chunk", "epoch steps/s", "per-cursor steps/s",
         "speedup"],
        table,
        title=f"E16: epoch kernel vs per-cursor kernel ({regime}, "
              f"rent-or-buy, drift every {phase} steps)",
    ))


def test_bench_scan_bounds_sweep(
    benchmark, smoke, bench_artifact, monkeypatch
):
    """Galloping-scan bound sweep — tune the scan with data.

    A lone session's chunk runs the galloping per-cursor kernel, whose
    scan doubles from ``_SCAN_MIN`` up to ``_SCAN_MAX`` (class
    constants of the rent-or-buy cursor, set here per cell); those
    bounds set the per-segment cost.  The sweep runs a hectic stream (the
    trigger-heavy regime where the scan restarts often) and a calm one
    across bound settings: costs must be identical everywhere — the
    scan is a search strategy, never an answer — and the table shows
    what each setting costs per step so the defaults are an informed
    choice, not a guess.
    """
    width = 96
    n = 2_000 if smoke else 10_000
    chunk = 64
    reps = 2 if smoke else 3
    universe = SwitchUniverse.of_size(width)
    w = float(width)
    grid = [(1, 64), (8, 512), (32, 2048), (128, 4096), (512, 4096)]
    cursor_cls = type(RentOrBuyScheduler(w).batched_cursor(width))

    rows = []
    trajectory = []
    for phase in (60, 600):
        masks = _drifting_masks(width, n, seed=3, phase=phase, noise=0.001)
        lanes = masks_to_lanes(masks, width)
        baseline_cost = None
        for scan_min, scan_max in grid:
            monkeypatch.setattr(cursor_cls, "_SCAN_MIN", scan_min)
            monkeypatch.setattr(cursor_cls, "_SCAN_MAX", scan_max)
            best = float("inf")
            for _rep in range(reps):
                session = StreamSession(
                    RentOrBuyScheduler(w, alpha=2.0, memory=8),
                    universe, w,
                )
                t0 = time.perf_counter()
                for lo in range(0, n, chunk):
                    session.feed_many(lanes[lo:lo + chunk])
                best = min(best, time.perf_counter() - t0)
            if baseline_cost is None:
                baseline_cost = session.cost
            assert session.cost == baseline_cost
            rows.append([
                phase,
                scan_min,
                scan_max,
                round(1e6 * best / n, 2),
            ])
            trajectory.append({
                "phase": phase,
                "scan_min": scan_min,
                "scan_max": scan_max,
                "us_per_step": 1e6 * best / n,
            })

    def once():
        monkeypatch.setattr(cursor_cls, "_SCAN_MIN", 1)
        monkeypatch.setattr(cursor_cls, "_SCAN_MAX", 64)
        session = StreamSession(
            RentOrBuyScheduler(w, alpha=2.0, memory=8), universe, w,
        )
        session.feed_many(masks_to_lanes(
            _drifting_masks(width, chunk, seed=3), width
        ))
        return session.cost

    benchmark.pedantic(once, iterations=1, rounds=1)

    bench_artifact.record("e16", "scan_bounds", trajectory)
    print()
    print(format_table(
        ["phase len", "scan_min", "scan_max", "µs/step"],
        rows,
        title=f"E16: galloping scan bounds sweep (n={n}, chunk={chunk}, "
              "identical costs everywhere)",
    ))

