"""hub_hectic: ``StreamHub.feed_many`` called directly, trigger-dense.

256 sessions (3/4 ``RentOrBuyScheduler(alpha=2, memory=8)``, 1/4
``WindowScheduler(k=32)``) at width 96 take 64-step chunks of a stream
that drifts every 48 steps, at a per-session offset, so a drift lands
inside nearly every chunk.  No socket, protocol or server is involved:
the time goes to trigger-replay epochs and batched installs.

A run is a sequence of identical passes for ``seconds`` of wall time.
Each pass builds a fresh hub, opens the fleet and feeds one untimed
warm-up round (its set-up), then times ``ROUNDS`` rounds of one
``feed_many`` over every session.  Per-session state grows with the
steps served, so fixed-size passes keep memory independent of speed.
After every pass a fixed sample of sessions is checked against the
step-by-step scalar oracle (``StreamSession(ScalarOnly(...))``),
computed once per run.  Rates and round latencies are taken at the
speed of the quietest blocks of ``BLOCK`` rounds
(``common.quiet_blocks``).
"""

from __future__ import annotations

import time

import numpy as np

import inputs
import layers
from common import (
    Outcome, median, percentiles, quiet_blocks, self_peak_rss_mb,
)
from spans import SpanTracer

SESSIONS = 256
WIDTH = 96
CHUNK = 64
PHASE = 48
STAGGER = 131
NOISE = 3e-4
ROUNDS = 96
#: Consecutive rounds scored together by ``quiet_blocks``, and the
#: share of blocks kept.
BLOCK, QUIET_SHARE = 4, 0.1
#: Sessions re-checked against the scalar oracle after every pass
#: (indices 3 mod 4 run the window policy).
ORACLE_SAMPLE = (0, 3, 62, 101, 131, 160, 219, 255)


def _scheduler(s: int, w: float):
    from repro.solvers.online import RentOrBuyScheduler, WindowScheduler

    if s % 4 == 3:
        return WindowScheduler(k=32)
    return RentOrBuyScheduler(w, alpha=2.0, memory=8)


def _oracle_cost(s: int, lanes: np.ndarray, universe, w: float) -> float:
    from repro.core.packed import lanes_to_masks
    from repro.engine.stream import StreamSession
    from repro.solvers.online import ScalarOnly

    oracle = StreamSession(ScalarOnly(_scheduler(s, w)), universe, w)
    for mask in lanes_to_masks(lanes):
        oracle.feed(mask)
    return oracle.cost


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.core.switches import SwitchUniverse
    from repro.engine.stream import StreamHub

    out = Outcome()
    universe = SwitchUniverse.of_size(WIDTH)
    w = float(WIDTH)
    steps = CHUNK * (ROUNDS + 1)
    fleet = inputs.fleet_lanes(
        seed, SESSIONS, WIDTH, steps, phase=PHASE, noise=NOISE,
        stagger=STAGGER,
    )
    ids = [f"u{s}" for s in range(SESSIONS)]
    rounds = [
        {sid: fleet[s][r * CHUNK:(r + 1) * CHUNK] for s, sid in enumerate(ids)}
        for r in range(ROUNDS + 1)
    ]
    oracle = {
        s: _oracle_cost(s, fleet[s], universe, w) for s in ORACLE_SAMPLE
    }
    baseline = [inputs.single_context_cost(lanes, w) for lanes in fleet]
    out.record["input_digest"] = inputs.digest(*fleet)

    tracer = SpanTracer()
    passes = []  # one dict per pass
    plain_rounds: list[list[float]] = []  # round latencies per pass
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(passes) < 2:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        hub = StreamHub()
        for s, sid in enumerate(ids):
            hub.open(_scheduler(s, w), universe, w, session_id=sid)
        hub.feed_many(rounds[0])
        setup = time.perf_counter() - t0
        out.attempt("feed", count=SESSIONS)
        if traced:
            layers.patch_kernel(tracer)
        pass_lat = []
        start = time.perf_counter()
        for chunks in rounds[1:]:
            t0 = time.perf_counter()
            hub.feed_many(chunks)
            pass_lat.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
        if traced:
            tracer.restore()
        out.attempt("feed", count=SESSIONS * ROUNDS)
        if not traced:
            plain_rounds.append(pass_lat)
        stream = hub.metrics.snapshot()["stream"]
        for s in ORACLE_SAMPLE:
            ok = hub.session(ids[s]).cost == oracle[s]
            out.attempt("oracle_check", ok)
        out.attempt("step_count", hub.total_steps == SESSIONS * steps)
        passes.append({
            "traced": traced,
            "setup_s": setup,
            "wall_s": wall,
            "mean_cost": float(np.mean([
                hub.session(sid).cost / baseline[s]
                for s, sid in enumerate(ids)
            ])),
            "replay_epochs": stream["replay_epochs"],
            "replay_triggers": stream["replay_triggers"],
            "fused_fraction": stream["fused_fraction"],
        })
        del hub  # free this pass's sessions before the next pass

    # Every pass served identical inputs: its counts must repeat.
    first = passes[0]
    for p in passes[1:]:
        same = all(
            p[key] == first[key]
            for key in ("mean_cost", "replay_epochs", "replay_triggers")
        )
        out.attempt("pass_repeat", same)

    timed_steps = SESSIONS * CHUNK * ROUNDS
    rates = [timed_steps / p["wall_s"] for p in passes if not p["traced"]]
    quiet, factor = quiet_blocks(plain_rounds, BLOCK, QUIET_SHARE)
    p50, p95 = percentiles(quiet, 50, 95)
    out.record.update({
        "passes": len(passes),
        "rounds_per_pass": ROUNDS,
        "round_samples": len(plain_rounds) * ROUNDS,
        "quiet_factor": factor,
        "setup_samples": len(passes),
        "replay_epochs_per_pass": first["replay_epochs"],
        "replay_triggers_per_pass": first["replay_triggers"],
        "pass_rates": rates,
    })
    if not trace:
        rate = timed_steps / float(quiet.sum())
        out.metrics = {
            "steps_per_s": rate,
            "round_p50_ms": p50 * 1e3,
            "round_p95_ms": p95 * 1e3,
            # lane bytes handed to feed_many per step (no wire here)
            "wire_bytes_per_step": float(fleet[0][0].nbytes),
            "solves_per_s": rate / CHUNK,
            "mean_cost": first["mean_cost"],
            "setup_s": median([p["setup_s"] for p in passes]),
            "peak_rss_mb": self_peak_rss_mb(),
        }
        return out

    traced_passes = [p for p in passes if p["traced"]]
    wall = sum(p["wall_s"] for p in traced_passes)
    rows = tracer.layers()
    traced_rate = median([timed_steps / p["wall_s"] for p in traced_passes])

    def total(layer, key="total_s"):
        """Seconds per timed pass spent in ``layer``."""
        return rows.get(layer, {}).get(key, 0.0) / len(traced_passes)

    out.metrics = {
        "engine.stream.feed_many_s": total("engine.stream"),
        "engine.stream.self_s": total("engine.stream", "self_s"),
        "engine.stream.fused_fraction": first["fused_fraction"],
        "solvers.online.sweep_s": total("solvers.online"),
        "solvers.online.replay_epochs": first["replay_epochs"],
        "solvers.online.replay_triggers": first["replay_triggers"],
        "core.packed.extend_s": total("core.packed"),
        "obs.trace_overhead_frac": 1.0 - traced_rate / median(rates),
    }
    out.layers, out.traced_wall_s = rows, wall
    out.spans = list(tracer.spans)
    return out
