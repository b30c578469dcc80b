"""Loopback load generator: drive a serving process like a user fleet.

``repro serve-bench`` and benchmark E17 both need the same exercise:
open S sessions through real client connections, feed every session a
phased requirement stream chunk by chunk, close everything, and report
throughput — optionally cross-checking every per-session cost against
single-threaded replays of the same traces and the offline evaluator
(the serving layer must never change an answer, only how fast it
arrives).

Clients run on threads, each owning an equal slice of the fleet and
feeding it round-robin (all sessions advance chunk 0, then chunk 1, …)
— the arrival pattern that lets the server's per-shard drain cycles
actually batch.  With ``pipeline=True`` each round goes out as one
:meth:`~repro.serve.client.ServeClient.feed_pipelined` burst per
client, so a whole fleet round costs one round trip instead of one per
session.  ``proto`` selects the wire protocol per client
(``"bin"``/``"json"``); the result carries the bytes each
generation actually put on the wire.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.obs.histogram import TIME_SCHEME, Histogram
from repro.util.rng import make_rng

__all__ = ["LoadgenResult", "drifting_masks", "run_loadgen"]


def drifting_masks(
    width: int, n: int, seed, *, phase: int = 150, noise: float = 0.003
) -> list[int]:
    """A phased requirement stream: a ~12-switch working set that
    drifts every ``phase`` steps, plus occasional noise bits — the
    regime online policies are built for (stable phases, abrupt
    changes).  Shared by E16/E17 and the ``serve-bench`` CLI."""
    rng = make_rng(seed)
    masks = []
    working = set(int(x) for x in rng.choice(width, size=12, replace=False))
    for i in range(n):
        if i % phase == 0 and i:
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


@dataclass
class LoadgenResult:
    """Outcome of one load-generation run."""

    sessions: int
    steps: int
    #: requests served — opens, feed chunks and closes.  Not wire
    #: frames: over the binary protocol a pipelined burst of chunks is
    #: one frame.
    frames: int
    wall_s: float
    costs: dict[str, float] = field(default_factory=dict)
    verified: bool | None = None
    #: wire protocol the clients ran ("json" | "bin").
    proto: str = "json"
    #: request bytes the clients put on the wire / reply bytes read
    #: back, summed over every client connection.
    bytes_out: int = 0
    bytes_in: int = 0
    #: client-observed feed round-trip latency, merged across all
    #: client threads — same :class:`Histogram` type as the server's
    #: families, so client p50/p95/p99 line up with server quantiles
    #: in the E17 / serve-bench tables.
    latency: Histogram = field(
        default_factory=lambda: Histogram(TIME_SCHEME)
    )

    @property
    def steps_per_s(self) -> float:
        return self.steps / self.wall_s if self.wall_s else 0.0

    @property
    def frames_per_s(self) -> float:
        """Requests per second (see :attr:`frames`)."""
        return self.frames / self.wall_s if self.wall_s else 0.0


def _client_worker(
    host, port, jobs, chunk, policy, policy_params, width, w,
    proto, pipeline, out, latency, errors
):
    from repro.serve.client import ServeClient

    try:
        with ServeClient(host, port, proto=proto) as client:
            for sid, _masks in jobs:
                got = client.open(
                    policy=policy,
                    width=width,
                    w=w,
                    session_id=sid,
                    **policy_params,
                )
                assert got == sid
            longest = max(len(masks) for _sid, masks in jobs)
            frames = len(jobs)  # the opens
            pos = 0
            while pos < longest:
                batch = [
                    (sid, masks[pos : pos + chunk])
                    for sid, masks in jobs
                    if pos < len(masks)
                ]
                if pipeline:
                    # One burst per round: the whole batch shares one
                    # round trip, so each chunk is booked at the batch
                    # RTT it actually waited behind.
                    t0 = time.perf_counter()
                    client.feed_pipelined(batch)
                    dt = time.perf_counter() - t0
                    for _ in batch:
                        latency.observe(dt)
                else:
                    for sid, masks in batch:
                        t0 = time.perf_counter()
                        client.feed(sid, masks)
                        latency.observe(time.perf_counter() - t0)
                frames += len(batch)
                pos += chunk
            for sid, _masks in jobs:
                res = client.close_session(sid)
                frames += 1
                out[sid] = res.cost
            # sentinel: this worker's request count + wire byte totals.
            out[None] = (frames, client.bytes_sent, client.bytes_received)
    except Exception as exc:  # noqa: BLE001 - surfaced by the caller
        errors.append(exc)


def run_loadgen(
    host: str,
    port: int,
    *,
    sessions: int,
    steps: int,
    chunk: int = 256,
    width: int = 96,
    w: float | None = None,
    policy: str = "rent_or_buy",
    policy_params: dict | None = None,
    clients: int = 4,
    phase: int = 600,
    seed: int = 0,
    verify: bool = False,
    proto: str = "bin",
    pipeline: bool = False,
) -> LoadgenResult:
    """Drive a serving process with a synthetic fleet; see module doc.

    ``verify=True`` checks every served cost against three oracles (see
    :func:`_verify`) and raises ``AssertionError`` on a mismatch, naming
    the offending session.
    """
    if sessions < 1 or steps < 1 or chunk < 1 or clients < 1:
        raise ValueError(
            "sessions, steps, chunk and clients must be at least 1"
        )
    policy_params = dict(policy_params or {})
    w = float(w) if w is not None else float(width)
    traces = {
        f"u{s}": drifting_masks(
            width, steps, seed=seed * 1_000_003 + s, phase=phase
        )
        for s in range(sessions)
    }
    clients = min(clients, sessions)
    slices = [list(traces.items())[c::clients] for c in range(clients)]
    outs = [dict() for _ in range(clients)]
    # One histogram per client thread (no shared-state contention in
    # the timed path), merged after the join.
    latencies = [Histogram(TIME_SCHEME) for _ in range(clients)]
    errors: list[Exception] = []
    threads = [
        threading.Thread(
            target=_client_worker,
            args=(host, port, slices[c], chunk, policy, policy_params,
                  width, w, proto, pipeline, outs[c], latencies[c],
                  errors),
            name=f"loadgen-{c}",
        )
        for c in range(clients)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    costs: dict[str, float] = {}
    frames = bytes_out = bytes_in = 0
    for out in outs:
        got, sent, received = out.pop(None, (0, 0, 0))
        frames += got
        bytes_out += sent
        bytes_in += received
        costs.update(out)
    latency = Histogram(TIME_SCHEME)
    for h in latencies:
        latency.merge(h)
    result = LoadgenResult(
        sessions=sessions,
        steps=sessions * steps,
        frames=frames,
        wall_s=wall,
        costs=costs,
        proto=proto,
        bytes_out=bytes_out,
        bytes_in=bytes_in,
        latency=latency,
    )
    if verify:
        result.verified = _verify(traces, costs, width, w, policy,
                                  policy_params)
    return result


def _verify(traces, costs, width, w, policy, policy_params) -> bool:
    """Each served cost must equal a single-hub replay and a scalar
    session replay exactly, and :func:`~repro.solvers.online.run_online`
    within 1e-6 (sessions keep no log to re-check at close)."""
    from repro.core.context import RequirementSequence
    from repro.core.switches import SwitchUniverse
    from repro.engine.stream import StreamHub, StreamSession
    from repro.serve.protocol import policy_from_spec
    from repro.solvers.online import ScalarOnly, run_online

    universe = SwitchUniverse.of_size(width)
    hub = StreamHub()
    for sid, masks in traces.items():
        scheduler = policy_from_spec(policy, w, policy_params)
        hub.open(scheduler, universe, w, session_id=sid)
        hub.feed_many({sid: masks})
    closes = hub.finish_all()
    # run_online needs the bare policy's plan(), never a ScalarOnly.
    bare = {k: v for k, v in policy_params.items() if k != "scalar"}
    for sid, masks in traces.items():
        served = costs[sid]
        scheduler = policy_from_spec(policy, w, bare)
        scalar = StreamSession(ScalarOnly(scheduler), universe, w)
        scalar.feed_many(masks)
        offline = run_online(
            scheduler, RequirementSequence(universe, masks), w
        ).cost
        for oracle, expect, tol in (
            ("single-hub replay", closes[sid].cost, 0.0),
            ("scalar session", scalar.cost, 0.0),
            ("offline evaluation", offline, 1e-6),
        ):
            if not abs(served - expect) <= tol:  # NaN fails too
                raise AssertionError(
                    f"session {sid}: served cost {served} != {oracle} {expect}"
                )
    return True
