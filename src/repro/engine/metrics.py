"""Throughput, latency and cache counters for the serving engine.

One :class:`EngineMetrics` instance rides along with a
:class:`~repro.engine.batch.BatchEngine` (and optionally a stream
session) and accumulates everything an operator wants on one screen:
request counts, error/timeout counts, solve-time totals, wall time of
the batches, cache hit rate, and derived requests/second.  Counters are
plain and lock-protected — cheap enough to leave on permanently.  Their
names, snapshot keys and histogram families are declared once, in
:mod:`repro.obs.catalog`.

Distributions are log-bucketed :class:`~repro.obs.histogram.Histogram`
families (p50/p95/p99, labeled by solver and shard).  The fixed bucket
boundaries make snapshots mergeable: process shards ship
:meth:`hist_wire` over their pipes and the pool folds them into one
labeled view (see :meth:`~repro.serve.shard.ShardPool.merged_histograms`).
The families over *deterministic* quantities, named in
:data:`DETERMINISTIC_FAMILIES`, aggregate bit-identically across every
pool shape; the wall-clock families (latencies, cycle durations) merge
exactly too, but their observations are timing-dependent by nature.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Mapping
from contextlib import contextmanager

from repro.engine.cache import CacheStats
from repro.obs.catalog import (
    DETERMINISTIC_FAMILIES,
    ENGINE_COUNTERS,
    FEED_LATENCY,
    HISTOGRAMS,
    WIRE_FIELDS,
)
from repro.obs.histogram import TIME_SCHEME, Histogram, HistogramFamily
from repro.util.texttable import format_table

__all__ = [
    "DETERMINISTIC_FAMILIES",
    "EngineMetrics",
    "LatencyStats",
]

class LatencyStats(Histogram):
    """Solve-latency distribution: a time-scheme histogram with the
    legacy seconds-suffixed snapshot keys.

    The empty representation is canonical everywhere: ``min``/``max``
    (and their snapshot keys) are ``0.0`` when ``count == 0`` — no more
    ``inf`` leaking from ``snapshot()`` into ``format_table`` rows.
    """

    __slots__ = ()

    def __init__(self):
        super().__init__(TIME_SCHEME)

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.mean,
            "min_s": self.min,
            "max_s": self.max,
            "p50_s": self.p50,
            "p95_s": self.p95,
            "p99_s": self.p99,
        }


class EngineMetrics:
    """Aggregated engine counters; all mutators are thread-safe.

    ``histograms=False`` keeps every scalar counter but skips the
    histogram observes — the measured-overhead baseline for
    ``bench_e18_obs`` (the families still exist, empty, so snapshot
    shape is stable).
    """

    def __init__(self, *, histograms: bool = True):
        self._lock = threading.Lock()
        self.histograms_enabled = bool(histograms)
        self.hist: dict[str, HistogramFamily] = {
            m.name: HistogramFamily(m.name, m.scheme, help=m.help)
            for m in HISTOGRAMS
        }
        # One attribute per scalar counter of the catalogue; the
        # record_* mutators update them directly under the lock.
        for m in ENGINE_COUNTERS:
            setattr(self, m.attr, 0.0 if m.seconds else 0)
        self.latency = LatencyStats()
        # Wire accounting per protocol (one slot per WIRE_FIELDS
        # entry), pre-seeded so the exposition renders the v1/v2
        # series (at zero) on an idle server.
        self.wire: dict[str, list] = {
            "json": [0, 0, 0, 0.0],
            "bin": [0, 0, 0, 0.0],
        }
        # Decisions per chosen solver (labels of the portfolio counter).
        self.portfolio_decisions: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def record_request(self, *, cached: bool) -> None:
        with self._lock:
            self.requests += 1
            if cached:
                self.cache_hits += 1

    def record_solve(self, seconds: float, *, solver: str | None = None) -> None:
        with self._lock:
            self.solved += 1
            self.latency.observe(seconds)
            if self.histograms_enabled:
                self.hist["solve_latency_seconds"].observe(
                    seconds, **({"solver": solver} if solver else {})
                )

    def record_error(self, *, timeout: bool = False) -> None:
        with self._lock:
            self.errors += 1
            if timeout:
                self.timeouts += 1

    def record_evaluator_stats(self, stats: Mapping) -> None:
        """Aggregate a solver result's evaluator counters.

        Solvers backed by :mod:`repro.core.delta` report
        ``delta_applies`` (incremental/batched evaluations) and
        ``delta_full_evals`` (full-evaluation fallbacks) in their
        ``stats``; the engine folds them in here so the operator report
        shows how much of the fleet's evaluation work was incremental.
        """
        applies = int(stats.get("delta_applies", 0) or 0)
        full = int(stats.get("delta_full_evals", 0) or 0)
        if applies or full:
            with self._lock:
                self.delta_applies += applies
                self.delta_full_evals += full

    def record_portfolio(
        self,
        *,
        solver: str,
        seconds: float,
        raced: bool = False,
        records: int = 0,
    ) -> None:
        """Count one portfolio decision.

        ``solver`` is the concrete solver the portfolio handed the
        request to (the label of the ``portfolio_decisions`` counter
        and the ``portfolio_decision_seconds`` histogram); ``records``
        is how many run observations the decision contributed.
        """
        with self._lock:
            self.portfolio_decisions[solver] = (
                self.portfolio_decisions.get(solver, 0) + 1
            )
            if raced:
                self.portfolio_races += 1
            self.portfolio_records += int(records)
            if self.histograms_enabled:
                self.hist["portfolio_decision_seconds"].observe(
                    seconds, solver=solver
                )

    def record_portfolio_rows(self, count: int = 1) -> None:
        """Count run observations fed outside a portfolio decision
        (warmup learning from concrete solver runs)."""
        with self._lock:
            self.portfolio_records += int(count)

    def record_packed(self, *, reused: bool) -> None:
        """Count one PackedProblem request by the batch engine.

        ``reused=False`` is a fresh compile, ``reused=True`` a hit in
        the engine's per-problem compile cache — together they show how
        often the lane-packed representation was shared across
        structurally-deduped requests.
        """
        with self._lock:
            if reused:
                self.packed_reuses += 1
            else:
                self.packed_compiles += 1

    def record_shipment(self, *, shipped: int) -> None:
        """Count fan-out payload bytes: compiled problems pickled into
        batch-engine worker chunks, or lane chunks pickled to process
        shards."""
        if shipped:
            with self._lock:
                self.packed_bytes_shipped += int(shipped)

    def record_stream_open(self) -> None:
        """Count one streaming session opened on a hub."""
        with self._lock:
            self.stream_sessions += 1

    def record_wire(
        self,
        proto: str,
        *,
        frames_in: int = 0,
        bytes_in: int = 0,
        bytes_out: int = 0,
        decode_seconds: float = 0.0,
    ) -> None:
        """Count serve-layer wire traffic under one protocol label.

        ``proto`` is ``"json"`` (v1 newline-JSON frames) or ``"bin"``
        (v2 binary feed frames).  ``decode_seconds`` is CPU spent
        decoding/validating frame payloads — off the event loop, in
        the drain executor — so the v1-vs-v2 decode cost is a first-
        class series next to the byte counters.
        """
        with self._lock:
            row = self.wire.get(proto)
            if row is None:
                row = self.wire[proto] = [0, 0, 0, 0.0]
            row[0] += int(frames_in)
            row[1] += int(bytes_in)
            row[2] += int(bytes_out)
            row[3] += float(decode_seconds)

    def record_stream(
        self,
        *,
        steps: int,
        hypers: int = 0,
        seconds: float = 0.0,
        chunk_steps=(),
        drain_shard: int | None = None,
    ) -> None:
        """Aggregate one streaming feed call (single step or chunk).

        ``chunk_steps`` are the per-session step counts of the call —
        a deterministic quantity, recorded where the work ran (the hub)
        so shard-pool aggregates stay bit-identical to a single hub.
        ``drain_shard`` marks the call as one shard drain cycle: the
        latency lands in ``drain_cycle_seconds{shard=}`` instead of the
        plain ``feed_latency_seconds``.
        """
        with self._lock:
            self.stream_steps += int(steps)
            self.stream_hypers += int(hypers)
            self.stream_time += float(seconds)
            if self.histograms_enabled:
                if seconds:
                    if drain_shard is None:
                        self.hist["feed_latency_seconds"].observe(seconds)
                    else:
                        self.hist["drain_cycle_seconds"].observe(
                            seconds, shard=str(drain_shard)
                        )
                if len(chunk_steps):
                    # One bucket-count pass over the whole batch; step
                    # counts are small ints, so the float total stays
                    # exact and the family remains deterministic.
                    self.hist["stream_chunk_steps"].labels().observe_many(
                        chunk_steps
                    )

    def record_fused(
        self,
        *,
        sessions: int = 0,
        fallback: int = 0,
        group_sizes=(),
        epochs: int = 0,
        triggers: int = 0,
    ) -> None:
        """Count one fused multi-session sweep dispatch.

        ``sessions`` completed inside the epoch-synchronous fused
        kernel (triggering chunks included — batched trigger replay
        keeps them stacked); ``fallback`` were ineligible and served on
        the per-session path.  ``epochs``/``triggers`` are the
        dispatch's trigger-epoch iterations and batched-install trigger
        resolutions.  ``group_sizes`` are the per-group session counts
        of the dispatch (histogram ``fused_group_sessions`` —
        placement-dependent by nature, so not a deterministic family).
        """
        with self._lock:
            self.stream_fused += int(sessions)
            self.stream_fused_fallback += int(fallback)
            self.stream_replay_epochs += int(epochs)
            self.stream_replay_triggers += int(triggers)
            if self.histograms_enabled and group_sizes:
                self.hist["fused_group_sessions"].labels().observe_many(
                    group_sizes
                )

    def _stream_fused_fraction(self) -> float:
        total = self.stream_fused + self.stream_fused_fallback
        return self.stream_fused / total if total else 0.0

    @property
    def stream_fused_fraction(self) -> float:
        """Fraction of fused-eligible session-chunks that completed in
        the fused sweep (0.0 when the fused path never ran)."""
        with self._lock:
            return self._stream_fused_fraction()

    def record_session_close(
        self,
        *,
        solver: str | None = None,
        cost: float | None = None,
        steps: int | None = None,
    ) -> None:
        """Count one closed streaming session.

        The worker that actually ran the session passes ``cost`` and
        ``steps`` (deterministic, histogram-recorded); an aggregating
        parent passes neither — it only bumps the counter, so the
        merged deterministic families count every close exactly once.
        """
        with self._lock:
            self.stream_closed += 1
            if self.histograms_enabled and cost is not None:
                label = {"solver": solver} if solver else {}
                self.hist["session_cost"].observe(cost, **label)
                if steps is not None:
                    self.hist["session_steps"].observe(steps, **label)

    # -- persistence -------------------------------------------------------

    def snapshot_json(self) -> str:
        """Lossless JSON form of the full metrics state.

        Everything exact round-trips bit-for-bit through
        :meth:`from_json` (ints stay ints, histogram bucket counts are
        integers, and Python's JSON float round-trip is exact), so
        ``from_json(snapshot_json())`` rebuilds metrics whose
        ``snapshot_json()`` is byte-identical — the persistence
        contract the portfolio state tests lean on too.
        """
        with self._lock:
            payload = {
                "version": 1,
                "counters": {
                    m.attr: getattr(self, m.attr) for m in ENGINE_COUNTERS
                },
                "wire": {
                    proto: list(row) for proto, row in self.wire.items()
                },
                "portfolio_decisions": dict(self.portfolio_decisions),
                "latency": self.latency.to_wire(),
                "histograms": {
                    name: fam.to_wire() for name, fam in self.hist.items()
                },
            }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EngineMetrics":
        """Rebuild an :class:`EngineMetrics` from :meth:`snapshot_json`."""
        data = json.loads(text)
        if data.get("version") != 1:
            raise ValueError(
                f"unsupported metrics snapshot version {data.get('version')!r}"
            )
        metrics = cls()
        for m in ENGINE_COUNTERS:
            if m.attr in data["counters"]:
                setattr(metrics, m.attr, data["counters"][m.attr])
        metrics.wire = {
            str(proto): [row[0], row[1], row[2], float(row[3])]
            for proto, row in data["wire"].items()
        }
        metrics.portfolio_decisions = {
            str(name): int(count)
            for name, count in data["portfolio_decisions"].items()
        }
        restored = Histogram.from_wire(data["latency"])
        metrics.latency.counts = list(restored.counts)
        metrics.latency.count = restored.count
        metrics.latency.total = restored.total
        metrics.latency._min = restored._min
        metrics.latency._max = restored._max
        for name, wire in data["histograms"].items():
            metrics.hist[name] = HistogramFamily.from_wire(wire)
        return metrics

    def hist_wire(self, names=None) -> dict:
        """Mergeable wire snapshots of the named histogram families
        (all of them by default) — what process shards ship over their
        pipes and :meth:`ShardPool.merged_histograms` folds together."""
        with self._lock:
            selected = tuple(names) if names is not None else tuple(self.hist)
            return {name: self.hist[name].to_wire() for name in selected}

    @contextmanager
    def batch_timer(self):
        """Time one batch; adds to ``wall_time`` and ``batches``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.batches += 1
                self.wall_time += elapsed

    # -- derived -----------------------------------------------------------
    #
    # Public properties take the lock so a ratio never mixes counters
    # from two different instants (a shard report racing a drain could
    # otherwise pair a new numerator with an old denominator); the
    # ``_``-prefixed forms are the lock-free bodies ``snapshot()``
    # composes while already holding the lock.

    def _throughput(self) -> float:
        return self.requests / self.wall_time if self.wall_time else 0.0

    def _cache_hit_rate(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0

    def _delta_hit_rate(self) -> float:
        total = self.delta_applies + self.delta_full_evals
        return self.delta_applies / total if total else 0.0

    def _stream_steps_per_s(self) -> float:
        return self.stream_steps / self.stream_time if self.stream_time else 0.0

    def _stream_hyper_rate(self) -> float:
        return (
            self.stream_hypers / self.stream_steps if self.stream_steps else 0.0
        )

    @property
    def throughput(self) -> float:
        """Requests per second of batch wall time (0.0 when idle)."""
        with self._lock:
            return self._throughput()

    @property
    def cache_hit_rate(self) -> float:
        with self._lock:
            return self._cache_hit_rate()

    @property
    def delta_hit_rate(self) -> float:
        """Fraction of cost evaluations served incrementally/batched."""
        with self._lock:
            return self._delta_hit_rate()

    @property
    def stream_steps_per_s(self) -> float:
        """Streaming steps per second of feed wall time (0.0 when idle)."""
        with self._lock:
            return self._stream_steps_per_s()

    @property
    def stream_hyper_rate(self) -> float:
        """Hyperreconfigurations per streamed step (0.0 when idle)."""
        with self._lock:
            return self._stream_hyper_rate()

    def snapshot(self, cache: CacheStats | None = None) -> dict:
        with self._lock:
            out: dict = {}
            for m in ENGINE_COUNTERS:
                *parents, key = m.path.split(".")[1:]
                node = out
                for parent in parents:
                    node = node.setdefault(parent, {})
                node[key] = getattr(self, m.attr)
            out["cache_hit_rate"] = self._cache_hit_rate()
            out["throughput_rps"] = self._throughput()
            out["latency"] = self.latency.snapshot()
            out["delta"]["hit_rate"] = self._delta_hit_rate()
            out["stream"].update(
                steps_per_s=self._stream_steps_per_s(),
                hyper_rate=self._stream_hyper_rate(),
                fused_fraction=self._stream_fused_fraction(),
            )
            out["wire"] = {
                proto: dict(zip(WIRE_FIELDS, row))
                for proto, row in sorted(self.wire.items())
            }
            out["portfolio"]["decisions"] = dict(
                sorted(self.portfolio_decisions.items())
            )
            out["histograms"] = {
                name: fam.snapshot() for name, fam in self.hist.items()
            }
        if cache is not None:
            out["cache"] = {
                "enabled": cache.enabled,
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "size": cache.size,
                # A capacity-0 cache cannot hit by construction; report
                # "no rate" instead of a misleading 0% (ROADMAP item).
                "hit_rate": cache.hit_rate if cache.enabled else None,
            }
        return out

    def format_report(self, cache: CacheStats | None = None) -> str:
        """Operator-facing text table of the snapshot."""
        snap = self.snapshot(cache)
        lat = snap["latency"]
        rows = [
            ["requests", snap["requests"]],
            ["solved (cache misses)", snap["solved"]],
            ["cache hits", snap["cache_hits"]],
            ["cache hit rate", f"{snap['cache_hit_rate']:.1%}"],
            ["errors", snap["errors"]],
            ["timeouts", snap["timeouts"]],
            ["batches", snap["batches"]],
            ["wall time", f"{snap['wall_time_s']:.3f} s"],
            ["throughput", f"{snap['throughput_rps']:.1f} req/s"],
            ["mean solve latency", f"{lat['mean_s'] * 1e3:.2f} ms"],
            ["solve latency p50/p95/p99",
             f"{lat['p50_s'] * 1e3:.2f} / {lat['p95_s'] * 1e3:.2f} / "
             f"{lat['p99_s'] * 1e3:.2f} ms"],
            ["max solve latency", f"{lat['max_s'] * 1e3:.2f} ms"],
        ]
        delta = snap["delta"]
        if delta["applies"] or delta["full_evals"]:
            rows.append(
                ["incremental evals",
                 f"{delta['applies']} delta / {delta['full_evals']} full "
                 f"({delta['hit_rate']:.1%} delta)"]
            )
        packed = snap["packed"]
        if packed["compiles"] or packed["reuses"]:
            rows.append(
                ["packed problems",
                 f"{packed['compiles']} compiled / {packed['reuses']} reused"]
            )
        if packed["bytes_shipped"]:
            rows.append(
                ["fan-out payload", f"{packed['bytes_shipped']} B pickled"]
            )
        stream = snap["stream"]
        if stream["steps"]:
            rows.append(["stream sessions", stream["sessions"]])
            rows.append(
                ["stream steps",
                 f"{stream['steps']} ({stream['hypers']} hyper, "
                 f"{stream['hyper_rate']:.1%} rate)"]
            )
            rows.append(
                ["stream throughput",
                 f"{stream['steps_per_s']:.0f} steps/s"]
            )
            if stream["fused_sessions"] or stream["fused_fallback"]:
                rows.append(
                    ["fused sweep",
                     f"{stream['fused_sessions']} fused / "
                     f"{stream['fused_fallback']} fallback "
                     f"({stream['fused_fraction']:.1%} fused)"]
                )
            if stream["replay_epochs"]:
                rows.append(
                    ["trigger replay",
                     f"{stream['replay_triggers']} triggers / "
                     f"{stream['replay_epochs']} epochs"]
                )
            feed = snap["histograms"][FEED_LATENCY.name]
            if feed["count"]:
                rows.append(
                    ["feed latency p50/p95/p99",
                     f"{feed['p50'] * 1e3:.2f} / {feed['p95'] * 1e3:.2f} / "
                     f"{feed['p99'] * 1e3:.2f} ms"]
                )
        portfolio = snap["portfolio"]
        if portfolio["decisions"]:
            picks = ", ".join(
                f"{name}×{count}"
                for name, count in portfolio["decisions"].items()
            )
            rows.append(
                ["portfolio decisions",
                 f"{picks} ({portfolio['races']} raced, "
                 f"{portfolio['records']} observations)"]
            )
        for proto, wire in snap["wire"].items():
            if wire["frames_in"]:
                rows.append(
                    [f"wire [{proto}]",
                     f"{wire['frames_in']} frames, {wire['bytes_in']} B in "
                     f"/ {wire['bytes_out']} B out, "
                     f"decode {wire['decode_s'] * 1e3:.1f} ms"]
                )
        if cache is not None:
            if cache.enabled:
                rows.append(
                    ["result cache",
                     f"{cache.size}/{cache.capacity} entries, "
                     f"{cache.hit_rate:.1%} hit rate"]
                )
            else:
                rows.append(["result cache", "off (hit rate n/a)"])
        return format_table(["metric", "value"], rows, title="engine metrics")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EngineMetrics(requests={self.requests}, solved={self.solved}, "
            f"hits={self.cache_hits}, errors={self.errors})"
        )
