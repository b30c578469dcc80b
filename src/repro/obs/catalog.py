"""The metric catalogue: every reported quantity, declared once.

A :class:`Metric` row gives the series name (``repro_<name>`` on
``/metrics``; empty for a counter kept in snapshots only), its kind,
its dotted path in the dict ``StreamServer.metrics_snapshot()``
returns (the ``/metrics.json`` body; a ``*`` walks a dict's keys or a
list's indices as the row's label), its help text and label keys.
:class:`~repro.engine.metrics.EngineMetrics` keeps one attribute per
row with an ``attr`` and nests it into ``snapshot()`` below
``engine.``; the server's front-door counters are the ``server.*``
rows; :func:`exposition`, the ``serve-stats --check`` core list and
the README table (``python -m repro.obs.catalog``) are rendered from
the rows.  Units ride in the names: a path ending ``_s`` holds float
seconds, a ``*_seconds`` histogram uses the time bucket scheme.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.obs.expo import render_exposition

__all__ = [
    "CATALOG",
    "CORE_SAMPLES",
    "DETERMINISTIC_FAMILIES",
    "DRAIN_CYCLE",
    "ENGINE_COUNTERS",
    "FEED_LATENCY",
    "HISTOGRAMS",
    "Metric",
    "SERVER_COUNTERS",
    "WIRE_FIELDS",
    "exposition",
    "markdown_table",
]


@dataclass(frozen=True)
class Metric:
    """One reported quantity.

    ``core`` rows exist on every healthy server, idle or not.
    ``deterministic`` histograms record workload facts, not timings,
    so a shard pool of any shape aggregates them bit-identically to a
    single hub.
    """

    name: str
    kind: str
    path: str
    help: str
    labels: tuple[str, ...] = ()
    attr: str = ""
    core: bool = False
    deterministic: bool = False

    @property
    def scheme(self) -> str:
        return "time" if self.name.endswith("_seconds") else "value"

    @property
    def seconds(self) -> bool:
        return self.path.endswith("_s")

    def samples(self, snapshot: Mapping) -> list[tuple[dict, float]]:
        """``(labels, value)`` rows of a counter or gauge; a labeled
        row with nothing to walk yet renders one unlabeled zero, so
        the series exists from the first scrape."""
        head, star, tail = self.path.partition(".*")
        node = _lookup(snapshot, head)
        if not star:
            return [({}, node)]
        items = enumerate(node) if isinstance(node, list) else node.items()
        return [
            ({self.labels[0]: str(key)}, _lookup(value, tail[1:]))
            for key, value in items
        ] or [({}, 0)]


def _lookup(node, path: str):
    for key in path.split(".") if path else ():
        node = node[key]
    return node


#: One row per line, so the table reads like the README's.  Rows that
#: readers look up by name are also bound to module names
#: (:data:`FEED_LATENCY`, :data:`DRAIN_CYCLE`), so no reader spells a
#: series name by hand.
CATALOG: tuple[Metric, ...] = (
    # -- serve: front door
    Metric("server_connections_total", "counter", "server.connections", "Client connections accepted"),
    Metric("server_frames_total", "counter", "server.frames", "Request frames read (a feed_many frame counts once)"),
    Metric("server_opens_total", "counter", "server.opens", "open frames received", core=True),
    Metric("server_feeds_total", "counter", "server.feeds", "Feed chunks received: one per feed frame, N per feed_many frame of N entries", core=True),
    Metric("server_closes_total", "counter", "server.closes", "close frames received"),
    Metric("server_stats_calls_total", "counter", "server.stats_calls", "stats frames answered"),
    Metric("server_metrics_calls_total", "counter", "server.metrics_calls", "metrics frames answered"),
    Metric("server_protocol_errors_total", "counter", "server.protocol_errors", "Frames rejected as protocol violations"),
    Metric("server_rejected_sessions_total", "counter", "server.rejected_sessions", "open frames refused by an admission limit"),
    Metric("server_errors_total", "counter", "server.errors", "Requests answered with a non-protocol error"),
    # -- engine: batch solves
    Metric("engine_requests_total", "counter", "engine.requests", "One-shot solve requests", attr="requests"),
    Metric("engine_solved_total", "counter", "engine.solved", "Requests solved (cache misses)", attr="solved"),
    Metric("engine_cache_hits_total", "counter", "engine.cache_hits", "Requests answered from the result cache", attr="cache_hits"),
    Metric("engine_errors_total", "counter", "engine.errors", "Requests that failed", attr="errors"),
    Metric("engine_timeouts_total", "counter", "engine.timeouts", "Requests that ran out of time", attr="timeouts"),
    Metric("engine_batches_total", "counter", "engine.batches", "Batches run", attr="batches"),
    Metric("", "counter", "engine.wall_time_s", "Wall time of the batches", attr="wall_time"),
    Metric("", "counter", "engine.delta.applies", "Cost evaluations served incrementally", attr="delta_applies"),
    Metric("", "counter", "engine.delta.full_evals", "Full cost-evaluation fallbacks", attr="delta_full_evals"),
    Metric("", "counter", "engine.packed.compiles", "Lane-packed problems compiled", attr="packed_compiles"),
    Metric("", "counter", "engine.packed.reuses", "Lane-packed problems reused", attr="packed_reuses"),
    Metric("", "counter", "engine.packed.bytes_shipped", "Bytes pickled into worker chunks", attr="packed_bytes_shipped"),
    Metric("", "counter", "engine.packed.bytes_shared", "Always 0; kept for the v1 snapshot shape", attr="packed_bytes_shared"),
    # -- stream: hub accounting and the fused epoch sweep
    Metric("stream_sessions_total", "counter", "engine.stream.sessions", "Streaming sessions opened", attr="stream_sessions"),
    Metric("stream_closed_total", "counter", "engine.stream.closed", "Streaming sessions closed", attr="stream_closed"),
    Metric("stream_steps_total", "counter", "engine.stream.steps", "Steps streamed", attr="stream_steps", core=True),
    Metric("stream_hypers_total", "counter", "engine.stream.hypers", "Hyperreconfigurations while streaming", attr="stream_hypers"),
    Metric("", "counter", "engine.stream.wall_time_s", "Wall time of the feed calls", attr="stream_time"),
    Metric("stream_fused_sessions_total", "counter", "engine.stream.fused_sessions", "Session-chunks completed in the fused sweep", attr="stream_fused", core=True),
    Metric("stream_fused_fallback_total", "counter", "engine.stream.fused_fallback", "Chunks served without a sweep: scalar-cursor sessions and empty chunks", attr="stream_fused_fallback", core=True),
    Metric("stream_replay_epochs_total", "counter", "engine.stream.replay_epochs", "Trigger epochs the fused sweep iterated", attr="stream_replay_epochs", core=True),
    Metric("stream_replay_triggers_total", "counter", "engine.stream.replay_triggers", "Triggers resolved by batched replay", attr="stream_replay_triggers", core=True),
    # -- serve: wire protocols (json and bin rows exist from the start)
    Metric("wire_frames_in_total", "counter", "engine.wire.*.frames_in", "Request frames received (a feed_many frame counts once)", ("proto",)),
    Metric("wire_bytes_in_total", "counter", "engine.wire.*.bytes_in", "Request bytes received", ("proto",), core=True),
    Metric("wire_bytes_out_total", "counter", "engine.wire.*.bytes_out", "Reply bytes sent", ("proto",), core=True),
    Metric("wire_decode_seconds_total", "counter", "engine.wire.*.decode_s", "CPU seconds decoding frame payloads", ("proto",), core=True),
    # -- portfolio
    Metric("portfolio_decisions_total", "counter", "engine.portfolio.decisions.*", "Decisions per chosen solver", ("solver",), core=True),
    Metric("portfolio_races_total", "counter", "engine.portfolio.races", "Race rounds", attr="portfolio_races"),
    Metric("portfolio_explores_total", "counter", "engine.portfolio.explores", "Always 0 (no strategy explores); kept for the v1 snapshot shape", attr="portfolio_explores"),
    Metric("portfolio_records_total", "counter", "engine.portfolio.records", "Portfolio observations learned", attr="portfolio_records"),
    # -- obs: trace recorder
    Metric("trace_spans_total", "counter", "trace.recorded", "Trace spans recorded"),
    Metric("trace_slow_spans_total", "counter", "trace.slow", "Spans over the slow-request threshold"),
    # -- serve: gauges
    Metric("uptime_seconds", "gauge", "uptime_s", "Seconds since the server started", core=True),
    Metric("sessions", "gauge", "sessions", "Live streaming sessions", core=True),
    Metric("shard_sessions", "gauge", "shards.*.sessions", "Live sessions per shard", ("shard",)),
    Metric("shard_up", "gauge", "shards.*.up", "1 while the shard can serve, 0 once its worker process is gone", ("shard",), core=True),
    Metric("shard_queue_depth", "gauge", "shards.*.queue_depth", "Jobs waiting in each bounded shard queue", ("shard",), core=True),
    # -- histograms (buckets from the merged shard-pool families);
    # fused_group_sessions depends on shard placement: not deterministic
    Metric("solve_latency_seconds", "histogram", "histograms.solve_latency_seconds", "Per-request one-shot solve latency", ("solver",)),
    FEED_LATENCY := Metric("feed_latency_seconds", "histogram", "histograms.feed_latency_seconds", "Streaming feed call latency (per chunk batch)", core=True),
    DRAIN_CYCLE := Metric("drain_cycle_seconds", "histogram", "histograms.drain_cycle_seconds", "Per-shard drain cycle duration", ("shard",), core=True),
    Metric("stream_chunk_steps", "histogram", "histograms.stream_chunk_steps", "Steps per per-session feed chunk", ("shard",), core=True, deterministic=True),
    Metric("session_cost", "histogram", "histograms.session_cost", "Final cost per closed streaming session", ("shard", "solver"), core=True, deterministic=True),
    Metric("session_steps", "histogram", "histograms.session_steps", "Total steps per closed streaming session", ("shard", "solver"), deterministic=True),
    Metric("fused_group_sessions", "histogram", "histograms.fused_group_sessions", "Sessions per fused multi-session sweep group"),
    Metric("portfolio_decision_seconds", "histogram", "histograms.portfolio_decision_seconds", "Portfolio decide+solve+verify latency", ("solver",)),
)

#: Scalar counters :class:`~repro.engine.metrics.EngineMetrics` holds.
ENGINE_COUNTERS = tuple(m for m in CATALOG if m.attr)
#: Histogram families every :class:`EngineMetrics` carries.
HISTOGRAMS = tuple(m for m in CATALOG if m.kind == "histogram")
#: Families whose shard-pool aggregate is bit-identical to one hub's.
DETERMINISTIC_FAMILIES = tuple(m.name for m in HISTOGRAMS if m.deterministic)
#: Front-door counter keys of the server (``server.<key>``).
SERVER_COUNTERS = tuple(
    m.path[len("server."):] for m in CATALOG if m.path.startswith("server.")
)
#: Fields of a per-protocol wire row, in storage order.
WIRE_FIELDS = tuple(
    m.path.rsplit(".", 1)[1] for m in CATALOG
    if m.path.startswith("engine.wire.*.")
)
#: Exposition sample names ``serve-stats --check`` requires.
CORE_SAMPLES = tuple(
    f"repro_{m.name}_count" if m.kind == "histogram" else f"repro_{m.name}"
    for m in CATALOG if m.core
)


def exposition(snapshot: Mapping, histograms: Mapping[str, Mapping]) -> str:
    """Prometheus text of every named row: counters and gauges read
    from a ``metrics_snapshot()`` dict, histogram buckets from the
    ``to_wire()`` families taken in the same pass."""
    return render_exposition(
        (m.name, m.kind, m.help,
         histograms[m.name] if m.kind == "histogram" else m.samples(snapshot))
        for m in CATALOG if m.name
    )


def markdown_table() -> str:
    """The README metrics reference, one row per exposed family."""
    lines = [
        "| series | type | labels | `/metrics.json` path | core | help |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for m in CATALOG:
        if m.name:
            labels = ", ".join(f"`{label}`" for label in m.labels) or "—"
            note = " (**deterministic**)" if m.deterministic else ""
            lines.append(
                f"| `{m.name}` | {m.kind} | {labels} | `{m.path}` | "
                f"{'yes' if m.core else ''} | {m.help}{note} |"
            )
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(markdown_table(), end="")
