"""Observability: histogram metrics, span tracing, live exposition.

The serving stack (engine → stream → serve) is instrumented with three
building blocks, all dependency-free and cheap enough to leave on:

* :mod:`repro.obs.histogram` — log-bucketed, fixed-boundary
  **mergeable histograms** (HDR-style): every observation lands in a
  deterministic bucket, so snapshots from thread shards and process
  shards merge into exactly the histogram a single hub would have
  recorded.  :class:`HistogramFamily` adds label dimensions
  (``solver=``, ``shard=``) on top;
* :mod:`repro.obs.trace` — a lock-cheap ring-buffer
  :class:`TraceRecorder` of structured span events
  (open/feed/drain/solve/close) with a queue-wait vs service split and
  an always-on slow-span log;
* :mod:`repro.obs.expo` — a Prometheus text exposition renderer and
  parser plus a stdlib-only HTTP server for ``GET /metrics``
  (``repro serve --metrics-port``).

Every series is declared once in :mod:`repro.obs.catalog`;
:class:`~repro.engine.metrics.EngineMetrics` holds its counters and
histogram families; :class:`~repro.serve.shard.ShardPool` merges the
per-shard snapshots (process shards ship them over their pipes); the
:class:`~repro.serve.server.StreamServer` exposes everything through
the ``stats``/``metrics`` frames and the ``/metrics`` endpoint.
"""

from repro.obs.expo import (
    MetricsHTTPServer,
    parse_exposition,
    render_exposition,
)
from repro.obs.histogram import (
    TIME_SCHEME,
    VALUE_SCHEME,
    BucketScheme,
    Histogram,
    HistogramFamily,
)
from repro.obs.trace import SpanEvent, TraceRecorder

__all__ = [
    "BucketScheme",
    "Histogram",
    "HistogramFamily",
    "MetricsHTTPServer",
    "SpanEvent",
    "TIME_SCHEME",
    "TraceRecorder",
    "VALUE_SCHEME",
    "parse_exposition",
    "render_exposition",
]
