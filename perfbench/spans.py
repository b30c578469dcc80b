"""Bench-owned span tracing around calls into the program's layers.

The benchmark never edits the program to time it.  Instead a
:class:`SpanTracer` replaces a layer's public function *where its
caller looks the name up* (``repro.serve.server.parse_bin_feed``, not
``repro.serve.protocol.parse_bin_feed``) with a wrapper that records
one span per call, and puts the original back afterwards.

Spans nest per thread: a span's *self* time is its duration minus the
wrapped child spans it covers, so ``engine.stream`` self time is the
hub's own bookkeeping with the sweep kernel and the packed-stream
commit taken out.  A call into a layer from inside the same layer (a
sweep delegating to ``step_many``) is part of the outer span, not a
second one.  Aggregates (count, total, self) are kept per thread and
merged on read; the most recent raw spans are kept in a bounded ring
for the span file.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = ["SpanTracer", "format_layer_table", "merge_layers"]

#: Raw spans kept per tracer for the span file (the most recent ones).
KEEP_SPANS = 20_000


class SpanTracer:
    """Install wrappers, record nested spans, restore originals."""

    def __init__(self):
        self._local = threading.local()
        self._tables: list[dict] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: (layer, parent layer or None, start, end), most recent last.
        self.spans: deque = deque(maxlen=KEEP_SPANS)

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
        return local.stack, local.table

    def wrap(self, layer: str, fn):
        """``fn`` with one ``layer`` span recorded around every call."""
        clock = time.perf_counter
        spans = self.spans

        def traced(*args, **kwargs):
            stack, table = self._state()
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                row = table.get(layer)
                if row is None:
                    row = table[layer] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
                spans.append(
                    (layer, parent[0] if parent else None, t0, t1)
                )

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, name: str, layer: str) -> None:
        """Replace ``owner.name`` (module function, method, classmethod
        or staticmethod) with a traced wrapper until :meth:`restore`."""
        raw = (
            owner.__dict__[name]
            if isinstance(owner, type) and name in owner.__dict__
            else getattr(owner, name)
        )
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(layer, raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(layer, raw.__func__))
        else:
            new = self.wrap(layer, raw)
        self._patches.append((owner, name, raw))
        setattr(owner, name, new)

    def restore(self) -> None:
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    # -- reading -----------------------------------------------------------

    def layers(self) -> dict[str, dict]:
        """layer -> {"count", "total_s", "self_s"} over every thread."""
        with self._lock:
            tables = list(self._tables)
        out: dict[str, dict] = {}
        for table in tables:
            for layer, (count, total, own) in list(table.items()):
                row = out.setdefault(
                    layer, {"count": 0, "total_s": 0.0, "self_s": 0.0}
                )
                row["count"] += count
                row["total_s"] += total
                row["self_s"] += own
        return out


def merge_layers(*parts: dict) -> dict[str, dict]:
    """Sum layer aggregates from several tracers (e.g. client + server)."""
    out: dict[str, dict] = {}
    for part in parts:
        for layer, row in part.items():
            acc = out.setdefault(
                layer, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            for key in acc:
                acc[key] += row[key]
    return out


def format_layer_table(
    layers: dict[str, dict], wall_s: float, metrics: dict, units: dict
) -> str:
    """The per-layer report: one row per traced layer (count, total,
    self, shares of the traced wall time), then every per-layer metric
    with its unit."""
    lines = [
        f"traced wall {wall_s:.3f} s",
        f"{'layer':<34}{'count':>10}{'total s':>12}{'self s':>12}"
        f"{'total %':>9}{'self %':>8}",
    ]
    for layer in sorted(layers):
        row = layers[layer]
        share = row["total_s"] / wall_s if wall_s else 0.0
        own = row["self_s"] / wall_s if wall_s else 0.0
        lines.append(
            f"{layer:<34}{row['count']:>10}{row['total_s']:>12.4f}"
            f"{row['self_s']:>12.4f}{share:>9.1%}{own:>8.1%}"
        )
    lines.append("")
    lines.append(f"{'per-layer metric':<44}{'value':>16}  unit")
    for name in sorted(metrics):
        lines.append(f"{name:<44}{metrics[name]:>16.6g}  {units[name]}")
    return "\n".join(lines)
