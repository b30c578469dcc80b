"""Dependency-free Prometheus text exposition and a tiny HTTP plane.

:func:`render_exposition` turns a sequence of counter, gauge and
histogram families (each with its help text) into Prometheus text
format 0.0.4 — counters as ``<ns>_<name>``, histograms as the conventional
``_bucket{le=...}`` / ``_sum`` / ``_count`` triple with cumulative
bucket counts (only buckets where the cumulative count changes are
emitted, plus ``+Inf``; the fixed log-bucket geometry makes the full
~100-bucket vector pure noise on the wire).

:func:`parse_exposition` is the matching minimal parser — enough for
``repro serve-stats --check`` and the CI scrape to assert the core
series exist, each with its ``# HELP``, without installing a
Prometheus client.  The families themselves are declared in
:mod:`repro.obs.catalog`.

:class:`MetricsHTTPServer` serves ``GET /metrics`` (text),
``GET /metrics.json`` (full JSON snapshot) and ``GET /healthz`` from a
daemon thread using only :mod:`http.server` — the live telemetry plane
behind ``repro serve --metrics-port``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Mapping

from repro.obs.histogram import BucketScheme

__all__ = [
    "CONTENT_TYPE",
    "MetricsHTTPServer",
    "parse_exposition",
    "render_exposition",
]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels_text(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _num(value: float) -> str:
    f = float(value)
    return repr(int(f)) if f == int(f) else repr(f)


def render_exposition(families, *, namespace: str = "repro") -> str:
    """Render Prometheus text; see module docstring.

    ``families`` yields ``(name, kind, help, value)`` with ``name``
    without namespace.  A counter or gauge ``value`` is a list of
    ``(labels_dict, number)`` pairs; a histogram ``value`` is a
    :meth:`HistogramFamily.to_wire` snapshot.
    """
    lines: list[str] = []
    for name, kind, help_text, value in families:
        full = f"{namespace}_{name}"
        if help_text:
            lines.append(f"# HELP {full} {_escape(help_text)}")
        lines.append(f"# TYPE {full} {kind}")
        if kind != "histogram":
            for labels, number in value:
                lines.append(f"{full}{_labels_text(labels)} {_num(number)}")
            continue
        bounds = BucketScheme.by_name(value["scheme"])._bounds_list
        series = value["series"] or [
            # A family with no series yet still exposes one empty
            # unlabeled histogram, so every family is visible (and
            # checkable) from the very first scrape.
            {"labels": {}, "hist": {"buckets": [], "count": 0, "total": 0.0}}
        ]
        for entry in series:
            labels = dict(entry["labels"])
            hist = entry["hist"]
            cum = 0
            for i, c in sorted(hist["buckets"]):
                if i >= len(bounds):
                    break  # overflow bucket: covered by +Inf below
                cum += c
                lines.append(
                    f"{full}_bucket"
                    f"{_labels_text({**labels, 'le': _num(bounds[i])})} {cum}"
                )
            lines.append(
                f"{full}_bucket"
                f"{_labels_text({**labels, 'le': '+Inf'})} {hist['count']}"
            )
            lines.append(
                f"{full}_sum{_labels_text(labels)} {_num(hist['total'])}"
            )
            lines.append(
                f"{full}_count{_labels_text(labels)} {hist['count']}"
            )
    return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Parse Prometheus text into ``{name: [(labels, value), ...]}``.

    Minimal by design: handles the subset :func:`render_exposition`
    emits (no timestamps, no exemplars).  Raises ``ValueError`` on a
    malformed sample line, or on a ``# TYPE`` family without a
    ``# HELP`` line, so ``--check`` fails loudly.
    """
    out: dict[str, list[tuple[dict, float]]] = {}
    typed: list[str] = []
    helped: set[str] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("# TYPE "):
            typed.append(line.split(" ", 3)[2])
        elif line.startswith("# HELP "):
            helped.add(line.split(" ", 3)[2])
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            body, _, value_part = rest.rpartition("}")
            labels: dict[str, str] = {}
            for item in _split_labels(body):
                if not item:
                    continue
                k, _, v = item.partition("=")
                if not (len(v) >= 2 and v[0] == '"' and v[-1] == '"'):
                    raise ValueError(f"bad label in line: {raw!r}")
                labels[k.strip()] = (
                    v[1:-1]
                    .replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
        else:
            name, _, value_part = line.partition(" ")
            labels = {}
        name = name.strip()
        value_text = value_part.strip()
        if not name or not value_text:
            raise ValueError(f"bad sample line: {raw!r}")
        value = float("inf") if value_text == "+Inf" else float(value_text)
        out.setdefault(name, []).append((labels, value))
    unhelped = [family for family in typed if family not in helped]
    if unhelped:
        raise ValueError("no # HELP for " + ", ".join(unhelped))
    return out


def _split_labels(body: str) -> list[str]:
    """Split ``a="x",b="y,z"`` on commas outside quotes."""
    parts, buf, in_quotes, escaped = [], [], False, False
    for ch in body:
        if escaped:
            buf.append(ch)
            escaped = False
        elif ch == "\\":
            buf.append(ch)
            escaped = True
        elif ch == '"':
            buf.append(ch)
            in_quotes = not in_quotes
        elif ch == "," and not in_quotes:
            parts.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    if buf:
        parts.append("".join(buf).strip())
    return parts


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1"

    def do_GET(self):  # noqa: N802 - http.server API
        try:
            if self.path in ("/metrics", "/"):
                body = self.server.text_fn().encode()
                ctype = CONTENT_TYPE
            elif self.path == "/metrics.json":
                body = json.dumps(self.server.json_fn()).encode()
                ctype = "application/json"
            elif self.path == "/healthz":
                body, ctype = b"ok\n", "text/plain"
            else:
                self.send_error(404, "unknown path")
                return
        except Exception as exc:  # noqa: BLE001 - report, don't die
            self.send_error(500, str(exc))
            return
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # silence per-request stderr lines
        pass


class MetricsHTTPServer:
    """``GET /metrics`` on a daemon thread; stdlib only."""

    def __init__(
        self,
        text_fn: Callable[[], str],
        json_fn: Callable[[], dict],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._http = ThreadingHTTPServer((host, port), _Handler)
        self._http.daemon_threads = True
        self._http.text_fn = text_fn
        self._http.json_fn = json_fn
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            name="repro-metrics-http",
            daemon=True,
        )
        self.address: tuple[str, int] = self._http.server_address[:2]

    def start(self) -> tuple[str, int]:
        self._thread.start()
        return self.address

    def stop(self) -> None:
        self._http.shutdown()
        self._http.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "MetricsHTTPServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
