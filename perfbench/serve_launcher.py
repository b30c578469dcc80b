"""Traced ``repro serve`` for the serve_calm per-layer run.

Runs the same :class:`~repro.serve.server.StreamServer` as
``repro serve --shards 1 --port 0 --metrics-port 0`` with the bench's
span wrappers installed on the server-side layers (``serve.protocol``,
``serve.shard`` and the kernel underneath) and a span ring large enough
to keep every request.  It prints the same ``serving on`` / ``metrics
on`` lines, and on SIGTERM writes its layer aggregates, recent spans
and the server tracer's feed events to ``--spans-out`` before shutting
down cleanly::

    PYTHONPATH=src python3 perfbench/serve_launcher.py --spans-out spans.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

import layers
from spans import SpanTracer

#: Span ring of the server's own tracer: large enough to keep every
#: request of a traced run.
TRACE_CAPACITY = 1 << 20


async def _serve(spans_out: str) -> None:
    from repro.serve.server import ServeConfig, StreamServer

    tracer = SpanTracer()
    layers.patch_server(tracer)
    config = ServeConfig(
        port=0, metrics_port=0, shards=1, trace_capacity=TRACE_CAPACITY
    )
    server = StreamServer(config)
    await server.start()
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    host, port = server.address
    mhost, mport = server.metrics_address
    print(f"serving on {host}:{port} (1 thread shard(s))", file=sys.stderr)
    print(f"metrics on http://{mhost}:{mport}/metrics", file=sys.stderr,
          flush=True)
    try:
        await stop.wait()
        feeds = server.tracer.events("feed")
        with open(spans_out, "w") as fh:
            json.dump({
                "layers": tracer.layers(),
                "spans": list(tracer.spans),
                "feed_events": [
                    {"queue_wait_s": e.queue_wait, "duration_s": e.duration}
                    for e in feeds
                ],
                "tracer": server.tracer.snapshot(),
            }, fh)
    finally:
        tracer.restore()
        await server.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args(argv)
    asyncio.run(_serve(args.spans_out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
