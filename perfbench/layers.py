"""Where each layer is wrapped: the lookup sites of its public functions.

Every entry patches the name its caller resolves at call time, so the
program runs unchanged apart from the span wrapper.  Layer names are
the ``repro`` module names the per-layer metrics are prefixed with.
"""

from __future__ import annotations


def patch_kernel(tracer) -> None:
    """engine.stream -> solvers.online -> core.packed (the hub kernel)."""
    from repro.core.packed import PackedStream
    from repro.engine.stream import StreamHub
    from repro.solvers.online import (
        _BatchedRentOrBuyCursor,
        _BatchedWindowCursor,
    )

    tracer.patch(StreamHub, "feed_many", "engine.stream")
    for cursor in (_BatchedRentOrBuyCursor, _BatchedWindowCursor):
        tracer.patch(cursor, "sweep_many", "solvers.online")
        tracer.patch(cursor, "step_many", "solvers.online")
    tracer.patch(PackedStream, "extend_many", "core.packed")


def patch_client(tracer) -> None:
    """serve.client: frame encoding as ``repro.serve.client`` sees it."""
    import repro.serve.client as client

    tracer.patch(client, "encode_feed_bin", "serve.client.encode")


def patch_server(tracer) -> None:
    """serve.protocol and serve.shard as the server looks them up, plus
    the kernel layers underneath the shard."""
    import repro.serve.server as server
    from repro.serve.protocol import BinFeedFrame
    from repro.serve.shard import ShardPool

    tracer.patch(server, "parse_bin_feed", "serve.protocol.parse")
    tracer.patch(BinFeedFrame, "raw_lanes", "serve.protocol.decode")
    tracer.patch(server, "encode_frame", "serve.protocol.reply_encode")
    tracer.patch(ShardPool, "feed_shard", "serve.shard")
    patch_kernel(tracer)


def patch_batch(tracer) -> None:
    """engine.batch, engine.requests and process-pool creation."""
    import multiprocessing

    import repro.engine.batch as batch

    tracer.patch(batch.BatchEngine, "solve_batch", "engine.batch")
    tracer.patch(batch, "canonicalize", "engine.requests.canonicalize")
    tracer.patch(multiprocessing, "Pool", "engine.batch.pool_spawn")
