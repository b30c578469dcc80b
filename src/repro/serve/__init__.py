"""repro.serve — the streaming stack as a multi-user network service.

:mod:`repro.engine.stream` gave the online policies a multiplexing
:class:`~repro.engine.stream.StreamHub`; this package puts that hub
behind sockets and shards so many users can load it concurrently:

* :mod:`repro.serve.protocol` — the framed wire protocol
  (newline-delimited JSON control frames ``open``/``feed``/``close``/
  ``stats``; base64 lane-encoded mask chunks) plus encode/decode
  helpers shared by server and client;
* :mod:`repro.serve.shard` — :class:`ShardPool`: sessions
  hash-partitioned across hub shards (threads by default, processes
  on request), per-session results bit-identical to a single hub;
* :mod:`repro.serve.server` — :class:`StreamServer`: asyncio TCP +
  stdin front door with admission control, bounded per-shard queues
  (backpressure) and per-shard drain cycles that batch queued feeds
  into one ``feed_many`` call; :class:`ServerThread` runs it on a
  background thread for tests/benchmarks;
* :mod:`repro.serve.client` — :class:`ServeClient`, the blocking
  request/response client;
* :mod:`repro.serve.loadgen` — the loopback load generator behind
  ``repro serve-bench`` and benchmark E17.

Quickstart (loopback)::

    from repro.serve import ServeClient, ServeConfig, ServerThread

    with ServerThread(ServeConfig(shards=4)) as (host, port):
        with ServeClient(host, port) as client:
            sid = client.open(policy="rent_or_buy", width=96, w=96.0)
            client.feed(sid, [0b1011, 0b0011, 0b1000])
            print(client.close_session(sid).cost)
"""

from repro.serve.client import (
    CloseResult,
    FeedResult,
    ServeClient,
    ServeError,
)
from repro.serve.loadgen import LoadgenResult, drifting_masks, run_loadgen
from repro.serve.protocol import (
    CloseFrame,
    FeedFrame,
    OpenFrame,
    ProtocolError,
    StatsFrame,
    decode_frame,
    decode_mask_chunk,
    encode_frame,
    encode_mask_chunk,
    parse_request,
    policy_from_spec,
)
from repro.serve.server import ServeConfig, ServerThread, StreamServer
from repro.serve.shard import ShardPool, shard_index

__all__ = [
    "CloseFrame",
    "CloseResult",
    "FeedFrame",
    "FeedResult",
    "LoadgenResult",
    "OpenFrame",
    "ProtocolError",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerThread",
    "ShardPool",
    "StatsFrame",
    "StreamServer",
    "decode_frame",
    "decode_mask_chunk",
    "drifting_masks",
    "encode_frame",
    "encode_mask_chunk",
    "parse_request",
    "policy_from_spec",
    "run_loadgen",
    "shard_index",
]
