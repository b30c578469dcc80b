"""Asyncio front door: the shard pool as a long-running network service.

:class:`StreamServer` listens on TCP (and/or speaks the same protocol
over stdin/stdout) and turns newline-delimited JSON frames
(:mod:`repro.serve.protocol`) into shard-pool calls:

* **admission control** — ``open`` is rejected once ``max_sessions``
  live sessions exist; ``feed`` frames larger than ``max_chunk_steps``
  are rejected at the parse boundary; oversized lines kill only the
  offending connection;
* **per-shard batching** — ``feed`` frames do not hit the pool one by
  one: each lands in the owning shard's bounded queue, and a drainer
  task per shard collects everything queued (one chunk per session,
  FIFO order preserved) into **one**
  :meth:`~repro.serve.shard.ShardPool.feed_shard` call per drain
  cycle.  Under load, frames that arrive while a cycle runs coalesce
  into the next one — the batch size adapts to the backlog;
* **backpressure** — one bound, ``queue_depth``, caps both each
  shard queue and each connection's staged-but-unanswered replies,
  counted in feed chunks (a ``feed_many`` frame of N entries weighs
  N); when a shard falls behind or a client stops reading, frames
  wait in the reader coroutine, TCP flow control propagates the stall
  to the client, and memory stays bounded.  A pipelined burst of up to
  ``queue_depth`` chunks — one ``feed_many`` frame from a binary client —
  is staged whole, so it is swept in one drain cycle;
* **ordering** — ``close`` travels through the same shard queue as a
  barrier, so a session's pending feeds are always served before its
  counters are closed.  Each ``feed_many`` entry is staged
  as its own shard job, in entry order, so batching a burst into one
  frame changes neither shard routing nor per-session order.

Sessions are server-global (not per-connection): any connection may
feed any open session, and a dropped connection leaves its sessions
live for a reconnect.  Per-session decisions come out bit-identical to
a single-threaded :class:`~repro.engine.stream.StreamHub` replay —
sharding and batching change the schedule of the work, never its
answers (``tests/test_serve_server.py`` pins 256 concurrent sessions
against the single-hub oracle).
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.switches import SwitchUniverse
from repro.obs import catalog
from repro.obs.expo import MetricsHTTPServer
from repro.obs.trace import TraceRecorder
from repro.serve.protocol import (
    BIN_HEADER,
    BIN_MAGIC,
    BIN_VERSION,
    MAX_FRAME_BYTES,
    BinFeedFrame,
    PROTO_BIN,
    CloseFrame,
    FeedFrame,
    MetricsFrame,
    OpenFrame,
    ProtocolError,
    StatsFrame,
    decode_frame,
    decode_mask_chunk,
    encode_frame,
    error_frame,
    ok_frame,
    parse_bin_feed,
    parse_request,
    policy_from_spec,
)
from repro.serve.shard import ShardPool

__all__ = ["ServeConfig", "ServerThread", "StreamServer"]

#: Seconds a connection has to deliver the rest of a frame once its
#: first byte has arrived.  A frame still incomplete then earns an
#: error reply and a close; a connection idle between frames has no
#: deadline.
FRAME_DEADLINE_S = 30.0


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one serving process.

    ``shards`` also decides where the hubs run: one shard runs in this
    process, more run one child process each (see
    :mod:`repro.serve.shard`).  Every connection may send binary v3
    feed frames; a client that wants plain JSON simply never asks for
    them.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (the bound port is in .address)
    shards: int = 1
    max_sessions: int = 4096
    max_chunk_steps: int = 65536
    queue_depth: int = 64
    #: Per-session state is O(width · history); without these caps one
    #: `open` frame could allocate gigabytes of cursor state before
    #: max_sessions ever mattered.
    max_width: int = 65536
    max_history: int = 65536
    #: ``None`` disables the HTTP telemetry plane; ``0`` binds an
    #: ephemeral port (tests), anything else the given port.
    metrics_port: int | None = None
    #: Seconds between periodic stderr stats lines (``None`` = off).
    stats_interval: float | None = None
    #: Spans at least this many milliseconds land in the slow-request
    #: log (ring + rate-limited stderr line).  ``None``/``0`` disables.
    slow_ms: float | None = 100.0
    #: Span ring size of the request tracer (``0`` disables tracing).
    trace_capacity: int = 2048

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        if self.max_chunk_steps < 1:
            raise ValueError("max_chunk_steps must be at least 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        if self.max_width < 1:
            raise ValueError("max_width must be at least 1")
        if self.max_history < 1:
            raise ValueError("max_history must be at least 1")
        if self.metrics_port is not None and not (
            0 <= self.metrics_port <= 65535
        ):
            raise ValueError("metrics_port must be in [0, 65535]")
        if self.stats_interval is not None and self.stats_interval <= 0:
            raise ValueError("stats_interval must be positive")
        if self.slow_ms is not None and self.slow_ms < 0:
            raise ValueError("slow_ms must be non-negative")
        if self.trace_capacity < 0:
            raise ValueError("trace_capacity must be non-negative")


def _echo(frame) -> dict:
    """Reply fields echoed from the request (the client's trace id)."""
    return {"trace": frame.trace} if frame.trace is not None else {}


async def _ready(reply: dict) -> dict:
    """A reply that needs no further work, as an awaitable (the reply
    sender awaits every staged item uniformly)."""
    return reply


@dataclass
class _EncodedChunk:
    """A feed payload whose decode is deferred to the drain executor.

    Base64 text for JSON feeds, a raw (possibly deflated) binary
    section for binary ones — either way the event loop never touches
    the bytes; the drainer resolves them on the shard executor and
    books the CPU under ``wire_decode_seconds_total{proto=...}``.
    """

    proto: str
    _resolve: object  # () -> validated (C, L) uint64 lanes

    def resolve(self) -> np.ndarray:
        return self._resolve()


@dataclass
class _Job:
    """One queued shard operation (a feed chunk or a close barrier).

    ``enqueued`` (perf-counter seconds) marks when the job entered the
    shard queue; the drainer subtracts it from its cycle start to split
    each span into queue-wait vs service time.
    """

    kind: str  # "feed" | "close"
    session: str
    lanes: object = None
    future: asyncio.Future = None
    enqueued: float = 0.0
    trace: str | None = None


class _ShardQueue:
    """Bounded FIFO the drainer collects cycles from.

    ``take_cycle`` greedily pops queued jobs in order, stopping at the
    first job whose session already appears in the cycle — so a cycle
    carries at most one chunk per session (``feed_many``'s contract)
    and per-session order is never reordered across cycles.
    """

    def __init__(self, depth: int):
        self._depth = depth
        self._jobs: deque[_Job] = deque()
        self._cond = asyncio.Condition()

    async def put(self, job: _Job) -> None:
        async with self._cond:
            while len(self._jobs) >= self._depth:
                await self._cond.wait()
            self._jobs.append(job)
            self._cond.notify_all()

    async def take_cycle(self) -> tuple[dict[str, _Job], list[_Job]]:
        """Wait for work; return (feeds by session, closes in order)."""
        async with self._cond:
            while not self._jobs:
                await self._cond.wait()
            feeds: dict[str, _Job] = {}
            closes: list[_Job] = []
            seen: set[str] = set()
            while self._jobs:
                job = self._jobs[0]
                if job.session in seen:
                    break
                seen.add(job.session)
                self._jobs.popleft()
                if job.kind == "feed":
                    feeds[job.session] = job
                else:
                    closes.append(job)
            self._cond.notify_all()
            return feeds, closes

    def __len__(self) -> int:
        return len(self._jobs)

    def drain(self) -> list[_Job]:
        """Pop everything (shutdown path; the caller fails the futures).

        Runs on the event loop with no awaits, after the drainers are
        cancelled — nothing races the deque.
        """
        jobs = list(self._jobs)
        self._jobs.clear()
        return jobs


class _ReplyQueue:
    """A connection's staged replies, in request order, bounded in
    feed chunks.

    An item weighs the chunks its reply answers: ``N`` for a
    ``feed_many`` frame of N entries, 1 for any other frame.  An item
    is admitted while fewer than ``depth`` chunks wait, so a frame
    larger than the bound still passes, alone.
    """

    def __init__(self, depth: int):
        self._depth = depth
        self._items: deque = deque()
        self._chunks = 0
        self._cond = asyncio.Condition()

    async def put(self, item, chunks: int = 1) -> None:
        async with self._cond:
            while self._chunks >= self._depth:
                await self._cond.wait()
            self._items.append((item, chunks))
            self._chunks += chunks
            self._cond.notify_all()

    async def get(self):
        async with self._cond:
            while not self._items:
                await self._cond.wait()
            item, chunks = self._items.popleft()
            self._chunks -= chunks
            self._cond.notify_all()
            return item


class _ServerCounters:
    """Operator-facing request accounting of one server: one attribute
    per ``server.*`` row of the metric catalogue."""

    def __init__(self):
        self.lock = threading.Lock()
        for key in catalog.SERVER_COUNTERS:
            setattr(self, key, 0)

    def bump(self, name: str, by: int = 1) -> None:
        with self.lock:
            setattr(self, name, getattr(self, name) + by)

    def snapshot(self) -> dict:
        with self.lock:
            return {
                key: getattr(self, key) for key in catalog.SERVER_COUNTERS
            }


class StreamServer:
    """The shard pool behind a TCP/stdin frame loop.

    Build, ``await start()``, then either let the asyncio server accept
    TCP clients or pump stdin through :meth:`serve_stdin`; ``await
    stop()`` tears down drainers, listeners and (if owned) the pool.
    Tests and the load generator run the whole thing on a background
    thread via :class:`ServerThread`.
    """

    def __init__(
        self, config: ServeConfig | None = None, *, pool: ShardPool | None = None
    ):
        self.config = config if config is not None else ServeConfig()
        slow_ms = self.config.slow_ms
        self.tracer = TraceRecorder(
            self.config.trace_capacity,
            slow_threshold=slow_ms / 1e3 if slow_ms else None,
        )
        self._own_pool = pool is None
        self.pool = (
            pool
            if pool is not None
            else ShardPool(self.config.shards, tracer=self.tracer)
        )
        if self.pool.shards != self.config.shards:
            raise ValueError("pool shard count disagrees with the config")
        if self.pool.tracer is None:
            self.pool.tracer = self.tracer
        self.counters = _ServerCounters()
        self._started_mono = time.monotonic()
        self._slow_printed = 0.0  # rate limiter for stderr slow lines
        self._slow_lock = threading.Lock()
        self._metrics_http: MetricsHTTPServer | None = None
        self._reporter: asyncio.Task | None = None
        #: session id -> (universe width, shard) for feed decoding.
        self._sessions: dict[str, tuple[int, int]] = {}
        self._sessions_lock = threading.Lock()
        self._queues = [
            _ShardQueue(self.config.queue_depth)
            for _ in range(self.config.shards)
        ]
        self._drainers: list[asyncio.Task] = []
        self._server: asyncio.AbstractServer | None = None
        #: live connection: its _client_loop task -> its stream writer
        self._clients: dict[asyncio.Task, asyncio.StreamWriter] = {}
        # Shard calls block (locks, pipes, NumPy); they run off the
        # event loop so it keeps accepting frames.  Each shard's drain
        # cycles and closes run on that shard's own thread — the sweep's
        # scratch arrays then stay in one allocator arena per shard
        # instead of one per worker that ever ran a cycle.  Open, stats
        # and metrics traffic gets one worker per shard, so a scrape
        # waiting on one busy shard does not hold up every open.
        self._drain_threads = [
            ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"serve-shard{shard}"
            )
            for shard in range(self.config.shards)
        ]
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.shards, thread_name_prefix="serve"
        )

    # -- lifecycle ---------------------------------------------------------

    async def start(self, *, listen: bool = True) -> None:
        """Start drainers (and the TCP listener unless ``listen=False``)."""
        loop = asyncio.get_running_loop()
        self._started_mono = time.monotonic()
        self._drainers = [
            loop.create_task(self._drain(shard))
            for shard in range(self.config.shards)
        ]
        if self.config.metrics_port is not None:
            self._metrics_http = MetricsHTTPServer(
                self.exposition,
                self.metrics_snapshot,
                host=self.config.host,
                port=self.config.metrics_port,
            )
            self._metrics_http.start()
        if self.config.stats_interval is not None:
            self._reporter = loop.create_task(self._stats_reporter())
        if listen:
            self._server = await asyncio.start_server(
                self._client_loop,
                self.config.host,
                self.config.port,
                limit=MAX_FRAME_BYTES + 2,
            )

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) of the TCP listener."""
        if self._server is None:
            raise RuntimeError("server is not listening")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    @property
    def metrics_address(self) -> tuple[str, int] | None:
        """The bound (host, port) of the ``GET /metrics`` endpoint, or
        ``None`` when the telemetry plane is off."""
        if self._metrics_http is None:
            return None
        return self._metrics_http.address

    async def stop(self) -> None:
        """Stop listening, cancel drainers, close the owned pool.

        Live client connections are closed first and their handlers
        awaited while the drainers still run, so each handler ends on
        its own: from Python 3.12.1 ``Server.wait_closed()`` waits for
        every handler, so an idle client would otherwise stall the
        shutdown forever, and before that ``asyncio.run`` cancels the
        handlers left over, which logs a traceback per client.
        """
        if self._server is not None:
            self._server.close()
        for writer in tuple(self._clients.values()):
            writer.close()
        if self._clients:
            await asyncio.gather(*self._clients, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self._reporter is not None:
            self._reporter.cancel()
            try:
                await self._reporter
            except asyncio.CancelledError:
                pass
            self._reporter = None
        if self._metrics_http is not None:
            self._metrics_http.stop()
            self._metrics_http = None
        for task in self._drainers:
            task.cancel()
        for task in self._drainers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._drainers = []
        # Anything still queued will never be drained; fail its futures
        # so a straggling reply sender cannot wait forever.
        for queue in self._queues:
            for job in queue.drain():
                if job.future is not None and not job.future.done():
                    job.future.set_exception(
                        RuntimeError("server stopped")
                    )
        for executor in (*self._drain_threads, self._executor):
            executor.shutdown(wait=True)
        if self._own_pool:
            self.pool.close()

    # -- drainers ----------------------------------------------------------

    async def _drain(self, shard: int) -> None:
        """Forever: collect one cycle, run it, resolve its futures."""
        loop = asyncio.get_running_loop()
        queue = self._queues[shard]
        drain_thread = self._drain_threads[shard]
        while True:
            feeds, closes = await queue.take_cycle()
            # A feed can race a close issued on another connection; a
            # session gone by its drain cycle fails alone instead of
            # poisoning the whole batched feed_many call.
            for sid in [s for s in feeds if s not in self.pool]:
                job = feeds.pop(sid)
                if not job.future.done():
                    job.future.set_exception(
                        KeyError(f"unknown session id {sid!r}")
                    )
            if feeds:
                chunks = {sid: job.lanes for sid, job in feeds.items()}
                t0 = time.perf_counter()
                try:
                    summaries, failed = await loop.run_in_executor(
                        drain_thread, self._run_cycle, shard, chunks
                    )
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 - reply, don't die
                    for job in feeds.values():
                        if not job.future.done():
                            job.future.set_exception(exc)
                else:
                    service = time.perf_counter() - t0
                    for sid, exc in failed.items():
                        job = feeds.pop(sid)
                        if not job.future.done():
                            job.future.set_exception(exc)
                    for sid, job in feeds.items():
                        summary = summaries[sid]  # one row of the cycle
                        self._span(
                            "feed", job, t0, service, shard,
                            steps=summary.steps,
                        )
                        if not job.future.done():
                            job.future.set_result(summary)
            for job in closes:
                t0 = time.perf_counter()
                try:
                    close = await loop.run_in_executor(
                        drain_thread, self.pool.finish, job.session
                    )
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 - reply, don't die
                    if not job.future.done():
                        job.future.set_exception(exc)
                else:
                    self._span(
                        "close", job, t0, time.perf_counter() - t0, shard,
                        steps=close.steps,
                    )
                    if not job.future.done():
                        job.future.set_result(close)

    def _run_cycle(self, shard: int, chunks: dict):
        """One executor hop: resolve deferred decodes, feed the shard.

        Runs on the shard executor.  A chunk whose decode fails (bad
        base64, wrong section length, tail bits set) fails alone — its
        error lands in ``failed`` and the rest of the cycle proceeds —
        and the decode CPU is booked per protocol either way.
        """
        resolved: dict[str, object] = {}
        failed: dict[str, Exception] = {}
        decode: dict[str, float] = {}
        for sid, payload in chunks.items():
            t0 = time.perf_counter()
            try:
                resolved[sid] = payload.resolve()
            except ProtocolError as exc:
                failed[sid] = exc
            finally:
                decode[payload.proto] = (
                    decode.get(payload.proto, 0.0)
                    + time.perf_counter() - t0
                )
        for proto, seconds in decode.items():
            self.pool.metrics.record_wire(proto, decode_seconds=seconds)
        return self.pool.feed_shard(shard, resolved), failed

    def _span(
        self, kind: str, job: _Job, t0: float, service: float,
        shard: int, **detail,
    ) -> None:
        """Record one queued request's span (queue wait + service) and
        feed the rate-limited slow-request stderr log."""
        queue_wait = max(0.0, t0 - job.enqueued) if job.enqueued else 0.0
        event = self.tracer.record(
            kind,
            duration=queue_wait + service,
            queue_wait=queue_wait,
            trace=job.trace,
            session=job.session,
            shard=shard,
            **detail,
        )
        threshold = self.tracer.slow_threshold
        if (
            event is not None
            and threshold is not None
            and event.duration >= threshold
        ):
            now = time.monotonic()
            with self._slow_lock:
                if now - self._slow_printed < 1.0:
                    return
                self._slow_printed = now
            trace = f" trace={event.trace}" if event.trace else ""
            print(
                f"[repro.serve] slow {kind}: session={job.session} "
                f"shard={shard} total={event.duration * 1e3:.1f}ms "
                f"(queue {queue_wait * 1e3:.1f}ms + service "
                f"{service * 1e3:.1f}ms){trace}",
                file=sys.stderr,
                flush=True,
            )

    # -- frame handling ----------------------------------------------------

    async def _client_loop(self, reader, writer) -> None:
        """One connection: read frames, reply in order, never crash."""
        self.counters.bump("connections")
        handler = asyncio.current_task()
        self._clients[handler] = writer
        handler.add_done_callback(self._clients.pop)

        async def send(data: bytes) -> None:
            writer.write(data)
            await writer.drain()

        try:
            await self._pump(reader, send)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _pump(self, reader, send) -> None:
        """Shared transport loop (TCP and stdin speak the same frames).

        Frames are read and *staged* strictly in arrival order on the
        event loop — feed/close land in their shard queue here, so
        per-session order survives pipelining — while a sender task
        writes replies in the same order as their requests.  The reply
        queue is bounded by ``config.queue_depth`` feed chunks, the same
        bound as a shard queue: a pipelined burst that fits a shard
        queue is staged whole and lands in one drain cycle, while a
        client that fires frames faster than it reads replies stalls
        the reader after about ``queue_depth`` staged chunks, and TCP
        flow control carries the backpressure home.
        """
        loop = asyncio.get_running_loop()
        replies = _ReplyQueue(self.config.queue_depth)
        sender = loop.create_task(self._reply_sender(replies, send))
        try:
            while True:
                item = await self._read_frame(reader)
                if item is None:
                    break
                kind, payload = item
                if kind == "fatal":
                    self.counters.bump("protocol_errors")
                    await replies.put(
                        ("json", _ready(error_frame(payload)))
                    )
                    break
                self.counters.bump("frames")
                proto = "bin" if kind == "bin" else "json"
                chunks = 1
                try:
                    if kind == "bin":
                        finish, chunks = await self._stage_bin(*payload)
                    else:
                        finish = await self._stage(payload)
                except Exception as exc:  # noqa: BLE001 - reply, don't die
                    finish = _ready(self._error_reply(exc))
                await replies.put((proto, finish), chunks)
        finally:
            await replies.put(None, 0)
            await sender

    async def _reply_sender(self, replies: _ReplyQueue, send) -> None:
        """Write replies strictly in request order.

        Each queue item is ``(proto, awaitable)``; the awaitable
        produces the reply dict (feed/close block on their shard
        future).  A dead peer stops the writes but not the consumption:
        staged shard work still resolves, so nothing leaks.
        """
        broken = False
        while True:
            item = await replies.get()
            if item is None:
                return
            proto, finish = item
            try:
                reply = await finish
            except Exception as exc:  # noqa: BLE001 - reply, don't die
                reply = self._error_reply(exc)
            if broken:
                continue
            data = encode_frame(reply)
            try:
                await send(data)
            except (ConnectionResetError, BrokenPipeError, OSError):
                broken = True
            else:
                self.pool.metrics.record_wire(proto, bytes_out=len(data))

    def _error_reply(self, exc: Exception) -> dict:
        """Count a failed request and build its error reply.

        Protocol violations count as ``protocol_errors``; anything else
        — unknown sessions, bad parameters, an unexpected exception out
        of a shard — counts as ``errors``.  Either way the connection
        gets a reply and keeps serving; an exception of a type no
        request path raises on purpose also logs its traceback.
        """
        if isinstance(exc, ProtocolError):
            self.counters.bump("protocol_errors")
            return error_frame(str(exc))
        self.counters.bump("errors")
        if not isinstance(exc, (KeyError, ValueError, RuntimeError)):
            print("[repro.serve] unexpected error in a request:",
                  file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)
        # An OSError's args[0] is its errno: name the exception instead.
        if exc.args and isinstance(exc.args[0], str):
            message = exc.args[0]
        else:
            message = f"{type(exc).__name__}: {exc}"
        return error_frame(message)

    async def _read_frame(self, reader):
        """One frame off the wire.

        Returns ``("json", line)``, ``("bin", (opcode, flags,
        payload))``, ``("fatal", message)`` on unrecoverable framing
        loss, or ``None`` at EOF.  Binary frames are detected by their
        magic byte — 0xA7 can never open a JSON line — so both
        protocol generations share one socket.  Waiting for a frame's
        first byte has no deadline; the rest of the frame must follow
        within :data:`FRAME_DEADLINE_S`.
        """
        while True:
            try:
                first = await reader.readexactly(1)
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return None
            if first == b"\n":
                continue
            try:
                if first[0] == BIN_MAGIC:
                    return await asyncio.wait_for(
                        self._read_bin_frame(reader, first), FRAME_DEADLINE_S
                    )
                line = first + await asyncio.wait_for(
                    reader.readline(), FRAME_DEADLINE_S
                )
            except asyncio.TimeoutError:
                return "fatal", (
                    f"frame incomplete after {FRAME_DEADLINE_S:g} s"
                )
            except (asyncio.LimitOverrunError, ValueError):
                return "fatal", f"frame exceeds {MAX_FRAME_BYTES} bytes"
            if line.strip():
                break
        self.pool.metrics.record_wire(
            "json", frames_in=1, bytes_in=len(line)
        )
        return "json", line

    async def _read_bin_frame(self, reader, first: bytes):
        """The rest of a binary frame whose magic byte was ``first``."""
        try:
            header = first + await reader.readexactly(BIN_HEADER.size - 1)
        except asyncio.IncompleteReadError:
            return None
        _magic, version, opcode, flags, length = BIN_HEADER.unpack(header)
        if version != BIN_VERSION:
            return "fatal", f"unsupported binary protocol version {version}"
        if length > MAX_FRAME_BYTES:
            return "fatal", f"frame exceeds {MAX_FRAME_BYTES} bytes"
        try:
            payload = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            return None
        self.pool.metrics.record_wire(
            "bin", frames_in=1, bytes_in=BIN_HEADER.size + length
        )
        return "bin", (opcode, flags, payload)

    async def _stage(self, line: bytes):
        """Parse and admit one JSON frame in read order; return the
        awaitable that produces its reply.

        Feed and close enter their shard's bounded queue *here*, so a
        backed-up shard stalls the reader (bounded memory), and two
        frames for one session can never reorder no matter how deep the
        client pipelines.
        """
        frame = parse_request(
            decode_frame(line),
            max_chunk_steps=self.config.max_chunk_steps,
        )
        if isinstance(frame, FeedFrame):
            return await self._stage_feed(frame)
        if isinstance(frame, CloseFrame):
            return await self._stage_close(frame)
        if isinstance(frame, OpenFrame):
            # Opens run to completion at stage time: a pipelined burst
            # of open-then-feed must find the session registered when
            # the feed stages one frame later.
            return _ready(await self._handle_open(frame))
        if isinstance(frame, MetricsFrame):
            return self._handle_metrics(frame)
        return self._handle_stats(frame)

    def _session_of(self, session: str) -> tuple[int, int]:
        with self._sessions_lock:
            try:
                return self._sessions[session]
            except KeyError:
                raise KeyError(
                    f"unknown session id {session!r}"
                ) from None

    async def _enqueue_feed(
        self, session: str, shard: int, lanes, trace=None
    ) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        await self._queues[shard].put(
            _Job(
                kind="feed",
                session=session,
                lanes=lanes,
                future=future,
                enqueued=time.perf_counter(),
                trace=trace,
            )
        )
        return future

    async def _finish_feed(
        self, session: str, future: asyncio.Future, extra: dict
    ) -> dict:
        summary = await future
        return ok_frame(
            "feed",
            session=session,
            start=summary.start,
            steps=summary.steps,
            hypers=summary.hypers,
            cost=summary.cost,
            cumulative_cost=summary.cumulative_cost,
            **extra,
        )

    async def _stage_feed(self, frame: FeedFrame):
        self.counters.bump("feeds")
        width, shard = self._session_of(frame.session)
        masks, count = frame.masks, frame.count
        lanes = _EncodedChunk(
            "json", lambda: decode_mask_chunk(masks, count, width)
        )
        future = await self._enqueue_feed(
            frame.session, shard, lanes, frame.trace
        )
        return self._finish_feed(frame.session, future, _echo(frame))

    async def _stage_bin(self, opcode: int, flags: int, data: bytes):
        """Stage one binary ``feed_many`` frame like :meth:`_stage`;
        returns (reply awaitable, feed chunks it answers).

        Every entry is staged as its own shard job, in entry order; an
        entry that is malformed or names an unknown session fails
        alone, with an error reply item of its own.
        """
        entries = parse_bin_feed(
            opcode, flags, data,
            max_chunk_steps=self.config.max_chunk_steps,
        )
        self.counters.bump("feeds", len(entries))
        finishes = []
        for entry in entries:
            try:
                if isinstance(entry, ProtocolError):
                    raise entry
                finish = await self._stage_bin_entry(entry)
            except Exception as exc:  # noqa: BLE001 - reply, don't die
                finish = _ready(self._error_reply(exc))
            finishes.append(finish)
        return self._finish_many(finishes), len(finishes)

    async def _stage_bin_entry(self, entry: BinFeedFrame):
        width, shard = self._session_of(entry.session)
        lanes = _EncodedChunk("bin", lambda: entry.raw_lanes(width))
        future = await self._enqueue_feed(entry.session, shard, lanes)
        return self._finish_feed(entry.session, future, {})

    async def _finish_many(self, finishes: list) -> dict:
        """One ``feed_many`` reply: item i answers entry i."""
        replies = []
        for finish in finishes:
            try:
                replies.append(await finish)
            except Exception as exc:  # noqa: BLE001 - reply, don't die
                replies.append(self._error_reply(exc))
        return ok_frame("feed_many", replies=replies)

    async def _stage_close(self, frame: CloseFrame):
        self.counters.bump("closes")
        _width, shard = self._session_of(frame.session)
        future = asyncio.get_running_loop().create_future()
        await self._queues[shard].put(
            _Job(
                kind="close",
                session=frame.session,
                future=future,
                enqueued=time.perf_counter(),
                trace=frame.trace,
            )
        )
        return self._finish_close(frame, future)

    async def _finish_close(
        self, frame: CloseFrame, future: asyncio.Future
    ) -> dict:
        try:
            close = await future
        finally:
            # A failed close (a down shard, say) must not pin the id.
            with self._sessions_lock:
                self._sessions.pop(frame.session, None)
        return ok_frame(
            "close",
            session=frame.session,
            solver=close.solver,
            steps=close.steps,
            hypers=close.hypers,
            cost=close.cost,
            **_echo(frame),
        )

    async def _handle_open(self, frame: OpenFrame) -> dict:
        self.counters.bump("opens")
        if len(self.pool) >= self.config.max_sessions:
            self.counters.bump("rejected_sessions")
            return error_frame(
                f"server full: {self.config.max_sessions} live sessions"
            )
        if frame.width > self.config.max_width:
            self.counters.bump("rejected_sessions")
            return error_frame(
                f"open.width {frame.width} exceeds the server limit "
                f"{self.config.max_width}"
            )
        history = max(
            int(frame.params.get("memory", 0) or 0),
            int(frame.params.get("k", 0) or 0),
        )
        if history > self.config.max_history:
            self.counters.bump("rejected_sessions")
            return error_frame(
                f"policy history {history} exceeds the server limit "
                f"{self.config.max_history}"
            )
        scheduler = policy_from_spec(frame.policy, frame.w, frame.params)
        universe = SwitchUniverse.of_size(frame.width)
        loop = asyncio.get_running_loop()
        t0 = time.perf_counter()
        sid = await loop.run_in_executor(
            self._executor,
            lambda: self.pool.open(
                scheduler, universe, frame.w, session_id=frame.session
            ),
        )
        shard = self.pool.shard_of(sid)
        self.tracer.record(
            "open",
            duration=time.perf_counter() - t0,
            trace=frame.trace,
            session=sid,
            shard=shard,
        )
        with self._sessions_lock:
            self._sessions[sid] = (frame.width, shard)
        reply = ok_frame(
            "open", session=sid, shard=shard, **_echo(frame)
        )
        if frame.proto == PROTO_BIN:
            # Negotiation: the client asked for the binary protocol,
            # and every server accepts binary frames, so the reply
            # confirms it.  JSON-only clients never send the field and
            # never see it.
            reply["proto"] = PROTO_BIN
        return reply

    async def _handle_stats(self, _frame: StatsFrame) -> dict:
        self.counters.bump("stats_calls")
        loop = asyncio.get_running_loop()
        pool_stats = await loop.run_in_executor(self._executor, self.pool.stats)
        return ok_frame(
            "stats",
            server=self.counters.snapshot(),
            uptime_s=time.monotonic() - self._started_mono,
            trace=self.tracer.snapshot(),
            **pool_stats,
        )

    async def _handle_metrics(self, _frame: MetricsFrame) -> dict:
        """Full telemetry dump: labeled histogram wire snapshots, the
        JSON summary snapshot, and the Prometheus text exposition —
        everything ``GET /metrics`` serves, over the frame protocol."""
        self.counters.bump("metrics_calls")
        loop = asyncio.get_running_loop()

        def build():
            snapshot, histograms = self._scrape()
            return (
                snapshot, histograms, catalog.exposition(snapshot, histograms)
            )

        snapshot, wire, text = await loop.run_in_executor(
            self._executor, build
        )
        return ok_frame(
            "metrics",
            metrics=snapshot,
            histograms=wire,
            exposition=text,
        )

    # -- telemetry plane ---------------------------------------------------

    def _scrape(self) -> tuple[dict, dict]:
        """One pass over the telemetry: the :meth:`metrics_snapshot`
        dict plus the wire form of the same merged histograms, whose
        buckets the exposition needs."""
        merged = self.pool.merged_histograms()
        stats = self.pool.stats(merged)
        for row, queue in zip(stats["shards"], self._queues):
            row["queue_depth"] = len(queue)
        snapshot = {
            "server": self.counters.snapshot(),
            "uptime_s": time.monotonic() - self._started_mono,
            "trace": self.tracer.snapshot(),
            "slow": [e.to_dict() for e in self.tracer.slow_events(32)],
            **stats,
        }
        return snapshot, {name: fam.to_wire() for name, fam in merged.items()}

    def metrics_snapshot(self) -> dict:
        """One JSON-safe snapshot of everything: server counters,
        uptime, tracer state, recent slow spans, pool stats (engine
        counters, merged histogram summaries, per-shard rows with
        occupancy and queue depth)."""
        return self._scrape()[0]

    def exposition(self) -> str:
        """Prometheus text of :meth:`metrics_snapshot`, rendered by the
        metric catalogue (see :mod:`repro.obs.catalog`)."""
        return catalog.exposition(*self._scrape())

    async def _stats_reporter(self) -> None:
        """Periodic one-line stderr report (``--stats-interval``)."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.stats_interval)
            try:
                stats = await loop.run_in_executor(
                    self._executor, self.pool.stats
                )
            except RuntimeError:  # executor shutting down
                return
            stream = stats["engine"]["stream"]
            drain = stats["histograms"][catalog.DRAIN_CYCLE.name]
            server = self.counters.snapshot()
            print(
                f"[repro.serve] up {time.monotonic() - self._started_mono:.0f}s"
                f" sessions={stats['sessions']}"
                f" frames={server['frames']}"
                f" steps={stream['steps']}"
                f" steps/s={stream['steps_per_s']:.0f}"
                f" drain p50/p99="
                f"{drain['p50'] * 1e3:.2f}/{drain['p99'] * 1e3:.2f}ms"
                f" slow={self.tracer.snapshot()['slow']}",
                file=sys.stderr,
                flush=True,
            )

    # -- stdin mode --------------------------------------------------------

    async def serve_stdin(self) -> None:
        """Speak the frame protocol over stdin/stdout (POSIX pipes).

        The same pump as TCP connections — ``repro serve --stdin``
        turns any line-oriented parent process into a client, and the
        pipe accepts binary frames too (replies are always JSON lines
        either way).
        """
        import sys

        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader(limit=MAX_FRAME_BYTES + 2)
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )
        out = sys.stdout.buffer

        async def send(data: bytes) -> None:
            out.write(data)
            out.flush()

        await self._pump(reader, send)


class ServerThread:
    """A :class:`StreamServer` on a background thread with its own loop.

    The synchronous harness tests, the load generator and the
    ``serve-bench`` CLI all need a live loopback server without turning
    themselves into asyncio programs::

        with ServerThread(ServeConfig(shards=4)) as host_port:
            client = ServeClient(*host_port)
            ...
    """

    def __init__(self, config: ServeConfig | None = None):
        self.config = config if config is not None else ServeConfig()
        self.server: StreamServer | None = None
        self._started = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="serve-thread", daemon=True
        )

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failure
            self._error = exc
            self._started.set()

    async def _main(self) -> None:
        self.server = StreamServer(self.config)
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.server.start()
        self._started.set()
        await self._stop.wait()
        await self.server.stop()

    def start(self) -> tuple[str, int]:
        """Start the thread; block until the listener is bound."""
        self._thread.start()
        self._started.wait(timeout=30)
        if self._error is not None:
            raise self._error
        if self.server is None or self.server._server is None:
            raise RuntimeError("server failed to start")
        return self.server.address

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
