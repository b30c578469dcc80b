"""Sharded session pools: many :class:`StreamHub` workers under one roof.

A single :class:`~repro.engine.stream.StreamHub` advances sessions back
to back in one thread.  Sessions are independent, so the serving layer
hash-partitions them across a pool of *shards*, each wrapping one hub.
The shard count decides where the hubs run:

* **one shard** runs its hub in-process behind a lock — nothing
  crosses a process boundary;
* **N > 1 shards** run one hub per child process.  Each drain cycle's
  lane chunks cross the process boundary pickled, as one pipe message;
  the lane bytes land in the pool metrics as bytes shipped.

Either kind replies to a drain cycle with its hub's
:class:`~repro.engine.stream.FeedRows`, counters only: the session ids
and five counter arrays, no per-step array and no per-session object.

Hubs on threads of one process share its GIL.  Through a loopback
``repro serve`` on 2 vCPUs (client in its own process, 64 rent-or-buy
sessions of width 96, 256-step chunks, one binary burst per round;
median steps/s and quartiles of 5–6 alternating runs), hubs on
threads lost every run to hubs in processes::

    working set drifts   shards   thread hubs          process hubs
    every 600 steps      2        0.65M (0.65-0.68M)   0.80M (0.77-0.83M)
    every 600 steps      4        0.41M (0.40-0.42M)   0.62M (0.59-0.64M)
    every 40 steps       2        0.32M (0.32-0.32M)   0.55M (0.50-0.56M)
    every 40 steps       4        0.19M (0.18-0.20M)   0.40M (0.38-0.40M)

A process shard whose worker dies is marked down: its sessions' feeds
and closes fail with an error naming the shard, and :meth:`ShardPool.stats`
reports it with ``up: False`` while the other shards keep serving.
A close on a down shard still frees the session's slot.  Nothing
respawns the shard.

Placement is **decision-free**: a session's shard is
``crc32(session_id) % shards`` (stable across runs and processes), and
every session runs its own independent cursor state, so per-session
costs are bit-identical no matter how many shards serve the fleet —
``tests/test_serve_shard.py`` pins a pool of any shape against a single
hub.  Aggregate accounting (sessions, steps, hypers, wall time) is
recorded parent-side into one shared
:class:`~repro.engine.metrics.EngineMetrics`, so the operator report
looks the same whether the fleet runs on one hub or sixteen shards.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from itertools import count

import numpy as np

from repro.core.switches import SwitchUniverse
from repro.engine.metrics import DETERMINISTIC_FAMILIES, EngineMetrics
from repro.engine.stream import CloseResult, FeedRows, StreamHub
from repro.obs.catalog import DRAIN_CYCLE
from repro.obs.histogram import HistogramFamily

__all__ = ["ShardDown", "ShardPool", "shard_index", "shard_kind"]


def shard_index(session_id: str, shards: int) -> int:
    """Stable hash placement (``hash()`` is salted per process; crc32
    is not, so placement survives restarts and crosses processes)."""
    if shards < 1:
        raise ValueError("shards must be at least 1")
    return zlib.crc32(session_id.encode()) % shards


def shard_kind(shards: int) -> str:
    """Where a pool of ``shards`` runs its hubs: ``"thread"`` (one hub,
    in-process) or ``"proc"`` (one child process per hub)."""
    return "thread" if shards == 1 else "proc"


class ShardDown(RuntimeError):
    """A process shard's worker is gone; its sessions cannot be served."""


# ---------------------------------------------------------------------------
# Shard workers
# ---------------------------------------------------------------------------


class _ThreadShard:
    """One in-process hub behind a lock (drainers and CLI paths may
    touch different shards concurrently, never one shard twice)."""

    kind = "thread"
    up = True

    def __init__(self):
        # The shard hub keeps its own private metrics (the pool
        # aggregates parent-side so thread and process shards report
        # identically) and drops finished runs — a serving process
        # closing sessions forever must not retain them.
        self.hub = StreamHub(metrics=EngineMetrics(), retain_runs=False)
        self.lock = threading.Lock()

    def open(self, scheduler, universe, w, session_id):
        with self.lock:
            return self.hub.open(
                scheduler, universe, w, session_id=session_id
            )

    def feed_many(self, chunks):
        """One drain cycle: the hub's rows, counters only (as a process
        shard's pickled reply carries them), plus its fused/fallback
        session counts for that cycle (the pool re-records them in the
        parent metrics so thread and process shards report alike)."""
        with self.lock:
            rows = self.hub.feed_many(chunks)
            fused = self.hub.last_fused
        return rows.counters(), fused

    def finish(self, session_id) -> CloseResult:
        with self.lock:
            return self.hub.finish(session_id)

    def hist_wire(self) -> dict:
        """Mergeable snapshots of the deterministic histogram families
        this shard's hub recorded (chunk steps, session cost/steps)."""
        with self.lock:
            return self.hub.metrics.hist_wire(DETERMINISTIC_FAMILIES)

    def close(self):
        pass


def _shard_worker(conn):  # pragma: no cover - exercised in a child process
    """Process-shard main loop: one hub, commands over a pipe."""
    hub = StreamHub(metrics=EngineMetrics(), retain_runs=False)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        op = msg[0]
        try:
            if op == "open":
                _op, scheduler, universe, w, session_id = msg
                conn.send(("ok", hub.open(
                    scheduler, universe, w, session_id=session_id
                )))
            elif op == "feed_many":
                # A pickled FeedRows is its counters: ids and five
                # arrays, no per-step arrays.
                rows = hub.feed_many(msg[1])
                conn.send(("ok", (rows, hub.last_fused)))
            elif op == "finish":
                conn.send(("ok", hub.finish(msg[1])))
            elif op == "metrics":
                conn.send(
                    ("ok", hub.metrics.hist_wire(DETERMINISTIC_FAMILIES))
                )
            elif op == "stop":
                conn.send(("ok", None))
                break
            else:
                conn.send(("err", "ValueError", f"unknown shard op {op!r}"))
        except Exception as exc:  # noqa: BLE001 - process boundary
            conn.send(("err", type(exc).__name__, str(exc)))
    conn.close()


_ERROR_TYPES = {
    "ValueError": ValueError,
    "KeyError": KeyError,
    "RuntimeError": RuntimeError,
}


class _ProcShard:
    """One hub in a child process, commands over a duplex pipe.

    A pipe error means the worker is gone: the shard marks itself down
    and every later call raises :class:`ShardDown` without touching
    the pipe.
    """

    kind = "proc"

    def __init__(self, index: int):
        parent, child = multiprocessing.Pipe()
        self.index = index
        self.up = True
        self._conn = parent
        self._proc = multiprocessing.Process(
            target=_shard_worker, args=(child,), daemon=True
        )
        self._proc.start()
        child.close()
        self.lock = threading.Lock()

    def _call(self, *msg):
        with self.lock:
            if not self.up:
                raise ShardDown(f"shard {self.index} is down")
            try:
                self._conn.send(msg)
                reply = self._conn.recv()
            except (EOFError, OSError) as exc:
                self.up = False
                raise ShardDown(
                    f"shard {self.index} is down "
                    f"({type(exc).__name__}: {exc})"
                ) from exc
        if reply[0] == "ok":
            return reply[1]
        _tag, name, text = reply
        raise _ERROR_TYPES.get(name, RuntimeError)(text)

    def open(self, scheduler, universe, w, session_id):
        return self._call("open", scheduler, universe, w, session_id)

    def feed_many(self, chunks):
        return self._call("feed_many", chunks)

    def finish(self, session_id) -> CloseResult:
        return self._call("finish", session_id)

    def hist_wire(self) -> dict:
        """Deterministic-family snapshots shipped over the pipe."""
        return self._call("metrics")

    def close(self):
        with self.lock:
            if self._proc.is_alive():
                try:
                    self._conn.send(("stop",))
                    self._conn.recv()
                except (BrokenPipeError, EOFError, OSError):
                    pass
            self._conn.close()
        self._proc.join(timeout=5)
        if self._proc.is_alive():  # pragma: no cover - stuck worker
            self._proc.terminate()
            self._proc.join(timeout=5)


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


class ShardPool:
    """Sessions hash-partitioned across a pool of hub shards.

    The drop-in sharded counterpart of a single
    :class:`~repro.engine.stream.StreamHub`: ``open`` / ``feed_many`` /
    ``finish`` keep their shapes, chunks are partitioned by the owning
    shard and advanced concurrently (one executor worker per shard),
    and per-session results are bit-identical to the single-hub replay
    regardless of ``shards``.

    Parameters
    ----------
    shards:
        Number of hub workers: one runs in-process, more run one child
        process each (commands and pickled lane chunks over a pipe;
        see the module docstring for why).
    metrics:
        Parent-side :class:`EngineMetrics` all aggregate streaming
        counters land in (created when omitted).
    tracer:
        Optional :class:`~repro.obs.trace.TraceRecorder`; the pool
        records parent-side ``drain`` and ``close`` spans.
    """

    def __init__(
        self,
        shards: int = 1,
        *,
        metrics: EngineMetrics | None = None,
        tracer=None,
    ):
        if shards < 1:
            raise ValueError("shards must be at least 1")
        self.shards = shards
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else EngineMetrics()
        self._shards = (
            [_ThreadShard()] if shards == 1
            else [_ProcShard(i) for i in range(shards)]
        )
        self._executor = ThreadPoolExecutor(
            max_workers=shards, thread_name_prefix="shard"
        )
        self._placement: dict[str, int] = {}  # live session -> shard
        self._auto_id = count()
        self._lock = threading.Lock()
        self._closed = False

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._placement)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._placement

    def session_ids(self) -> tuple[str, ...]:
        return tuple(self._placement)

    def shard_of(self, session_id: str) -> int:
        """The shard serving a live session."""
        try:
            return self._placement[session_id]
        except KeyError:
            raise KeyError(f"unknown session id {session_id!r}") from None

    # -- session management ------------------------------------------------

    def open(
        self,
        scheduler,
        universe: SwitchUniverse,
        w: float,
        *,
        session_id: str | None = None,
    ) -> str:
        """Open a session on its hash-placed shard; returns the id.

        Unlike a retaining :class:`StreamHub`, closed ids become
        reusable immediately — a serving process sees the same user
        reconnect, and reserving every closed id forever would grow
        without bound.
        """
        with self._lock:
            if session_id is None:
                session_id = f"s{next(self._auto_id)}"
                while session_id in self._placement:
                    session_id = f"s{next(self._auto_id)}"
            elif session_id in self._placement:
                raise ValueError(f"session id {session_id!r} already in use")
            shard = shard_index(session_id, self.shards)
            # Reserve before the (possibly cross-process) open so two
            # racing opens of one id cannot both reach the shard.
            self._placement[session_id] = shard
        try:
            self._shards[shard].open(scheduler, universe, w, session_id)
        except BaseException:
            with self._lock:
                self._placement.pop(session_id, None)
            raise
        self.metrics.record_stream_open()
        return session_id

    # -- serving -----------------------------------------------------------

    def feed_shard(
        self, shard: int, chunks: dict[str, np.ndarray]
    ) -> FeedRows:
        """Advance one shard by one batched drain cycle.

        ``chunks`` must all belong to ``shard`` (the server's per-shard
        queues guarantee it; :meth:`feed_many` partitions for you).
        The whole cycle crosses to a process shard as a single pickled
        message.  Returns the cycle's counters-only
        :class:`~repro.engine.stream.FeedRows`.
        """
        if not chunks:
            return FeedRows.concat(())
        start = time.perf_counter()
        out = self._feed_shard(shard, chunks)
        elapsed = time.perf_counter() - start
        steps = int(out.steps.sum())
        self.metrics.record_stream(
            steps=steps,
            hypers=int(out.hypers.sum()),
            seconds=elapsed,
            drain_shard=shard,
        )
        if self.tracer is not None:
            self.tracer.record(
                "drain",
                duration=elapsed,
                shard=shard,
                sessions=len(out),
                steps=steps,
            )
        return out

    def _feed_shard(self, shard, chunks) -> FeedRows:
        """One shard drain cycle, no latency metrics (callers time
        themselves); the cycle's fused/fallback counts are folded into
        the pool metrics here, where both shard kinds converge."""
        worker = self._shards[shard]
        if worker.kind == "proc":
            self.metrics.record_shipment(shipped=sum(
                lanes.nbytes for lanes in chunks.values()
                if isinstance(lanes, np.ndarray)
            ))
        out, fused = worker.feed_many(chunks)
        if fused[0] or fused[1]:
            self.metrics.record_fused(
                sessions=fused[0],
                fallback=fused[1],
                group_sizes=fused[2],
                epochs=fused[3],
                triggers=fused[4],
            )
        return out

    def feed_many(self, chunks) -> FeedRows:
        """Serve one chunk per session, shards advanced concurrently.

        Returns the cycle's counters-only
        :class:`~repro.engine.stream.FeedRows`, shard by shard (each
        shard's rows in the caller's order).  The cycle's *wall* time
        (not the sum of per-shard busy times) lands in the metrics, so
        the steps/s row reflects what sharding actually buys.
        """
        per_shard: dict[int, dict[str, object]] = {}
        for sid, masks in chunks.items():
            per_shard.setdefault(self.shard_of(sid), {})[sid] = masks
        if not per_shard:
            return FeedRows.concat(())
        start = time.perf_counter()
        if len(per_shard) == 1:
            ((shard, shard_chunks),) = per_shard.items()
            out = self._feed_shard(shard, shard_chunks)
        else:
            futures = [
                self._executor.submit(self._feed_shard, shard, shard_chunks)
                for shard, shard_chunks in per_shard.items()
            ]
            out = FeedRows.concat(future.result() for future in futures)
        self.metrics.record_stream(
            steps=int(out.steps.sum()),
            hypers=int(out.hypers.sum()),
            seconds=time.perf_counter() - start,
        )
        return out

    # -- closing -----------------------------------------------------------

    def finish(self, session_id: str) -> CloseResult:
        """Close one session into its :class:`CloseResult`; the id
        becomes reusable.  A close that fails — :class:`ShardDown`
        from a dead shard — frees the session's slot all the same."""
        shard = self.shard_of(session_id)
        try:
            close = self._shards[shard].finish(session_id)
        finally:
            with self._lock:
                self._placement.pop(session_id, None)
        # Counter only: the shard's hub recorded the deterministic
        # cost/steps histograms where the session actually ran, so the
        # merged view counts every close exactly once.
        self.metrics.record_session_close()
        if self.tracer is not None:
            self.tracer.record(
                "close", session=session_id, shard=shard, steps=close.steps,
            )
        return close

    def finish_all(self) -> dict[str, CloseResult]:
        """Close every live session; returns id → close record."""
        return {sid: self.finish(sid) for sid in self.session_ids()}

    def merged_histograms(self) -> dict[str, HistogramFamily]:
        """One labeled histogram view of the whole pool.

        Starts from the parent-side families (timing: drain cycles,
        feed latency) and folds in every shard's deterministic-family
        wire snapshot tagged ``shard=<i>`` — process shards ship theirs
        over the pipe.  The fixed bucket boundaries make the fold pure
        addition, so the aggregate of each deterministic family is
        bit-identical to what a single hub records for the same
        traffic, no matter the pool shape.  A down shard's families are
        gone with its process and are skipped.
        """
        merged = {
            name: HistogramFamily.from_wire(wire)
            for name, wire in self.metrics.hist_wire().items()
        }
        for i, shard in enumerate(self._shards):
            try:
                wires = shard.hist_wire()
            except ShardDown:
                continue
            for name, wire in wires.items():
                merged[name].merge_wire(wire, extra_labels={"shard": str(i)})
        return merged

    def stats(self, merged: dict[str, HistogramFamily] | None = None) -> dict:
        """Aggregate snapshot: engine counters, merged histograms (or
        the ``merged`` the caller already took), and per-shard
        liveness, occupancy and drain-cycle latency quantiles."""
        with self._lock:
            occupancy = [0] * self.shards
            for shard in self._placement.values():
                occupancy[shard] += 1
        if merged is None:
            merged = self.merged_histograms()
        drain_by_shard = {
            labels.get("shard"): hist
            for labels, hist in merged[DRAIN_CYCLE.name].series()
        }
        shards = []
        for i in range(self.shards):
            row = {
                "shard": i,
                "kind": self._shards[i].kind,
                "up": self._shards[i].up,
                "sessions": occupancy[i],
            }
            drain = drain_by_shard.get(str(i))
            if drain is not None and drain.count:
                row["drain"] = drain.snapshot()
            shards.append(row)
        return {
            "engine": self.metrics.snapshot(),
            "histograms": {
                name: fam.snapshot() for name, fam in merged.items()
            },
            "shards": shards,
            "sessions": sum(occupancy),
        }

    def close(self) -> None:
        """Tear down shard workers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardPool(shards={self.shards}, "
            f"kind={shard_kind(self.shards)}, "
            f"live={len(self._placement)})"
        )
