"""Synchronous client for the serving protocol.

:class:`ServeClient` owns one TCP connection.  Every call writes its
frame(s) and blocks for the replies — the server answers every frame
with exactly one reply, in request order, so reply matching is
positional and needs no correlation ids.  :meth:`feed_pipelined`
serves a whole burst of chunks with one round trip: over the binary
protocol (v3) the burst is one ``feed_many`` frame (split only to stay
under ``MAX_FRAME_BYTES`` or past ``MAX_FEED_ENTRIES`` chunks, so that
each reply fits one frame too) answered by one reply that lists every
chunk's result; over JSON it is one frame per chunk, sent with one
``sendall``.

Over the binary protocol, :meth:`feed` is a burst of one chunk: one
``feed_many`` frame of one entry.  The encoder byte-shuffles each
chunk's rows into byte planes and deflates the planes, and sends that
section only when it is smaller than the raw rows; JSON feeds carry
base64 masks.

The client remembers each opened session's universe width, so
:meth:`feed` accepts plain int masks *or* pre-packed ``(C, L)`` lane
arrays and encodes them itself.

Wire protocol (``proto=``):

* ``"bin"`` (default) — every ``open`` asks for the binary protocol
  (``proto: 3``) and feeds go out as binary frames.  Every server
  accepts them; an open reply that does not confirm ``proto: 3`` is
  answered by closing the session it opened and raising
  :class:`ServeError`.
* ``"json"`` — classic v1 JSON frames only (debugging, packet capture).
"""

from __future__ import annotations

import socket
from dataclasses import dataclass

from repro.engine.stream import CloseResult
from repro.serve.protocol import (
    MAX_FEED_ENTRIES,
    MAX_FRAME_BYTES,
    PROTO_BIN,
    _as_lanes,
    decode_frame,
    encode_feed_bin,
    encode_frame,
    encode_mask_chunk,
    feed_entry_bytes,
)

__all__ = ["CloseResult", "FeedResult", "ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """The server answered ``{"ok": false}`` (the connection survives)."""


@dataclass(frozen=True)
class FeedResult:
    """Accounting of one served chunk (mirror of the reply frame)."""

    session: str
    start: int
    steps: int
    hypers: int
    cost: float
    cumulative_cost: float


def _feed_result(session: str, reply: dict) -> FeedResult:
    return FeedResult(
        session=session,
        start=reply["start"],
        steps=reply["steps"],
        hypers=reply["hypers"],
        cost=reply["cost"],
        cumulative_cost=reply["cumulative_cost"],
    )


class ServeClient:
    """One blocking connection to a :class:`~repro.serve.server.StreamServer`.

    Parameters
    ----------
    host, port:
        Server address (e.g. from :class:`ServerThread.start`).
    timeout:
        Socket timeout per reply, seconds.
    proto:
        Wire protocol: ``"bin"`` | ``"json"`` (see the module
        docstring).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 60.0,
        proto: str = "bin",
    ):
        if proto not in ("json", "bin"):
            raise ValueError(f"unknown wire protocol {proto!r}")
        #: The wire protocol feeds go out in.
        self.proto = proto
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._recv = bytearray()
        self._widths: dict[str, int] = {}
        self._closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- plumbing ----------------------------------------------------------

    def _send(self, data: bytes) -> None:
        if self._closed:
            raise RuntimeError("client is closed")
        self._sock.sendall(data)
        self.bytes_sent += len(data)

    def _recv_reply(self) -> dict:
        """Read one newline-terminated JSON reply off the persistent
        receive buffer (replies are always JSON lines, both protocols)."""
        while True:
            newline = self._recv.find(b"\n")
            if newline >= 0:
                line = bytes(self._recv[: newline + 1])
                del self._recv[: newline + 1]
                return decode_frame(line)
            if len(self._recv) > MAX_FRAME_BYTES:
                raise ConnectionError("oversized reply frame")
            data = self._sock.recv(65536)
            if not data:
                raise ConnectionError("server closed the connection")
            self.bytes_received += len(data)
            self._recv.extend(data)

    def _reply_ok(self) -> dict:
        reply = self._recv_reply()
        if not reply.get("ok"):
            raise ServeError(reply.get("error", "unspecified server error"))
        return reply

    def call(self, payload: dict) -> dict:
        """Send one raw JSON frame, return the decoded success reply.

        Escape hatch for tests poking at the protocol; the typed
        methods below are the real API.
        """
        self._send(encode_frame(payload))
        return self._reply_ok()

    # -- session API -------------------------------------------------------

    def open(
        self,
        *,
        policy: str = "rent_or_buy",
        width: int,
        w: float,
        session_id: str | None = None,
        trace: str | None = None,
        **params,
    ) -> str:
        """Open a session; returns its (possibly generated) id.

        A binary client requires the reply to confirm ``proto: 3``
        (see the module docstring).  ``trace`` is an optional
        client-chosen trace id: the server echoes it in the reply and
        attaches it to its span events (same on :meth:`feed` /
        :meth:`close_session`).
        """
        frame = {"op": "open", "policy": policy, "width": width, "w": w}
        if session_id is not None:
            frame["session"] = session_id
        if trace is not None:
            frame["trace"] = trace
        frame.update(params)
        if self.proto == "bin":
            frame["proto"] = PROTO_BIN
        reply = self.call(frame)
        sid = reply["session"]
        if self.proto == "bin" and reply.get("proto") != PROTO_BIN:
            # The server opened the session all the same: close it, so
            # its id is free again and it holds no server state.
            self.call({"op": "close", "session": sid})
            raise ServeError(
                "server did not confirm binary wire protocol "
                f"(answered proto={reply.get('proto')!r})"
            )
        self._widths[sid] = width
        return sid

    def _width_of(self, session_id: str) -> int:
        try:
            return self._widths[session_id]
        except KeyError:
            raise KeyError(
                f"session {session_id!r} was not opened by this client"
            ) from None

    def _encode_feed(
        self, session_id: str, masks, *, trace: str | None
    ) -> bytes:
        """One JSON ``feed`` frame as wire bytes."""
        width = self._width_of(session_id)
        count = len(masks)
        if count == 0:
            raise ValueError("feed chunks must contain at least one mask")
        frame = {
            "op": "feed",
            "session": session_id,
            "count": count,
            "masks": encode_mask_chunk(masks, width),
        }
        if trace is not None:
            frame["trace"] = trace
        return encode_frame(frame)

    def feed(
        self, session_id: str, masks, *, trace: str | None = None
    ) -> FeedResult:
        """Serve a chunk of requirements on one session.

        Over the binary protocol the chunk is a one-entry ``feed_many``
        frame.  Traced feeds ride JSON even there — the binary frame has
        no trace field, and tracing already opted into the verbose path.
        """
        if self.proto == "bin" and trace is None:
            return self.feed_pipelined([(session_id, masks)])[0]
        self._send(self._encode_feed(session_id, masks, trace=trace))
        return _feed_result(session_id, self._reply_ok())

    def feed_pipelined(
        self, batch: list[tuple[str, object]]
    ) -> list[FeedResult]:
        """Serve many chunks with one round trip's worth of latency.

        ``batch`` is ``[(session_id, masks), ...]``; a session may
        appear more than once, and its chunks are served in batch
        order.  Over the binary protocol the batch goes out as one
        ``feed_many`` frame (more only when it would exceed
        ``MAX_FRAME_BYTES`` or ``MAX_FEED_ENTRIES`` chunks); over JSON
        as one frame per chunk, back-to-back in one ``sendall``.  Either
        way the replies drain in request order.  On an error reply the
        remaining replies are still drained (the connection stays
        usable) before :class:`ServeError` raises.
        """
        if not batch:
            return []
        if self.proto == "bin":
            frames = self._feed_many_frames(batch)
        else:
            frames = [
                (self._encode_feed(sid, masks, trace=None), [sid])
                for sid, masks in batch
            ]
        self._send(b"".join(data for data, _sids in frames))
        results: list[FeedResult] = []
        failure: ServeError | None = None
        for _data, sids in frames:
            reply = self._recv_reply()
            if reply.get("ok") and reply.get("op") == "feed_many":
                items = reply["replies"]
            else:  # a JSON feed's reply, or a frame-level error
                items = [reply] * len(sids)
            if len(items) != len(sids):
                raise ConnectionError(
                    f"feed_many reply has {len(items)} items for "
                    f"{len(sids)} entries"
                )
            for sid, item in zip(sids, items):
                if item.get("ok"):
                    results.append(_feed_result(sid, item))
                elif failure is None:
                    failure = ServeError(
                        item.get("error", "unspecified server error")
                    )
        if failure is not None:
            raise failure
        return results

    def _feed_many_frames(
        self, batch: list[tuple[str, object]]
    ) -> list[tuple[bytes, list[str]]]:
        """A burst as ``feed_many`` frames: (wire bytes, session per
        entry).  Entries fill a frame until its raw payload would pass
        ``MAX_FRAME_BYTES`` or it holds ``MAX_FEED_ENTRIES`` entries,
        the most one reply line can answer.  The server refuses any
        frame whose lanes total more than ``MAX_FRAME_BYTES``, so a
        chunk that alone is larger raises :class:`ValueError` here,
        before anything is sent."""
        groups: list[list[tuple[str, object]]] = [[]]
        size = HEAD = 2  # the u16 entry count
        for sid, masks in batch:
            lanes = _as_lanes(masks, self._width_of(sid))
            if len(lanes) == 0:
                raise ValueError(
                    "feed chunks must contain at least one mask"
                )
            if lanes.nbytes > MAX_FRAME_BYTES:
                raise ValueError(
                    f"a feed chunk of {lanes.nbytes} lane bytes exceeds "
                    f"the {MAX_FRAME_BYTES}-byte frame limit; split it"
                )
            nbytes = feed_entry_bytes(sid, lanes)
            group = groups[-1]
            if group and (
                size + nbytes > MAX_FRAME_BYTES
                or len(group) == MAX_FEED_ENTRIES
            ):
                groups.append([])
                size = HEAD
            groups[-1].append((sid, lanes))
            size += nbytes
        return [
            (
                encode_feed_bin(group),
                [sid for sid, _lanes in group],
            )
            for group in groups
        ]

    def close_session(
        self, session_id: str, *, trace: str | None = None
    ) -> CloseResult:
        """Close one session; returns its :class:`CloseResult`."""
        frame = {"op": "close", "session": session_id}
        if trace is not None:
            frame["trace"] = trace
        try:
            reply = self.call(frame)
        finally:
            # The server forgets the id whatever the close's outcome.
            self._widths.pop(session_id, None)
        return CloseResult(
            session=session_id,
            solver=reply["solver"],
            steps=reply["steps"],
            hypers=reply["hypers"],
            cost=reply["cost"],
        )

    def stats(self) -> dict:
        """Aggregate server/shard/engine counters."""
        return self.call({"op": "stats"})

    def metrics(self) -> dict:
        """Full telemetry dump: JSON snapshot, labeled histogram wire
        snapshots, and the Prometheus text exposition."""
        return self.call({"op": "metrics"})

    # -- lifecycle ---------------------------------------------------------

    def adopt(self, session_id: str, width: int) -> None:
        """Register a session opened elsewhere (sessions are
        server-global; any connection may feed any open session)."""
        self._widths[session_id] = width

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
