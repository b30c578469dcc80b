"""Framed wire protocol of the serving layer.

One frame per line: a JSON object terminated by ``\\n`` (newline-
delimited JSON — trivially debuggable with ``nc``/``socat``, no length
prefixes to corrupt).  Five request ops cover the streaming life
cycle, mirroring the :class:`~repro.engine.stream.StreamHub` API:

===========  =============================================================
op           payload
===========  =============================================================
``open``     ``policy`` (``rent_or_buy``/``window``), ``width`` (universe
             size), ``w`` (hyper cost), optional ``session`` id and
             policy params (``alpha``/``memory``/``k``/``scalar``)
``feed``     ``session``, ``count`` requirement masks packed into
             ``masks`` — little-endian uint64 lane rows, base64-encoded
``close``    ``session`` — finish the session into a validated run
``stats``    no payload — aggregate server/shard/engine counters
``metrics``  no payload — full labeled histogram snapshot (JSON wire
             form) plus the Prometheus text exposition
===========  =============================================================

``open``, ``feed`` and ``close`` additionally accept an optional
``trace`` string (≤128 chars): a client-chosen trace id, echoed
verbatim in the matching reply and attached to the server's span
events, so a tail-latency outlier in the trace ring can be tied back
to the exact client request that suffered it.

Replies are JSON objects too: ``{"ok": true, "op": …, …}`` on success,
``{"ok": false, "error": …}`` on failure.  Every structural violation
raises :class:`ProtocolError` (mapped to an error reply by the server,
never a dropped connection), so malformed input is rejected loudly.

Mask chunks travel in the same lane encoding the engine computes on:
a ``(count, L)`` uint64 row matrix (``L = ceil(width/64)``), serialized
little-endian row-major.  Encode/decode are shared by server and
client, and the decoder *validates* — blob length must match
``count · L · 8`` and bits above ``width`` must be zero — so the
server can hand decoded lanes straight to the packed fast path.

**Protocol v3 (binary feed frames).**  JSON + base64 costs ~35% size
overhead plus a decode on the receiving event loop; the binary protocol
moves the feed hot path onto length-prefixed binary frames while
everything else (open/close/stats/metrics, every reply) stays
newline-delimited JSON.  A binary frame is an 8-byte header followed by
the payload::

    offset  size  field
    0       1     magic 0xA7 (never a printable JSON first byte)
    1       1     version (3; any other earns an error reply and a close)
    2       1     opcode (2 = feed_many; any other earns an error reply)
    3       1     flags (bit1 DEFLATE; bit0 and bits 2-7 are reserved
                  and rejected)
    4       4     payload length, u32 little-endian

Feed-many payload: one frame carries N chunks, for any mix of sessions
— a pipelined burst is one frame, one parse, one inflate and one
reply, and a single chunk is a frame of one entry::

    u16 N                                     entry count (1..511)
    N x (u8 session-length | session utf-8 | u32 count | u16 lanes)
    lane section                              every entry's count x lanes
                                              uint64 lanes, in entry order

Lanes are little-endian uint64, row-major.  Each entry declares its
own lane count, so the section layout never depends on server state;
the lanes the entries declare total at most :data:`MAX_FRAME_BYTES`,
deflated or not, so no frame inflates past that.  DEFLATE
means shuffled planes, then zlib: each entry's ``(count, 8·lanes)``
row bytes are transposed into ``8·lanes`` byte planes of ``count``
bytes, the planes of every entry are concatenated in entry order, and
the result is one zlib stream, inflated once, bounded by the declared
total and un-shuffled back into rows.  Consecutive requirement rows
share most of their bytes, so the planes compress to about two thirds
of the plain rows' zlib size.  The reply is one JSON line ``{"ok":
true, "op": "feed_many", "replies": [...]}`` whose item i answers
entry i: a ``feed`` reply, or an error reply when only that entry is
bad (unknown session, lane count that disagrees with the session's
width, empty or non-UTF-8 session id, count out of range).
A session may appear more than once; its chunks are served in entry
order.  Faults that leave no entry locatable — a truncated entry table,
a raw section of the wrong length, an oversized section — earn one
frame-level error reply; a corrupt deflate stream fails every entry.
N is capped at :data:`MAX_FEED_ENTRIES` (511) so that the reply, too,
fits one frame: an item holds at most :data:`MAX_REPLY_ITEM_BYTES`
(error messages keep :data:`MAX_ERROR_CHARS` characters), and a frame
declaring more entries earns a frame-level error reply.

Version negotiation rides the JSON ``open`` frame: a binary client
sends ``"proto": 3``, every server confirms it with ``"proto": 3`` in
the reply, and a client refuses a reply that does not; servers detect
binary frames by the magic byte, so both protocols interleave freely
on one connection.  JSON-only
clients never see any of this.  The negotiated version is the version
in the frame headers, so an older binary client is refused, never
misread: ``"proto": 2`` on an ``open`` earns an error reply on a
connection that stays up, and a version-2 frame header earns an error
reply and a close.
"""

from __future__ import annotations

import base64
import binascii
import json
import struct
import threading
import zlib
from dataclasses import dataclass, field
from itertools import accumulate, groupby

import numpy as np

from repro.core.packed import lane_count, lanes_fit

__all__ = [
    "BIN_FLAG_DEFLATE",
    "BIN_HEADER",
    "BIN_MAGIC",
    "BIN_OP_FEED_MANY",
    "BIN_VERSION",
    "BinFeedFrame",
    "MAX_ERROR_CHARS",
    "MAX_FEED_ENTRIES",
    "MAX_FRAME_BYTES",
    "MAX_REPLY_ITEM_BYTES",
    "PROTO_BIN",
    "PROTO_JSON",
    "ProtocolError",
    "OpenFrame",
    "FeedFrame",
    "CloseFrame",
    "StatsFrame",
    "MetricsFrame",
    "encode_frame",
    "decode_frame",
    "encode_feed_bin",
    "feed_entry_bytes",
    "encode_mask_chunk",
    "decode_mask_chunk",
    "lanes_from_bytes",
    "parse_bin_feed",
    "parse_request",
    "policy_from_spec",
    "error_frame",
    "ok_frame",
]

#: Upper bound on one serialized frame (also the server's read limit).
#: 1 MiB of base64 holds ~98k single-lane requirement rows — far above
#: any sane chunk; bigger frames are a protocol violation.
MAX_FRAME_BYTES = 1 << 20

#: Protocol versions as negotiated on ``open`` frames.
PROTO_JSON = 1
PROTO_BIN = 3

#: First byte of every binary frame.  0xA7 is not valid UTF-8 as a
#: leading byte and can never start a JSON line, so one peeked byte
#: routes a connection's next frame to the right parser.
BIN_MAGIC = 0xA7
BIN_VERSION = 3
BIN_OP_FEED_MANY = 2
BIN_FLAG_DEFLATE = 0x02

#: magic, version, opcode, flags, payload length.
BIN_HEADER = struct.Struct("<BBBBI")

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
#: The fixed tail of a ``feed_many`` table entry: u32 count, u16 lanes.
_ENTRY_TAIL = struct.Struct("<IH")
#: Characters an error reply's message keeps; longer messages are cut,
#: so every reply item of a ``feed_many`` frame has a bounded size.
MAX_ERROR_CHARS = 160
#: Upper bound on one ``feed_many`` reply item plus its separator: a
#: ``feed`` reply whose session id is 255 UTF-8 bytes escaping to 6
#: JSON bytes each (~1.7 KB), or an error reply of
#: :data:`MAX_ERROR_CHARS` characters escaping to 12 bytes each (~2 KB).
MAX_REPLY_ITEM_BYTES = 2048
#: Entries one ``feed_many`` frame can carry: as many as one reply line
#: of :data:`MAX_FRAME_BYTES` can answer, with one item's room left for
#: the reply's envelope.
MAX_FEED_ENTRIES = MAX_FRAME_BYTES // MAX_REPLY_ITEM_BYTES - 1


class ProtocolError(ValueError):
    """A frame violated the wire protocol (malformed, not just unlucky)."""


# ---------------------------------------------------------------------------
# Frames (parsed requests)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpenFrame:
    """Parsed ``open`` request.

    ``proto`` is the client's highest supported protocol version
    (:data:`PROTO_JSON` when absent — every JSON-only client); the
    server answers ``proto: 3`` (:data:`PROTO_BIN`) to every open that
    asks for it.
    """

    session: str | None
    policy: str
    width: int
    w: float
    params: dict = field(default_factory=dict)
    trace: str | None = None
    proto: int = PROTO_JSON


@dataclass(frozen=True)
class FeedFrame:
    """Parsed ``feed`` request; ``masks`` stays encoded until the
    server looks up the session's universe width."""

    session: str
    count: int
    masks: str
    trace: str | None = None


@dataclass(frozen=True)
class CloseFrame:
    """Parsed ``close`` request."""

    session: str
    trace: str | None = None


@dataclass(frozen=True)
class StatsFrame:
    """Parsed ``stats`` request."""


@dataclass(frozen=True)
class MetricsFrame:
    """Parsed ``metrics`` request (full histogram + exposition dump)."""


# ---------------------------------------------------------------------------
# Line framing
# ---------------------------------------------------------------------------


def encode_frame(payload: dict) -> bytes:
    """Serialize one frame: compact JSON + newline."""
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def decode_frame(line: bytes | str) -> dict:
    """Parse one frame line into a JSON object (dict).

    Raises :class:`ProtocolError` on anything that is not exactly one
    JSON object: empty lines, truncated/overlong frames, JSON scalars
    or arrays, invalid UTF-8.
    """
    if isinstance(line, str):
        line = line.encode()
    line = line.strip()
    if not line:
        raise ProtocolError("empty frame")
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    try:
        obj = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("frame must be a JSON object")
    return obj


# ---------------------------------------------------------------------------
# Mask chunk encoding
# ---------------------------------------------------------------------------


def _as_lanes(masks, width: int) -> np.ndarray:
    from repro.core.packed import masks_to_lanes

    if isinstance(masks, np.ndarray) and masks.ndim == 2:
        lanes = np.ascontiguousarray(masks, dtype=np.uint64)
        if lanes.shape[1] != lane_count(width):
            raise ProtocolError(
                f"lane rows have {lanes.shape[1]} lanes, width {width} "
                f"needs {lane_count(width)}"
            )
        return lanes
    return masks_to_lanes(list(masks), width)


def encode_mask_chunk(masks, width: int) -> str:
    """Encode requirement masks as a base64 wire blob.

    ``masks`` is an iterable of int masks or an already lane-packed
    ``(C, L)`` uint64 array; rows serialize little-endian, row-major.
    """
    lanes = _as_lanes(masks, width)
    raw = np.ascontiguousarray(lanes, dtype="<u8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def decode_mask_chunk(blob: str, count: int, width: int) -> np.ndarray:
    """Decode a base64 wire blob back into validated ``(count, L)`` lanes.

    Rejects blobs whose length disagrees with ``count`` and rows that
    set bits at or above ``width`` — the result is safe to hand to the
    lane-trusting fast path (:meth:`StreamSession.feed_many`).
    """
    if count < 0:
        raise ProtocolError("mask count must be non-negative")
    try:
        raw = base64.b64decode(blob, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ProtocolError(f"invalid base64 mask blob: {exc}") from None
    return lanes_from_bytes(raw, count, width)


def lanes_from_bytes(raw: bytes, count: int, width: int) -> np.ndarray:
    """Validate raw little-endian lane bytes into ``(count, L)`` lanes.

    The shared tail of every wire decode (base64, binary): the byte
    length must match ``count · L · 8`` exactly, and bits at or above
    ``width`` are rejected — the result is safe for the lane-trusting
    fast path.
    """
    L = lane_count(width)
    expected = count * L * 8
    if len(raw) != expected:
        raise ProtocolError(
            f"mask blob holds {len(raw)} bytes, "
            f"count={count} × {L} lane(s) needs {expected}"
        )
    lanes = (
        np.frombuffer(raw, dtype="<u8").astype(np.uint64).reshape(count, L)
    )
    # Bits above the universe width are a protocol violation, not a
    # subtle downstream surprise.
    if not lanes_fit(lanes, width):
        raise ProtocolError(
            f"mask sets switches beyond the {width}-switch universe"
        )
    return lanes


# ---------------------------------------------------------------------------
# Binary feed frames (protocol v3)
# ---------------------------------------------------------------------------


def _transpose_blocks(data, shapes) -> np.ndarray:
    """``data`` with each consecutive ``(rows, cols)`` byte block
    transposed to ``(cols, rows)``, in order.

    The byte shuffle of a deflated lane section: an entry's ``(C, 8·L)``
    row bytes become ``8·L`` byte planes of ``C`` bytes, and applying
    the transposed shapes undoes it.  Rows of a calm stream repeat
    most of their bytes, so each plane is long runs zlib finds cheaply.
    A run of equal shapes — a pipelined burst of equal chunks — is
    transposed as one stacked block.
    """
    src = np.frombuffer(data, dtype=np.uint8)
    out = np.empty_like(src)
    pos = 0
    for (rows, cols), run in groupby(shapes):
        n = len(list(run))
        end = pos + n * rows * cols
        out[pos:end].reshape(n, cols, rows)[...] = (
            src[pos:end].reshape(n, rows, cols).transpose(0, 2, 1)
        )
        pos = end
    return out


def _section(raw: np.ndarray, shapes, deflate: bool | None):
    """The lane section of the rows ``raw`` (entries' ``(C, L)``
    ``shapes`` back to back) and its flags: raw, or shuffled and
    deflated when asked (or, for ``None``, when that is smaller)."""
    if deflate is not False:
        planes = _transpose_blocks(raw, [(c, l * 8) for c, l in shapes])
        packed = zlib.compress(planes, 1)
        if deflate or len(packed) < raw.nbytes:
            return packed, BIN_FLAG_DEFLATE
    return raw.tobytes(), 0


def _frame(opcode: int, flags: int, payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    return BIN_HEADER.pack(
        BIN_MAGIC, BIN_VERSION, opcode, flags, len(payload)
    ) + payload


def feed_entry_bytes(session: str, lanes: np.ndarray) -> int:
    """Bytes one chunk adds to a raw ``feed_many`` payload (its table
    entry plus its lanes) — what a client sums to split a burst."""
    return len(session.encode()) + 1 + _ENTRY_TAIL.size + lanes.nbytes


def encode_feed_bin(entries, *, deflate: bool | None = None) -> bytes:
    """Encode one binary ``feed_many`` frame.

    ``entries`` is a list of ``(session, lanes)`` pairs, each ``lanes``
    a chunk's ``(C, L)`` uint64 matrix declaring its own lane count;
    every chunk lands in one lane section.  ``deflate=None`` shuffles
    and compresses the section only when that actually wins;
    ``True``/``False`` force it (the raw golden fixture pins the
    uncompressed form).
    """
    entries = list(entries)
    if not 1 <= len(entries) <= MAX_FEED_ENTRIES:
        raise ProtocolError(
            f"feed_many frames carry 1..{MAX_FEED_ENTRIES} entries"
        )
    table = [_U16.pack(len(entries))]
    rows, shapes = [], []
    for session, lanes in entries:
        lanes = np.ascontiguousarray(lanes, dtype="<u8")
        if lanes.ndim != 2 or not 1 <= lanes.shape[1] <= 0xFFFF:
            raise ProtocolError("feed_many lanes must be (C, L) rows")
        if lanes.shape[0] < 1:
            raise ProtocolError(
                "feed chunks must contain at least one mask"
            )
        sid = session.encode()
        if not 1 <= len(sid) <= 255:
            raise ProtocolError(
                "binary feed session ids must be 1..255 UTF-8 bytes"
            )
        table.append(
            bytes((len(sid),)) + sid + _ENTRY_TAIL.pack(*lanes.shape)
        )
        rows.append(lanes.reshape(-1))
        shapes.append(lanes.shape)
    section, flags = _section(np.concatenate(rows), shapes, deflate)
    table.append(section)
    return _frame(BIN_OP_FEED_MANY, flags, b"".join(table))


class _Section:
    """A frame's lane section, resolved into rows at most once.

    ``shapes`` is each entry's declared ``(count, lanes)``, in entry
    order.  A raw section holds the entries' rows back to back, and
    entries resolve as slices of the frame payload.  A deflated section
    is one zlib stream of the same bytes after each entry's byte
    shuffle (:func:`_transpose_blocks`): one call bounded by the
    declared total inflates it, one pass un-shuffles it back into rows,
    and entries resolve as slices of that buffer.  The entries of one
    frame may live on different shards, so two drain threads can
    resolve them at the same time: the first inflates under the lock
    and the others reuse its rows — or its error.
    """

    __slots__ = ("deflated", "shapes", "_data", "_parts", "_lock")

    def __init__(self, data: memoryview, deflated: bool, shapes: tuple):
        self.deflated = deflated
        self.shapes = shapes
        self._data = data
        #: Per-entry rows once known, or the error inflating them.
        self._parts: list | str | None = None
        if not deflated:
            self._parts = _slices(data, shapes)
        self._lock = threading.Lock()

    def part(self, index: int):
        """Entry ``index``'s rows, exactly its declared size."""
        if self._parts is None:
            with self._lock:
                if self._parts is None:
                    try:
                        planes = _inflate(
                            self._data, _section_bytes(self.shapes)
                        )
                    except ProtocolError as exc:
                        self._parts = str(exc)
                    else:
                        rows = _transpose_blocks(planes, [
                            (lanes * 8, count) for count, lanes in self.shapes
                        ])
                        self._parts = _slices(memoryview(rows), self.shapes)
        if isinstance(self._parts, str):
            raise ProtocolError(self._parts)
        return self._parts[index]


def _section_bytes(shapes) -> int:
    """Lane bytes the ``(count, lanes)`` entries declare in total."""
    return sum(count * lanes * 8 for count, lanes in shapes)


def _slices(data: memoryview, shapes) -> list:
    """``data`` cut into consecutive views of each entry's rows."""
    sizes = [count * lanes * 8 for count, lanes in shapes]
    return [
        data[end - size : end]
        for size, end in zip(sizes, accumulate(sizes))
    ]


def _inflate(data: memoryview, total: int) -> bytes:
    """Inflate one zlib stream that must hold exactly ``total`` bytes.

    One bound past ``total`` lets a stream of the right size reach its
    end marker, while a longer one stops after a single extra byte.
    """
    obj = zlib.decompressobj()
    try:
        out = obj.decompress(data, total + 1)
    except zlib.error as exc:
        raise ProtocolError(f"invalid deflate stream: {exc}") from None
    if len(out) != total or not obj.eof or obj.unused_data:
        raise ProtocolError(
            "deflated feed section does not match its declared size"
        )
    return out


@dataclass(frozen=True)
class BinFeedFrame:
    """One parsed entry of a binary ``feed_many`` frame.

    ``section`` stays encoded (possibly deflated) until the server
    knows the session's width: :meth:`raw_lanes` inflates, un-shuffles,
    lane-checks and bit-validates the entry's rows in the drain
    executor, off the event loop.  ``lanes`` is the entry's declared
    lane count and ``index`` its place in the frame's shared section.
    """

    session: str
    count: int
    section: _Section
    lanes: int
    index: int

    @property
    def deflated(self) -> bool:
        return self.section.deflated

    def raw_lanes(self, width: int) -> np.ndarray:
        """Resolve the section into validated ``(count, L)`` lanes."""
        L = lane_count(width)
        if self.lanes != L:
            raise ProtocolError(
                f"feed entry declares {self.lanes} lane(s), "
                f"width {width} needs {L}"
            )
        data = self.section.part(self.index)
        return lanes_from_bytes(data, self.count, width)


def _entry_fields(
    sid: bytes, count: int, max_chunk_steps: int | None
) -> str:
    """Check one entry's session id and count; return the id."""
    if not sid:
        raise ProtocolError("binary feed session id is empty")
    try:
        session = sid.decode()
    except UnicodeDecodeError as exc:
        raise ProtocolError(
            f"binary feed session id is not UTF-8: {exc}"
        ) from None
    if count < 1:
        raise ProtocolError("feed.count must be a positive integer")
    if max_chunk_steps is not None and count > max_chunk_steps:
        raise ProtocolError(
            f"feed.count {count} exceeds the server chunk limit "
            f"{max_chunk_steps}"
        )
    return session


def parse_bin_feed(
    opcode: int,
    flags: int,
    payload: bytes,
    *,
    max_chunk_steps: int | None = None,
) -> tuple:
    """Validate one binary frame's opcode/flags/entry table.

    Cheap structural checks only (the section stays opaque); the
    header itself — magic, version, length bounds — is the transport
    loop's job, since framing errors kill the connection while payload
    errors only earn an error reply.  Returns the frame's entries in
    order: a :class:`BinFeedFrame` per well-formed entry, or the
    :class:`ProtocolError` an entry earned on its own (its table row
    still located the entries after it).
    """
    if opcode != BIN_OP_FEED_MANY:
        raise ProtocolError(f"unknown binary opcode {opcode}")
    if flags & ~BIN_FLAG_DEFLATE:
        raise ProtocolError(f"unknown binary flags {flags:#04x}")
    view = memoryview(payload)
    if len(view) < _U16.size:
        raise ProtocolError("feed_many entry table is truncated")
    (n,) = _U16.unpack_from(view, 0)
    if n < 1:
        raise ProtocolError("feed_many frame has no entries")
    if n > MAX_FEED_ENTRIES:
        raise ProtocolError(
            f"feed_many frame declares {n} entries; one reply answers "
            f"at most {MAX_FEED_ENTRIES}"
        )
    head = _U16.size
    rows = []  # (session id bytes, count, lanes)
    for _ in range(n):
        if head >= len(view):
            raise ProtocolError("feed_many entry table is truncated")
        end = head + 1 + view[head]
        if end + _ENTRY_TAIL.size > len(view):
            raise ProtocolError("feed_many entry table is truncated")
        count, lanes = _ENTRY_TAIL.unpack_from(view, end)
        rows.append((bytes(view[head + 1 : end]), count, lanes))
        head = end + _ENTRY_TAIL.size
    shapes = tuple((count, lanes) for _sid, count, lanes in rows)
    total = _section_bytes(shapes)
    if total > MAX_FRAME_BYTES:
        # Checked before anything is inflated: a deflated section of
        # zeros is ~1000x smaller than the rows it declares.
        raise ProtocolError(
            f"feed_many entries declare {total} lane bytes; a frame "
            f"holds at most {MAX_FRAME_BYTES}"
        )
    deflated = bool(flags & BIN_FLAG_DEFLATE)
    if not deflated and len(view) - head != total:
        raise ProtocolError(
            f"feed_many section holds {len(view) - head} bytes, "
            f"its entries declare {total}"
        )
    section = _Section(view[head:], deflated, shapes)
    entries = []
    for index, (sid, count, lanes) in enumerate(rows):
        try:
            session = _entry_fields(sid, count, max_chunk_steps)
        except ProtocolError as exc:
            entries.append(exc)
        else:
            entries.append(
                BinFeedFrame(session, count, section, lanes, index)
            )
    return tuple(entries)


# ---------------------------------------------------------------------------
# Request parsing and policy construction
# ---------------------------------------------------------------------------


def _require(obj: dict, key: str, types, *, op: str):
    if key not in obj:
        raise ProtocolError(f"{op} frame missing field {key!r}")
    value = obj[key]
    # bool is a subclass of int; a frame saying "count": true is malformed.
    if not isinstance(value, types) or isinstance(value, bool):
        raise ProtocolError(
            f"{op} frame field {key!r} has invalid type "
            f"{type(value).__name__}"
        )
    return value


#: Recognized ``open`` policy parameters (anything else is rejected).
_POLICY_PARAMS = {"alpha", "memory", "k", "scalar"}

#: Client trace ids are short opaque tokens, not payload channels.
MAX_TRACE_CHARS = 128


def _trace_of(obj: dict, *, op: str) -> str | None:
    trace = obj.get("trace")
    if trace is None:
        return None
    if not isinstance(trace, str) or not trace:
        raise ProtocolError(f"{op}.trace must be a non-empty string")
    if len(trace) > MAX_TRACE_CHARS:
        raise ProtocolError(
            f"{op}.trace exceeds {MAX_TRACE_CHARS} characters"
        )
    return trace


def parse_request(
    obj: dict, *, max_chunk_steps: int | None = None
) -> OpenFrame | FeedFrame | CloseFrame | StatsFrame | MetricsFrame:
    """Validate a decoded frame object into a typed request.

    ``max_chunk_steps`` caps ``feed.count`` (admission control lives at
    the parse boundary, before any bytes are decoded).
    """
    op = obj.get("op")
    if not isinstance(op, str):
        raise ProtocolError("frame missing string field 'op'")
    if op == "open":
        policy = _require(obj, "policy", str, op=op)
        width = _require(obj, "width", int, op=op)
        if width < 1:
            raise ProtocolError("open.width must be at least 1")
        w = _require(obj, "w", (int, float), op=op)
        if w <= 0:
            raise ProtocolError("open.w must be positive")
        session = obj.get("session")
        if session is not None and not isinstance(session, str):
            raise ProtocolError("open.session must be a string")
        params = {
            k: obj[k] for k in _POLICY_PARAMS if k in obj
        }
        proto = obj.get("proto", PROTO_JSON)
        if not isinstance(proto, int) or isinstance(proto, bool) or (
            proto not in (PROTO_JSON, PROTO_BIN)
        ):
            raise ProtocolError(
                f"open.proto must be {PROTO_JSON} or {PROTO_BIN}"
            )
        unknown = (
            set(obj)
            - _POLICY_PARAMS
            - {"op", "policy", "width", "w", "session", "trace", "proto"}
        )
        if unknown:
            raise ProtocolError(
                f"open frame has unknown fields {sorted(unknown)}"
            )
        return OpenFrame(
            session=session,
            policy=policy,
            width=int(width),
            w=float(w),
            params=params,
            trace=_trace_of(obj, op=op),
            proto=proto,
        )
    if op == "feed":
        session = _require(obj, "session", str, op=op)
        count = _require(obj, "count", int, op=op)
        if count < 1:
            raise ProtocolError("feed.count must be a positive integer")
        if max_chunk_steps is not None and count > max_chunk_steps:
            raise ProtocolError(
                f"feed.count {count} exceeds the server chunk limit "
                f"{max_chunk_steps}"
            )
        masks = _require(obj, "masks", str, op=op)
        encoding = obj.get("encoding", "b64")
        if encoding != "b64":
            raise ProtocolError(f"unknown mask encoding {encoding!r}")
        return FeedFrame(
            session=session,
            count=int(count),
            masks=masks,
            trace=_trace_of(obj, op=op),
        )
    if op == "close":
        return CloseFrame(
            session=_require(obj, "session", str, op=op),
            trace=_trace_of(obj, op=op),
        )
    if op == "stats":
        return StatsFrame()
    if op == "metrics":
        return MetricsFrame()
    raise ProtocolError(f"unknown op {op!r}")


def policy_from_spec(policy: str, w: float, params: dict):
    """Build an online scheduler from a wire-level policy spec.

    Shared by the server (``open`` frames) and the ``repro stream`` /
    ``serve-bench`` CLI paths, so every entry point accepts the same
    vocabulary.  ``scalar: true`` wraps the policy in
    :class:`~repro.solvers.online.ScalarOnly` (oracle path).
    """
    from repro.solvers.online import (
        RentOrBuyScheduler,
        ScalarOnly,
        WindowScheduler,
    )

    unknown = set(params) - _POLICY_PARAMS
    if unknown:
        raise ProtocolError(f"unknown policy parameters {sorted(unknown)}")
    try:
        if policy == "rent_or_buy":
            scheduler = RentOrBuyScheduler(
                w,
                alpha=float(params.get("alpha", 1.0)),
                memory=int(params.get("memory", 4)),
            )
        elif policy == "window":
            scheduler = WindowScheduler(k=int(params.get("k", 8)))
        else:
            raise ProtocolError(f"unknown policy {policy!r}")
    except ProtocolError:
        raise
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid policy parameters: {exc}") from None
    if params.get("scalar"):
        scheduler = ScalarOnly(scheduler, name=f"{scheduler.name} [scalar]")
    return scheduler


# ---------------------------------------------------------------------------
# Replies
# ---------------------------------------------------------------------------


def ok_frame(op: str, **fields) -> dict:
    """Success reply for one request op."""
    out = {"ok": True, "op": op}
    out.update(fields)
    return out


def error_frame(message: str, *, op: str | None = None) -> dict:
    """Failure reply (the connection stays up; the frame is rejected).

    The message keeps its first :data:`MAX_ERROR_CHARS` characters.
    """
    out = {"ok": False, "error": message[:MAX_ERROR_CHARS]}
    if op is not None:
        out["op"] = op
    return out
