"""Wire protocol v3: binary frames and negotiation.

Three layers of pinning:

* **golden frames** (``tests/data/wire_v1_frames.jsonl``,
  ``wire_v3_batch.bin``, ``wire_v3_deflated.bin``) — the wire form of
  canonical v1 frames and of raw and deflated ``feed_many`` frames.
  Re-encoding the v1 frames and the raw frame must reproduce the
  stored bytes bit for bit (a codec change that silently breaks old
  clients fails here first).  zlib output may vary across library
  versions, so the deflated fixture is pinned by decoding the stored
  bytes — to the expected byte planes and to the expected lanes — not
  by re-encoding.  ``wire_v2_batch.bin`` is the frame a version-2
  client would send: a live server must refuse it.
* **property round-trips** — raw and deflated ``feed_many`` frames,
  of one chunk and of bursts of ragged chunks over mixed widths,
  survive encode → parse → resolve across universe widths spanning
  every lane-count boundary; a deflated section is exactly the zlib
  stream of each entry's byte planes; and a mutation fuzzer over the
  deflated fixture gets validated lanes or a ``ProtocolError``, never
  anything else.
* **served behavior** — a v1-only client completes the full
  open/feed/close/stats flow against a v3 server unchanged; binary
  clients (one chunk per frame, raw or deflated, and pipelined)
  produce bit-identical costs to the single-hub oracle over an
  in-process shard *and* a pool of process shards; every open that
  asks for v3 is answered ``proto: 3``; reserved flags and malformed
  binary frames earn error replies on a surviving connection; a
  version-2 frame earns an error reply and a close, a ``proto: 2``
  open an error reply; a ``bin`` client whose open is not confirmed
  leaves no session behind.
"""

from __future__ import annotations

import pathlib
import socket
import sys
import threading
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.packed import lane_count, masks_to_lanes
from repro.core.switches import SwitchUniverse
from repro.engine.stream import StreamSession
from repro.serve.client import ServeClient, ServeError
from repro.serve.loadgen import drifting_masks
from repro.serve.protocol import (
    BIN_FLAG_DEFLATE,
    BIN_HEADER,
    BIN_MAGIC,
    BIN_OP_FEED_MANY,
    BIN_VERSION,
    MAX_ERROR_CHARS,
    MAX_FEED_ENTRIES,
    MAX_FRAME_BYTES,
    MAX_REPLY_ITEM_BYTES,
    PROTO_BIN,
    PROTO_JSON,
    ProtocolError,
    encode_feed_bin,
    encode_frame,
    encode_mask_chunk,
    error_frame,
    ok_frame,
    parse_bin_feed,
    policy_from_spec,
)
from repro.serve.server import ServeConfig, ServerThread, StreamServer

DATA = pathlib.Path(__file__).parent / "data"

#: Universe sizes straddling every lane-count boundary.
BOUNDARY_SIZES = [1, 7, 63, 64, 65, 127, 128, 129, 150, 200]

masks_for = st.sampled_from(BOUNDARY_SIZES).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(
            st.integers(min_value=0, max_value=(1 << width) - 1),
            min_size=1,
            max_size=24,
        ),
    )
)


def _split_frames(blob: bytes) -> list[tuple[int, int, bytes]]:
    """Split concatenated binary frames into (opcode, flags, payload)."""
    frames = []
    pos = 0
    while pos < len(blob):
        magic, version, opcode, flags, length = BIN_HEADER.unpack_from(
            blob, pos
        )
        assert magic == BIN_MAGIC and version == BIN_VERSION
        pos += BIN_HEADER.size
        frames.append((opcode, flags, blob[pos : pos + length]))
        pos += length
    return frames


# ---------------------------------------------------------------------------
# Golden fixtures: the canonical frames and their byte-exact builders
# ---------------------------------------------------------------------------

#: The v1 fixture conversation (dict insertion order is the wire order).
V1_FRAMES = [
    {"op": "open", "policy": "rent_or_buy", "width": 8, "w": 4.0,
     "session": "golden", "alpha": 1.0, "memory": 4},
    {"op": "feed", "session": "golden", "count": 3,
     "masks": encode_mask_chunk([0b101, 0b11, 0b10000000], 8),
     "encoding": "b64"},
    {"op": "close", "session": "golden"},
    {"op": "stats"},
]

#: The raw feed_many fixture: two sessions of different widths (one and
#: two lanes per row), one of them twice, in entry order.
V2_BATCH_ENTRIES = [
    ("alpha", 8, [0b101, 0b11]),
    ("beta", 96, [(1 << 95) | 0b1, 1 << 64, 0b110]),
    ("alpha", 8, [0b10000000]),
]

#: The deflated fixture: one, two and three lanes per row, bits on both
#: sides of the 64-bit lane boundaries, repeated rows and a one-row
#: chunk.  ``wire_v3_deflated.bin`` is ``encode_feed_bin(..., deflate=
#: True)`` of these entries.
V3_DEFLATED_ENTRIES = [
    ("alpha", 8, [0b101, 0b101, 0b111, 0b101, 0b100, 0b101]),
    ("beta", 96, [(1 << 95) | (1 << 64) | (1 << 63)] * 5 + [1 << 70]),
    ("gamma", 130, [(1 << 129) | (1 << 128) | 1]),
]


def v1_fixture_bytes() -> bytes:
    return b"".join(encode_frame(frame) for frame in V1_FRAMES)


def _lanes_of(entries) -> list:
    return [
        (sid, masks_to_lanes(masks, width)) for sid, width, masks in entries
    ]


def v3_batch_fixture_bytes() -> bytes:
    return encode_feed_bin(_lanes_of(V2_BATCH_ENTRIES), deflate=False)


def _planes(lanes: np.ndarray) -> bytes:
    """One entry's byte planes: its ``(C, 8·L)`` row bytes transposed."""
    rows = np.ascontiguousarray(lanes, dtype="<u8").view(np.uint8)
    return rows.T.tobytes()


def _section_of(wire: bytes) -> tuple[int, bytes]:
    """A one-frame feed_many's flags and lane section."""
    ((opcode, flags, payload),) = _split_frames(wire)
    assert opcode == BIN_OP_FEED_MANY
    (n,) = np.frombuffer(payload[:2], dtype="<u2")
    head = 2
    for _ in range(n):
        head += 1 + payload[head] + 6
    return flags, payload[head:]


class TestGoldenFrames:
    def test_v1_frames_byte_exact(self):
        assert (DATA / "wire_v1_frames.jsonl").read_bytes() == (
            v1_fixture_bytes()
        )

    def test_v3_batch_frame_byte_exact(self):
        assert (DATA / "wire_v3_batch.bin").read_bytes() == (
            v3_batch_fixture_bytes()
        )

    def test_v3_batch_fixture_parses(self):
        ((opcode, flags, payload),) = _split_frames(
            (DATA / "wire_v3_batch.bin").read_bytes()
        )
        assert opcode == BIN_OP_FEED_MANY and flags == 0
        # u16 entry count, then u8 id length | id | u32 count | u16 lanes
        assert payload[:2] == b"\x03\x00"
        assert payload[2:14] == b"\x05alpha\x02\x00\x00\x00\x01\x00"
        entries = parse_bin_feed(opcode, flags, payload)
        assert [e.session for e in entries] == ["alpha", "beta", "alpha"]
        assert [e.lanes for e in entries] == [1, 2, 1]
        assert not any(e.deflated for e in entries)
        for entry, (_sid, width, masks) in zip(entries, V2_BATCH_ENTRIES):
            assert entry.count == len(masks)
            assert np.array_equal(
                entry.raw_lanes(width), masks_to_lanes(masks, width)
            )

    def test_v3_deflated_fixture_decodes(self):
        """The stored section inflates to each entry's byte planes in
        entry order, and the entries resolve to the fixture's lanes."""
        wire = (DATA / "wire_v3_deflated.bin").read_bytes()
        assert wire[1] == BIN_VERSION == 3
        flags, section = _section_of(wire)
        assert flags == BIN_FLAG_DEFLATE
        expected = _lanes_of(V3_DEFLATED_ENTRIES)
        assert zlib.decompress(section) == b"".join(
            _planes(lanes) for _sid, lanes in expected
        )
        ((opcode, flags, payload),) = _split_frames(wire)
        entries = parse_bin_feed(opcode, flags, payload)
        assert [e.session for e in entries] == ["alpha", "beta", "gamma"]
        assert [e.lanes for e in entries] == [1, 2, 3]
        assert all(e.deflated for e in entries)
        for entry, (_sid, width, _masks), (_s, lanes) in zip(
            entries, V3_DEFLATED_ENTRIES, expected
        ):
            assert np.array_equal(entry.raw_lanes(width), lanes)

    def test_v2_fixture_is_the_raw_layout_under_a_v2_header(self):
        """Version 3 changed the meaning of DEFLATE only: the raw
        version-2 frame differs from the raw version-3 one in its
        version byte alone."""
        old = (DATA / "wire_v2_batch.bin").read_bytes()
        new = (DATA / "wire_v3_batch.bin").read_bytes()
        assert (old[1], new[1]) == (2, 3)
        assert old[:1] + old[2:] == new[:1] + new[2:]


# ---------------------------------------------------------------------------
# Property round-trips
# ---------------------------------------------------------------------------

#: A feed_many entry: any width 1..200 and a ragged chunk length.
entry_for = st.integers(min_value=1, max_value=200).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(
            st.integers(min_value=0, max_value=(1 << width) - 1),
            min_size=1,
            max_size=24,
        ),
    )
)


class TestBinaryRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(masks_for, st.sampled_from([None, False, True]))
    def test_raw_frames_survive_the_wire(self, width_masks, deflate):
        width, masks = width_masks
        lanes = masks_to_lanes(masks, width)
        wire = encode_feed_bin([("s", lanes)], deflate=deflate)
        ((opcode, flags, payload),) = _split_frames(wire)
        (frame,) = parse_bin_feed(opcode, flags, payload)
        assert frame.count == len(masks)
        assert frame.deflated == bool(flags & BIN_FLAG_DEFLATE)
        assert np.array_equal(frame.raw_lanes(width), lanes)

    def test_bad_section_length_rejected(self):
        """A raw section shorter than its one entry declares is a
        frame-level fault, caught at parse time."""
        lanes = masks_to_lanes([1, 2, 3], 8)
        wire = encode_feed_bin([("s", lanes)], deflate=False)
        ((opcode, flags, payload),) = _split_frames(wire)
        with pytest.raises(ProtocolError, match="declare 24"):
            parse_bin_feed(opcode, flags, payload[:-4])

    def test_out_of_universe_bits_rejected(self):
        lanes = masks_to_lanes([1 << 9], 16)
        wire = encode_feed_bin([("s", lanes)], deflate=False)
        ((opcode, flags, payload),) = _split_frames(wire)
        (frame,) = parse_bin_feed(opcode, flags, payload)
        with pytest.raises(ProtocolError, match="beyond"):
            frame.raw_lanes(8)

    def test_unknown_opcode_and_flags_rejected(self):
        lanes = masks_to_lanes([1], 8)
        wire = encode_feed_bin([("s", lanes)], deflate=False)
        ((opcode, flags, payload),) = _split_frames(wire)
        # Opcode 2 is the only binary feed; 1 is unknown like any other.
        for unknown in (1, 99):
            with pytest.raises(
                ProtocolError, match=f"unknown binary opcode {unknown}$"
            ):
                parse_bin_feed(unknown, flags, payload)
        # Bit 0 is reserved, like every bit but DEFLATE.
        for flags in (0x80, 0x01, 0x01 | BIN_FLAG_DEFLATE):
            with pytest.raises(ProtocolError, match="flags"):
                parse_bin_feed(opcode, flags, payload)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(entry_for, min_size=1, max_size=8),
        st.sampled_from([None, False, True]),
    )
    def test_feed_many_frames_survive_the_wire(self, entries, deflate):
        # Session ids repeat (i % 3), as a burst may feed one session
        # twice; widths and counts vary per entry.
        chunks = [
            (f"s{i % 3}", masks_to_lanes(masks, width))
            for i, (width, masks) in enumerate(entries)
        ]
        wire = encode_feed_bin(chunks, deflate=deflate)
        ((opcode, flags, payload),) = _split_frames(wire)
        assert opcode == BIN_OP_FEED_MANY
        if deflate is not None:
            assert bool(flags & BIN_FLAG_DEFLATE) == deflate
        parsed = parse_bin_feed(opcode, flags, payload)
        assert len(parsed) == len(entries)
        for entry, (sid, lanes), (width, masks) in zip(
            parsed, chunks, entries
        ):
            assert entry.session == sid
            assert entry.count == len(masks)
            assert np.array_equal(entry.raw_lanes(width), lanes)

    def test_feed_many_entry_errors_stay_per_entry(self):
        """An entry with an over-limit count or an empty id fails alone;
        the entries after it are still located and resolve."""
        good = masks_to_lanes([1, 2], 8)
        wire = encode_feed_bin(
            [("a", good), ("b", masks_to_lanes([1] * 9, 8)), ("c", good)],
            deflate=False,
        )
        ((opcode, flags, payload),) = _split_frames(wire)
        first, second, third = parse_bin_feed(
            opcode, flags, payload, max_chunk_steps=4
        )
        assert isinstance(second, ProtocolError)
        assert "chunk limit" in str(second)
        assert np.array_equal(first.raw_lanes(8), good)
        assert np.array_equal(third.raw_lanes(8), good)
        # u16 2 | empty id, 1 row, 1 lane | "a", 1 row, 1 lane | rows
        row = (1).to_bytes(4, "little") + (1).to_bytes(2, "little")
        payload = (
            b"\x02\x00" + b"\x00" + row + b"\x01a" + row
            + (5).to_bytes(8, "little") + (6).to_bytes(8, "little")
        )
        empty, named = parse_bin_feed(BIN_OP_FEED_MANY, 0, payload)
        assert "empty" in str(empty)
        assert named.raw_lanes(8).tolist() == [[6]]

    def test_feed_many_lane_count_must_match_width(self):
        wire = encode_feed_bin(
            [("a", masks_to_lanes([1 << 70], 96))], deflate=False
        )
        ((opcode, flags, payload),) = _split_frames(wire)
        (entry,) = parse_bin_feed(opcode, flags, payload)
        with pytest.raises(ProtocolError, match="declares 2 lane"):
            entry.raw_lanes(40)

    def test_feed_many_structural_faults_are_frame_errors(self):
        lanes = masks_to_lanes([1, 2, 3], 8)
        wire = encode_feed_bin([("a", lanes), ("b", lanes)], deflate=False)
        ((opcode, flags, payload),) = _split_frames(wire)
        with pytest.raises(ProtocolError, match="truncated"):
            parse_bin_feed(opcode, flags, payload[:9])
        with pytest.raises(ProtocolError, match="declare"):
            parse_bin_feed(opcode, flags, payload[:-8])
        with pytest.raises(ProtocolError, match="no entries"):
            parse_bin_feed(opcode, flags, b"\x00\x00")
        # Two entries may not declare more than one frame of lanes,
        # whatever a deflated section would inflate to.
        big = b"\x01a" + (MAX_FRAME_BYTES // 8).to_bytes(4, "little") \
            + b"\x01\x00"
        with pytest.raises(ProtocolError, match="at most"):
            parse_bin_feed(
                opcode, BIN_FLAG_DEFLATE, b"\x02\x00" + big + big
            )

    def test_lone_entry_may_not_declare_more_than_a_frame(self):
        """The declared-lanes cap holds for a frame of one entry too:
        a deflated section is never inflated past one frame of rows."""
        rows = MAX_FRAME_BYTES // 8

        def lone(count: int) -> bytes:
            return b"\x01\x00\x01a" + count.to_bytes(4, "little") \
                + b"\x01\x00" + zlib.compress(bytes(8), 1)

        with pytest.raises(ProtocolError, match=f"at most {MAX_FRAME_BYTES}"):
            parse_bin_feed(BIN_OP_FEED_MANY, BIN_FLAG_DEFLATE, lone(rows + 1))
        (entry,) = parse_bin_feed(
            BIN_OP_FEED_MANY, BIN_FLAG_DEFLATE, lone(rows)
        )
        assert entry.count == rows

    def test_feed_many_corrupt_deflate_fails_every_entry(self):
        lanes = masks_to_lanes([1, 2, 3, 1, 2, 3], 8)
        wire = bytearray(
            encode_feed_bin([("a", lanes), ("b", lanes)], deflate=True)
        )
        wire[-4:] = bytes(b ^ 0xFF for b in wire[-4:])  # adler32
        ((opcode, flags, payload),) = _split_frames(bytes(wire))
        for entry in parse_bin_feed(opcode, flags, payload):
            with pytest.raises(ProtocolError, match="deflate"):
                entry.raw_lanes(8)

    def test_feed_many_inflates_once_across_threads(self, monkeypatch):
        """Entries of one frame resolved from several threads at once
        share one inflate of the section."""
        width = 200
        chunks = [
            (f"s{i}", masks_to_lanes(
                [(i * 7919 + r * 104729) % (1 << width) for r in range(300)],
                width,
            ))
            for i in range(12)
        ]
        wire = encode_feed_bin(chunks, deflate=True)
        ((opcode, flags, payload),) = _split_frames(wire)
        entries = parse_bin_feed(opcode, flags, payload)
        inflates = []
        real = zlib.decompressobj

        def counting(*args, **kwargs):
            inflates.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(zlib, "decompressobj", counting)
        start = threading.Barrier(len(chunks))
        got = [None] * len(chunks)

        def resolve(i):
            start.wait()
            got[i] = entries[i].raw_lanes(width)

        threads = [
            threading.Thread(target=resolve, args=(i,))
            for i in range(len(chunks))
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert len(inflates) == 1
        for (_sid, lanes), out in zip(chunks, got):
            assert np.array_equal(out, lanes)

    def test_deflated_section_must_hold_its_declared_size(self):
        """The one bounded inflate rejects a stream one byte long, one
        byte short, or followed by stray bytes."""
        lanes = masks_to_lanes([1, 2, 3, 1, 2, 3], 8)
        planes = _planes(lanes)
        # u16 1 | "s", 6 rows, 1 lane
        head = b"\x01\x00\x01s" + (6).to_bytes(4, "little") + b"\x01\x00"
        for section in (
            zlib.compress(planes + b"\x00"),
            zlib.compress(planes[:-1]),
            zlib.compress(planes) + b"junk",
        ):
            (frame,) = parse_bin_feed(
                BIN_OP_FEED_MANY, BIN_FLAG_DEFLATE, head + section
            )
            with pytest.raises(ProtocolError, match="declared size"):
                frame.raw_lanes(8)
        (frame,) = parse_bin_feed(
            BIN_OP_FEED_MANY, BIN_FLAG_DEFLATE, head + zlib.compress(planes)
        )
        assert frame.raw_lanes(8).tobytes() == lanes.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(masks_for, min_size=1, max_size=8))
    @example([(1, [1]), (64, [1 << 63]), (65, [1 << 64, 1]), (129, [3])])
    def test_deflated_section_is_each_entrys_planes(self, entries):
        """A deflated section is one zlib stream of every entry's byte
        planes in entry order — lane counts mixed, one-row chunks and
        bits at the lane boundaries included — and resolves back to
        the rows."""
        chunks = [
            (f"s{i}", masks_to_lanes(masks, width))
            for i, (width, masks) in enumerate(entries)
        ]
        wire = encode_feed_bin(chunks, deflate=True)
        flags, section = _section_of(wire)
        assert flags == BIN_FLAG_DEFLATE
        assert zlib.decompress(section) == b"".join(
            _planes(lanes) for _sid, lanes in chunks
        )
        ((opcode, flags, payload),) = _split_frames(wire)
        parsed = parse_bin_feed(opcode, flags, payload)
        for entry, (_sid, lanes), (width, _masks) in zip(
            parsed, chunks, entries
        ):
            assert np.array_equal(entry.raw_lanes(width), lanes)

    def test_shuffle_shrinks_a_drifting_burst(self):
        """On drifting working sets the shuffled section is at most
        three quarters of plain zlib over the same rows."""
        width = 96
        chunks = [
            (f"s{i}", masks_to_lanes(drifting_masks(width, 256, seed=i),
                                     width))
            for i in range(16)
        ]
        raw = b"".join(lanes.tobytes() for _sid, lanes in chunks)
        flags, section = _section_of(encode_feed_bin(chunks))
        assert flags == BIN_FLAG_DEFLATE
        assert len(section) <= 0.75 * len(zlib.compress(raw, 1))

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.lists(
            st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 127),
    )
    def test_mutated_deflated_frame_resolves_or_refuses(self, edits, cut):
        """Any byte edits (and a truncation when ``cut`` falls inside
        the frame) of the deflated fixture: every entry resolves to
        validated lanes or raises ProtocolError."""
        wire = bytearray((DATA / "wire_v3_deflated.bin").read_bytes())
        for pos, value in edits:
            wire[pos % len(wire)] = value
        del wire[max(cut, BIN_HEADER.size) :]
        opcode, flags = wire[2], wire[3]
        try:
            entries = parse_bin_feed(
                opcode, flags, bytes(wire[BIN_HEADER.size :])
            )
        except ProtocolError:
            return
        for entry in entries:
            if isinstance(entry, ProtocolError):
                continue
            width = max(1, 64 * entry.lanes - 5)
            try:
                lanes = entry.raw_lanes(width)
            except ProtocolError:
                continue
            assert lanes.dtype == np.uint64
            assert lanes.shape == (entry.count, lane_count(width))
            assert int(lanes[:, -1].max()) < 1 << (width - 64 * (
                lane_count(width) - 1
            ))

    def test_entry_cap_keeps_the_reply_in_one_frame(self):
        """Any MAX_FEED_ENTRIES reply items fit one reply line, and a
        frame declaring more entries is refused whole."""
        worst_feed = ok_frame(
            "feed",
            session="\x01" * 255,  # 255 UTF-8 bytes, 6 JSON bytes each
            start=2**63, steps=2**32, hypers=2**32,
            cost=-2.2250738585072014e-308,
            cumulative_cost=-1.7976931348623157e308,
        )
        worst_error = error_frame("\U0001f600" * 1000)
        assert len(worst_error["error"]) == MAX_ERROR_CHARS
        for item in (worst_feed, worst_error):
            # The item plus the comma that separates it.
            assert len(encode_frame(item)) <= MAX_REPLY_ITEM_BYTES
        reply = ok_frame(
            "feed_many", replies=[worst_feed, worst_error] * (
                MAX_FEED_ENTRIES // 2
            ) + [worst_error],
        )
        assert len(reply["replies"]) == MAX_FEED_ENTRIES
        assert len(encode_frame(reply)) <= MAX_FRAME_BYTES
        lanes = masks_to_lanes([1], 8)
        with pytest.raises(ProtocolError, match="entries"):
            encode_feed_bin([("s", lanes)] * (MAX_FEED_ENTRIES + 1))
        n = MAX_FEED_ENTRIES + 1
        payload = (
            n.to_bytes(2, "little")
            + (b"\x01s" + (1).to_bytes(4, "little") + b"\x01\x00") * n
            + bytes(8 * n)
        )
        with pytest.raises(ProtocolError, match="at most"):
            parse_bin_feed(BIN_OP_FEED_MANY, 0, payload)

    def test_corrupt_deflate_rejected(self):
        lanes = masks_to_lanes([1, 2, 3, 1, 2, 3], 8)
        wire = encode_feed_bin([("s", lanes)], deflate=True)
        ((opcode, flags, payload),) = _split_frames(wire)
        assert flags & BIN_FLAG_DEFLATE
        broken = payload[:-3] + b"\x00\x00\x00"
        (frame,) = parse_bin_feed(opcode, flags, broken)
        with pytest.raises(ProtocolError, match="deflate"):
            frame.raw_lanes(8)


# ---------------------------------------------------------------------------
# Served behavior
# ---------------------------------------------------------------------------

WIDTH = 40
TRACE = [
    ((1 << (i % 7)) | (0b101 if i % 3 else (1 << 30)))
    for i in range(180)
]


def _oracle_cost(masks=TRACE, width=WIDTH, w=5.0) -> float:
    session = StreamSession(
        policy_from_spec("rent_or_buy", w, {}),
        SwitchUniverse.of_size(width),
        w,
    )
    for mask in masks:
        session.feed(mask)
    return session.finish().cost


@pytest.fixture(scope="module")
def oracle_cost() -> float:
    return _oracle_cost()


class TestServedProtocolV2:
    @pytest.mark.parametrize("procs", [False, True])
    @pytest.mark.parametrize(
        "proto,deflate",
        [("json", None), ("bin", None), ("bin", False), ("bin", True)],
    )
    def test_costs_bit_identical_across_protocols(
        self, procs, proto, deflate, oracle_cost
    ):
        """``deflate=None`` feeds through ``ServeClient.feed``; a forced
        raw or deflated section goes out as an encoder-built frame of
        one entry.  ``procs`` serves through two process shards, else
        through one in-process shard."""
        config = ServeConfig(shards=2 if procs else 1)
        with ServerThread(config) as (host, port):
            with ServeClient(host, port, proto=proto) as client:
                sid = client.open(width=WIDTH, w=5.0)
                assert client.proto == proto
                for lo in range(0, len(TRACE), 45):
                    chunk = TRACE[lo : lo + 45]
                    if deflate is None:
                        client.feed(sid, chunk)
                        continue
                    client._send(encode_feed_bin(
                        [(sid, masks_to_lanes(chunk, WIDTH))],
                        deflate=deflate,
                    ))
                    (item,) = client._recv_reply()["replies"]
                    assert item["steps"] == len(chunk)
                assert client.close_session(sid).cost == oracle_cost

    def test_v1_client_full_flow_against_v2_server(self):
        """A v1-only client (no proto field, JSON frames only) must see
        exactly the old protocol."""
        with ServerThread(ServeConfig(shards=2)) as (host, port):
            with ServeClient(host, port, proto="json") as client:
                sid = client.open(
                    policy="window", width=16, w=4.0, k=4,
                    session_id="v1-user",
                )
                assert sid == "v1-user"
                result = client.feed(sid, [3, 5, 3])
                assert result.steps == 3
                closed = client.close_session(sid)
                assert closed.steps == 3
                stats = client.stats()
                assert stats["server"]["feeds"] == 1
                # The server never saw (or sent) a binary byte.
                assert client.proto == "json"
                assert stats["engine"]["wire"]["bin"]["frames_in"] == 0

    def test_pipelined_feeds_match_sequential(self, oracle_cost):
        with ServerThread(ServeConfig(shards=2)) as (host, port):
            with ServeClient(host, port, proto="bin") as client:
                sids = [
                    client.open(width=WIDTH, w=5.0, session_id=f"p{i}")
                    for i in range(5)
                ]
                for lo in range(0, len(TRACE), 36):
                    results = client.feed_pipelined([
                        (sid, TRACE[lo : lo + 36]) for sid in sids
                    ])
                    assert [r.session for r in results] == sids
                for sid in sids:
                    assert client.close_session(sid).cost == oracle_cost

    @pytest.mark.parametrize("frame_limit", [None, 600])
    def test_pipelined_burst_is_one_frame(
        self, frame_limit, oracle_cost, monkeypatch
    ):
        """A v2 burst travels as one feed_many frame answered by one
        reply; only a burst over the frame limit splits, and the
        server counts every chunk as a feed either way."""
        if frame_limit is not None:
            monkeypatch.setattr(
                "repro.serve.client.MAX_FRAME_BYTES", frame_limit
            )
        step = 36
        with ServerThread(ServeConfig(shards=2)) as (host, port):
            with ServeClient(host, port, proto="bin") as client:
                sids = [
                    client.open(width=WIDTH, w=5.0, session_id=f"b{i}")
                    for i in range(5)
                ]
                for lo in range(0, len(TRACE), step):
                    results = client.feed_pipelined([
                        (sid, TRACE[lo : lo + step]) for sid in sids
                    ])
                    assert [r.steps for r in results] == [step] * 5
                monkeypatch.undo()  # the limit also caps reply reads
                stats = client.stats()
                for sid in sids:
                    assert client.close_session(sid).cost == oracle_cost
        bursts = len(TRACE) // step
        frames = stats["engine"]["wire"]["bin"]["frames_in"]
        if frame_limit is None:
            assert frames == bursts
        else:  # 2 chunks of 36 single-lane rows fit under 600 bytes
            assert frames == bursts * 3
        assert stats["server"]["feeds"] == bursts * 5

    def test_burst_of_20k_one_step_chunks(self):
        """A burst of tiny chunks splits at MAX_FEED_ENTRIES, so every
        reply line stays under the frame limit; every chunk's result
        comes back in burst order and the closes match the oracle."""
        sessions, steps = 64, 320
        masks = [TRACE[i % len(TRACE)] for i in range(steps)]
        with ServerThread(ServeConfig(shards=2)) as (host, port):
            with ServeClient(host, port, proto="bin") as client:
                sids = [
                    client.open(width=WIDTH, w=5.0, session_id=f"t{i}")
                    for i in range(sessions)
                ]
                burst = [
                    (sid, [mask]) for mask in masks for sid in sids
                ]
                results = client.feed_pipelined(burst)
                stats = client.stats()
                closed = [client.close_session(sid) for sid in sids]
        assert len(results) == sessions * steps
        for i, result in enumerate(results):
            assert result.session == sids[i % sessions]
            assert (result.start, result.steps) == (i // sessions, 1)
        totals = {sid: 0.0 for sid in sids}
        for result in results:
            totals[result.session] += result.cost
            assert result.cumulative_cost == pytest.approx(
                totals[result.session]
            )
        oracle = _oracle_cost(masks)
        assert [run.cost for run in closed] == [oracle] * sessions
        assert [run.steps for run in closed] == [steps] * sessions
        assert stats["server"]["feeds"] == sessions * steps
        assert stats["engine"]["wire"]["bin"]["frames_in"] == -(
            -sessions * steps // MAX_FEED_ENTRIES
        )

    def test_reserved_flag_rejected_connection_survives(self, oracle_cost):
        """A frame with flag bit 0 set earns an error reply and leaves
        the session untouched: the raw feeds that follow on the same
        connection are served to the oracle cost."""
        with ServerThread(ServeConfig(shards=1)) as (host, port):
            with ServeClient(host, port, proto="bin") as client:
                sid = client.open(width=WIDTH, w=5.0)
                rogue = bytearray(
                    encode_feed_bin(
                        [(sid, masks_to_lanes(TRACE[:45], WIDTH))],
                        deflate=False,
                    )
                )
                rogue[3] |= 0x01  # the header's flags byte
                client._send(bytes(rogue))
                reply = client._recv_reply()
                assert not reply["ok"]
                assert "unknown binary flags" in reply["error"]
                for lo in range(0, len(TRACE), 45):
                    client.feed(sid, TRACE[lo : lo + 45])
                closed = client.close_session(sid)
                assert closed.steps == len(TRACE)
                assert closed.cost == oracle_cost

    def test_malformed_binary_payload_rejected(self):
        with ServerThread(ServeConfig(shards=1)) as (host, port):
            with ServeClient(host, port, proto="bin") as client:
                sid = client.open(width=8, w=2.0)
                wire = bytearray(
                    encode_feed_bin(
                        [(sid, masks_to_lanes([1, 2], 8))], deflate=False
                    )
                )
                wire[-8:] = b""  # truncate the lane section
                header = wire[: BIN_HEADER.size]
                magic, version, opcode, flags, _ = BIN_HEADER.unpack(
                    bytes(header)
                )
                payload = bytes(wire[BIN_HEADER.size :])
                client._send(
                    BIN_HEADER.pack(
                        magic, version, opcode, flags, len(payload)
                    )
                    + payload
                )
                reply = client._recv_reply()
                assert not reply["ok"] and "section" in reply["error"]
                # The connection survives payload-level garbage.
                assert client.feed(sid, [1, 2]).steps == 2

    def test_v2_frame_refused_with_error_and_close(self):
        """A version-2 frame (``wire_v2_batch.bin``) is refused, not
        misread: one error reply, then the server closes the
        connection, and the refusal counts as a protocol error."""
        with ServerThread(ServeConfig(shards=1)) as address:
            with socket.create_connection(address, timeout=10) as sock:
                sock.sendall((DATA / "wire_v2_batch.bin").read_bytes())
                received = b""
                while chunk := sock.recv(4096):
                    received += chunk
            assert received == encode_frame(
                error_frame("unsupported binary protocol version 2")
            )
            with ServeClient(*address) as client:
                stats = client.stats()["server"]
            assert stats["protocol_errors"] == 1 and stats["feeds"] == 0

    def test_proto_2_open_refused_connection_survives(self):
        """An ``open`` asking for protocol 2 earns an error reply and
        opens nothing; the connection keeps serving."""
        with ServerThread(ServeConfig(shards=1)) as address:
            with ServeClient(*address, proto="json") as client:
                client._send(encode_frame({
                    "op": "open", "policy": "rent_or_buy", "width": 8,
                    "w": 2.0, "session": "old", "proto": 2,
                }))
                assert client._recv_reply() == error_frame(
                    f"open.proto must be {PROTO_JSON} or {PROTO_BIN}"
                )
                assert client.stats()["sessions"] == 0
                assert client.open(width=8, w=2.0, session_id="old") == "old"
                assert client.feed("old", [1, 2]).steps == 2

    def test_wire_counters_track_both_protocols(self):
        with ServerThread(ServeConfig(shards=1)) as (host, port):
            with ServeClient(host, port, proto="bin") as client:
                sid = client.open(width=8, w=2.0)
                client.feed(sid, [1, 2, 3])
                client.close_session(sid)
                wire = client.stats()["engine"]["wire"]
            assert wire["bin"]["frames_in"] == 1
            assert wire["bin"]["bytes_in"] > 0
            assert wire["json"]["frames_in"] >= 3  # open/close/stats
            assert wire["json"]["bytes_out"] > 0

    def test_every_v3_open_is_confirmed(self):
        """The server answers ``proto: 3`` to every open that asks for
        it, and never to one that does not."""
        with ServerThread(ServeConfig(shards=1)) as address:
            with ServeClient(*address, proto="json") as client:
                for i in range(4):
                    frame = {"op": "open", "policy": "rent_or_buy",
                             "width": 8, "w": 2.0, "session": f"o{i}"}
                    if i % 2:
                        frame["proto"] = PROTO_BIN
                    reply = client.call(frame)
                    assert reply.get("proto") == (
                        PROTO_BIN if i % 2 else None
                    )

    def test_unknown_client_proto_rejected(self):
        with pytest.raises(ValueError, match="auto"):
            ServeClient("127.0.0.1", 1, proto="auto")

    def test_declined_v2_open_leaves_no_session(self, monkeypatch):
        """A ``bin`` client whose open reply does not confirm v3 (outside
        input: a server that strips the field) closes the session the
        server opened before it raises, so the id can be opened again."""
        real = StreamServer._handle_open

        async def unconfirmed(self, frame):
            reply = await real(self, frame)
            reply.pop("proto", None)
            return reply

        monkeypatch.setattr(StreamServer, "_handle_open", unconfirmed)
        with ServerThread(ServeConfig(shards=1)) as address:
            with ServeClient(*address, proto="bin") as client:
                with pytest.raises(ServeError, match="did not confirm"):
                    client.open(width=8, w=2.0, session_id="x")
                assert client.stats()["sessions"] == 0
                with pytest.raises(ServeError, match="did not confirm"):
                    client.open(width=8, w=2.0, session_id="x")
            with ServeClient(*address, proto="json") as client:
                assert client.open(width=8, w=2.0, session_id="x") == "x"
                assert client.feed("x", [1, 2]).steps == 2
                assert client.stats()["sessions"] == 1
