"""Wire protocol v2: binary frames and negotiation.

Three layers of pinning:

* **golden frames** (``tests/data/wire_v1_frames.jsonl``,
  ``wire_v2_raw.bin``) — the byte-exact wire form of canonical v1 and
  v2 frames.  Re-encoding the same inputs must reproduce the stored
  bytes bit for bit (a codec change that silently breaks old clients
  fails here first).  The binary fixtures are
  non-deflated on purpose: zlib output may vary across library
  versions, so compression is pinned by round-trip properties instead.
* **property round-trips** — raw and deflated binary frames survive
  encode → parse → resolve across universe widths spanning every
  lane-count boundary.
* **served behavior** — a v1-only client completes the full
  open/feed/close/stats flow against a v2 server unchanged; v2 clients
  (raw, deflated, pipelined) produce bit-identical costs to the
  single-hub oracle over thread *and* process shard pools; reserved
  flags and malformed binary frames earn error replies on a surviving
  connection.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packed import masks_to_lanes
from repro.core.switches import SwitchUniverse
from repro.engine.stream import StreamSession
from repro.serve.client import ServeClient
from repro.serve.protocol import (
    BIN_FLAG_DEFLATE,
    BIN_HEADER,
    BIN_MAGIC,
    BIN_OP_FEED,
    BIN_VERSION,
    ProtocolError,
    encode_feed_bin,
    encode_frame,
    encode_mask_chunk,
    parse_bin_feed,
    policy_from_spec,
)
from repro.serve.server import ServeConfig, ServerThread

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
    {"op": "feed", "session": "golden", "count": 2,
     "masks": encode_mask_chunk([0b1, 0b101], 8, encoding="hex"),
     "encoding": "hex"},
    {"op": "close", "session": "golden"},
    {"op": "stats"},
]

#: Masks behind the v2 fixtures (width 96 = two lanes per row).
V2_WIDTH = 96
V2_RAW_MASKS = [0b101, (1 << 95) | 0b11, 1 << 64]


def v1_fixture_bytes() -> bytes:
    return b"".join(encode_frame(frame) for frame in V1_FRAMES)


def v2_raw_fixture_bytes() -> bytes:
    lanes = masks_to_lanes(V2_RAW_MASKS, V2_WIDTH)
    return encode_feed_bin("golden", lanes, V2_WIDTH, deflate=False)


class TestGoldenFrames:
    def test_v1_frames_byte_exact(self):
        assert (DATA / "wire_v1_frames.jsonl").read_bytes() == (
            v1_fixture_bytes()
        )

    def test_v2_raw_frame_byte_exact(self):
        assert (DATA / "wire_v2_raw.bin").read_bytes() == (
            v2_raw_fixture_bytes()
        )

    def test_v2_raw_fixture_parses(self):
        ((opcode, flags, payload),) = _split_frames(
            (DATA / "wire_v2_raw.bin").read_bytes()
        )
        assert opcode == BIN_OP_FEED and flags == 0
        frame = parse_bin_feed(opcode, flags, payload)
        assert frame.session == "golden"
        assert not frame.deflated
        lanes = frame.raw_lanes(V2_WIDTH)
        assert np.array_equal(
            lanes, masks_to_lanes(V2_RAW_MASKS, V2_WIDTH)
        )

# ---------------------------------------------------------------------------
# Property round-trips
# ---------------------------------------------------------------------------


class TestBinaryRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(masks_for, st.sampled_from([None, False, True]))
    def test_raw_frames_survive_the_wire(self, width_masks, deflate):
        width, masks = width_masks
        lanes = masks_to_lanes(masks, width)
        wire = encode_feed_bin("s", lanes, width, deflate=deflate)
        ((opcode, flags, payload),) = _split_frames(wire)
        frame = parse_bin_feed(opcode, flags, payload)
        assert frame.count == len(masks)
        assert frame.deflated == bool(flags & BIN_FLAG_DEFLATE)
        assert np.array_equal(frame.raw_lanes(width), lanes)

    def test_bad_section_length_rejected(self):
        lanes = masks_to_lanes([1, 2, 3], 8)
        wire = encode_feed_bin("s", lanes, 8, deflate=False)
        ((opcode, flags, payload),) = _split_frames(wire)
        frame = parse_bin_feed(opcode, flags, payload[:-4])
        with pytest.raises(ProtocolError, match="expected"):
            frame.raw_lanes(8)

    def test_out_of_universe_bits_rejected(self):
        lanes = masks_to_lanes([1 << 9], 16)
        wire = encode_feed_bin("s", lanes, 16, deflate=False)
        ((opcode, flags, payload),) = _split_frames(wire)
        with pytest.raises(ProtocolError, match="beyond"):
            parse_bin_feed(opcode, flags, payload).raw_lanes(8)

    def test_unknown_opcode_and_flags_rejected(self):
        lanes = masks_to_lanes([1], 8)
        wire = encode_feed_bin("s", lanes, 8, deflate=False)
        ((opcode, flags, payload),) = _split_frames(wire)
        with pytest.raises(ProtocolError, match="opcode"):
            parse_bin_feed(99, flags, payload)
        # Bit 0 is reserved, like every bit but DEFLATE.
        for flags in (0x80, 0x01, 0x01 | BIN_FLAG_DEFLATE):
            with pytest.raises(ProtocolError, match="flags"):
                parse_bin_feed(opcode, flags, payload)

    def test_corrupt_deflate_rejected(self):
        lanes = masks_to_lanes([1, 2, 3, 1, 2, 3], 8)
        wire = encode_feed_bin("s", lanes, 8, deflate=True)
        ((opcode, flags, payload),) = _split_frames(wire)
        assert flags & BIN_FLAG_DEFLATE
        broken = payload[:-3] + b"\x00\x00\x00"
        frame = parse_bin_feed(opcode, flags, broken)
        with pytest.raises(ProtocolError, match="deflate|expected"):
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
        "proto,deflate", [("json", None), ("bin", False), ("bin", True)]
    )
    def test_costs_bit_identical_across_protocols(
        self, procs, proto, deflate, oracle_cost
    ):
        config = ServeConfig(shards=2, shard_procs=procs)
        with ServerThread(config) as (host, port):
            with ServeClient(
                host, port, proto=proto, deflate=deflate
            ) as client:
                sid = client.open(width=WIDTH, w=5.0)
                assert client.proto == proto
                for lo in range(0, len(TRACE), 45):
                    client.feed(sid, TRACE[lo : lo + 45])
                assert client.close_session(sid).cost == oracle_cost

    def test_v1_client_full_flow_against_v2_server(self):
        """A pre-v2 client (no proto field, JSON frames only) must see
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

    def test_reserved_flag_rejected_connection_survives(self, oracle_cost):
        """A frame with flag bit 0 set earns an error reply and leaves
        the session untouched: the raw feeds that follow on the same
        connection are served to the oracle cost."""
        with ServerThread(ServeConfig(shards=1)) as (host, port):
            with ServeClient(host, port, proto="bin") as client:
                sid = client.open(width=WIDTH, w=5.0)
                rogue = bytearray(
                    encode_feed_bin(
                        sid,
                        masks_to_lanes(TRACE[:45], WIDTH),
                        WIDTH,
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
                        sid, masks_to_lanes([1, 2], 8), 8, deflate=False
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
                assert not reply["ok"]
                # The connection survives payload-level garbage.
                assert client.feed(sid, [1, 2]).steps == 2

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
