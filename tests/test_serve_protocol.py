"""Wire-protocol suite: round-trips, validation, malformed rejection.

Every blob that leaves :func:`encode_mask_chunk` must decode back to
the exact lane rows (and masks) it came from — across universe sizes
straddling the 64-switch lane boundary and both encodings — and every
malformed frame must raise :class:`ProtocolError` instead of leaking
into the engine.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packed import lane_count, lanes_to_masks, masks_to_lanes
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
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

BOUNDARY_SIZES = [1, 7, 63, 64, 65, 127, 128, 129, 150]
universe_sizes = st.one_of(
    st.sampled_from(BOUNDARY_SIZES), st.integers(min_value=1, max_value=200)
)


class TestMaskChunkRoundTrip:
    @settings(deadline=None, max_examples=80)
    @given(universe_sizes, st.data())
    def test_masks_survive_the_wire(self, width, data):
        full = (1 << width) - 1
        masks = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=full),
                min_size=0,
                max_size=30,
            )
        )
        blob = encode_mask_chunk(masks, width)
        lanes = decode_mask_chunk(blob, len(masks), width)
        assert lanes.shape == (len(masks), lane_count(width))
        assert lanes.dtype == np.uint64
        got = lanes_to_masks(lanes) if len(masks) else []
        assert got == masks

    @settings(deadline=None, max_examples=30)
    @given(universe_sizes, st.data())
    def test_lane_input_equals_mask_input(self, width, data):
        full = (1 << width) - 1
        masks = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=full),
                min_size=1,
                max_size=15,
            )
        )
        lanes = masks_to_lanes(masks, width)
        assert encode_mask_chunk(lanes, width) == encode_mask_chunk(
            masks, width
        )

    def test_frame_round_trip_through_json(self):
        masks = [1, (1 << 70) | 5, 0, (1 << 95)]
        blob = encode_mask_chunk(masks, 96)
        line = encode_frame({
            "op": "feed", "session": "u1", "count": 4, "masks": blob,
            "encoding": "b64",
        })
        frame = parse_request(decode_frame(line))
        assert isinstance(frame, FeedFrame)
        lanes = decode_mask_chunk(frame.masks, frame.count, 96)
        assert lanes_to_masks(lanes) == masks


class TestMaskChunkValidation:
    def test_wrong_count_rejected(self):
        blob = encode_mask_chunk([1, 2, 3], 20)
        with pytest.raises(ProtocolError, match="bytes"):
            decode_mask_chunk(blob, 4, 20)
        with pytest.raises(ProtocolError, match="bytes"):
            decode_mask_chunk(blob, 2, 20)

    def test_out_of_universe_bits_rejected(self):
        # Encoded against 80 switches, decoded against 70: the top
        # bits land above the smaller universe.
        blob = encode_mask_chunk([1 << 75], 80)
        with pytest.raises(ProtocolError, match="beyond"):
            decode_mask_chunk(blob, 1, 70)

    def test_garbage_blobs_rejected(self):
        with pytest.raises(ProtocolError):
            decode_mask_chunk("!!!not-base64!!!", 1, 8)

    def test_negative_count_rejected(self):
        with pytest.raises(ProtocolError):
            decode_mask_chunk("", -1, 8)


class TestFrameParsing:
    def test_open_frame(self):
        frame = parse_request({
            "op": "open", "policy": "rent_or_buy", "width": 96, "w": 12,
            "alpha": 2.0, "memory": 8, "session": "u1",
        })
        assert frame == OpenFrame(
            session="u1", policy="rent_or_buy", width=96, w=12.0,
            params={"alpha": 2.0, "memory": 8},
        )
        scheduler = policy_from_spec(frame.policy, frame.w, frame.params)
        assert scheduler.alpha == 2.0 and scheduler.memory == 8

    def test_close_and_stats_frames(self):
        assert parse_request({"op": "close", "session": "x"}) == CloseFrame(
            session="x"
        )
        assert parse_request({"op": "stats"}) == StatsFrame()

    @pytest.mark.parametrize(
        "obj",
        [
            {},  # no op
            {"op": 3},  # non-string op
            {"op": "feedz"},  # unknown op
            {"op": "open", "policy": "rent_or_buy", "width": 8},  # no w
            {"op": "open", "policy": "rent_or_buy", "width": 0, "w": 1},
            {"op": "open", "policy": "rent_or_buy", "width": 8, "w": 0},
            {"op": "open", "policy": "rent_or_buy", "width": 8, "w": 1,
             "bogus": 1},  # unknown field
            {"op": "open", "policy": "rent_or_buy", "width": 8, "w": 1,
             "session": 7},  # non-string session
            {"op": "feed", "session": "x", "count": 0, "masks": ""},
            {"op": "feed", "session": "x", "count": True, "masks": ""},
            {"op": "feed", "session": "x", "count": 1},  # no masks
            {"op": "feed", "session": "x", "count": 1, "masks": "",
             "encoding": "utf-9"},
            {"op": "feed", "session": "x", "count": 1, "masks": "",
             "encoding": "hex"},
            {"op": "close"},  # no session
        ],
    )
    def test_malformed_frames_rejected(self, obj):
        with pytest.raises(ProtocolError):
            parse_request(obj)

    def test_chunk_limit_enforced_at_parse_time(self):
        obj = {"op": "feed", "session": "x", "count": 100, "masks": ""}
        assert isinstance(parse_request(obj), FeedFrame)
        with pytest.raises(ProtocolError, match="chunk limit"):
            parse_request(obj, max_chunk_steps=99)

    @pytest.mark.parametrize(
        "line",
        [b"", b"   \n", b"not json\n", b"[1,2]\n", b'"scalar"\n',
         b"\xff\xfe\n"],
    )
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ProtocolError):
            decode_frame(line)

    def test_oversized_frame_rejected(self):
        line = b'{"op":"stats","pad":"' + b"x" * MAX_FRAME_BYTES + b'"}'
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_frame(line)

    def test_encode_decode_frame_round_trip(self):
        payload = {"op": "stats", "nested": {"a": [1, 2]}}
        line = encode_frame(payload)
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        assert decode_frame(line) == payload
        assert json.loads(line.decode()) == payload


class TestPolicySpecs:
    def test_window_and_scalar_wrapping(self):
        window = policy_from_spec("window", 5.0, {"k": 3})
        assert window.k == 3
        scalar = policy_from_spec("rent_or_buy", 5.0, {"scalar": True})
        assert not hasattr(scalar, "batched_cursor")
        assert "[scalar]" in scalar.name

    @pytest.mark.parametrize(
        ("policy", "params"),
        [
            ("bogus", {}),
            ("rent_or_buy", {"alpha": -1.0}),
            ("rent_or_buy", {"memory": 0}),
            ("rent_or_buy", {"alpha": "wat"}),
            ("window", {"k": 0}),
            ("window", {"nope": 1}),
        ],
    )
    def test_bad_specs_rejected(self, policy, params):
        with pytest.raises(ProtocolError):
            policy_from_spec(policy, 5.0, params)
