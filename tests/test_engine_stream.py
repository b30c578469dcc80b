"""Tests for streaming sessions (repro.engine.stream)."""

import gc
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.context import RequirementSequence
from repro.core.packed import masks_to_lanes
from repro.core.switches import SwitchUniverse
from repro.engine.stream import CloseResult, StreamHub, StreamSession
from repro.solvers.online import (
    RentOrBuyScheduler,
    ScalarOnly,
    WindowScheduler,
)

U = SwitchUniverse.of_size(10)
instances = st.lists(
    st.integers(min_value=0, max_value=U.full_mask), min_size=1, max_size=24
)


class TestStreamSession:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StreamSession(RentOrBuyScheduler(5.0), U, 0.0)

    def test_mask_range_validated(self):
        session = StreamSession(RentOrBuyScheduler(5.0), U, 5.0)
        with pytest.raises(ValueError):
            session.feed(U.full_mask + 1)
        with pytest.raises(ValueError):
            session.feed(-1)

    def test_events_account_incrementally(self):
        session = StreamSession(RentOrBuyScheduler(5.0), U, 5.0)
        events = session.feed_sequence([0b1, 0b1, 0b10])
        assert [e.step for e in events] == [0, 1, 2]
        assert events[0].hyper  # step 0 always installs
        running = 0.0
        for e in events:
            expected = (5.0 if e.hyper else 0.0) + e.hypercontext.bit_count()
            assert e.step_cost == expected
            running += e.step_cost
            assert e.cumulative_cost == running
        assert session.cost == running
        assert session.steps == 3

    def test_finish_empty_session(self):
        scheduler = RentOrBuyScheduler(5.0)
        close = StreamSession(scheduler, U, 5.0).finish()
        assert close == CloseResult(
            solver=scheduler.name, steps=0, hypers=0, cost=0.0
        )

    def test_feed_after_finish_rejected(self):
        session = StreamSession(RentOrBuyScheduler(5.0), U, 5.0)
        session.feed(1)
        session.finish()
        with pytest.raises(RuntimeError):
            session.feed(1)

    def test_window_misprediction_forces_hyper_event(self):
        session = StreamSession(WindowScheduler(k=4), U, 4.0)
        events = session.feed_sequence([0b1] * 5 + [0b1000000])
        assert events[5].hyper  # 0b1000000 does not fit the estimate
        assert events[5].hypercontext & 0b1000000

    @settings(deadline=None, max_examples=40)
    @given(instances)
    def test_incremental_cost_matches_offline_evaluation(
        self, stream_oracle, masks
    ):
        """The close record and the per-chunk accounting equal the
        scalar session bit for bit and the offline evaluation of
        run_online's schedule."""
        scheduler = RentOrBuyScheduler(6.0)
        session = StreamSession(scheduler, U, 6.0)
        batch = session.feed_many(masks)
        stream_oracle(scheduler, U, 6.0, masks, session.finish(), [batch])

    @settings(deadline=None, max_examples=40)
    @given(instances)
    def test_stream_equals_offline_plan(self, stream_oracle, masks):
        """Feeding step-by-step reproduces plan() exactly — the same
        cursor drives both entry points."""
        seq = RequirementSequence(U, masks)
        for scheduler in (RentOrBuyScheduler(6.0), WindowScheduler(k=3)):
            session = StreamSession(scheduler, U, 6.0)
            events = session.feed_sequence(seq)
            assert tuple(e.step for e in events if e.hyper) == (
                scheduler.plan(seq).hyper_steps
            )
            steps = SimpleNamespace(
                hyper_flags=np.array([e.hyper for e in events]),
                sizes=np.array([e.hypercontext.bit_count() for e in events]),
            )
            stream_oracle(scheduler, U, 6.0, masks, session.finish(), [steps])


class TestTrustedLaneValidation:
    """Lane-packed chunks are range-checked when fed, before any state
    changes — sessions keep no log for a later check to read."""

    def test_session_rejects_bits_beyond_the_universe(self):
        lanes = masks_to_lanes([1, 1 << 12, 2], 64)  # 12-switch universe
        universe = SwitchUniverse.of_size(12)
        for scheduler in (
            RentOrBuyScheduler(4.0), ScalarOnly(WindowScheduler(k=2)),
        ):
            session = StreamSession(scheduler, universe, 4.0)
            with pytest.raises(ValueError, match="12-switch universe"):
                session.feed_many(lanes)
            assert (session.steps, session.cost) == (0, 0.0)
            with pytest.raises(ValueError, match="12-switch universe"):
                session.feed_many(np.zeros((2, 2), dtype=np.uint64))

    @pytest.mark.parametrize("fused", [True, False])
    def test_hub_names_the_offending_session_and_serves_nothing(self, fused):
        """One bad chunk in a fused group, whose members differ in
        width but not in lane count, fails the whole call before any
        session moves — also when the hub serves every chunk on the
        per-session path (``fused=False``)."""
        hub = StreamHub(fused=fused)
        widths = {"wide": 100, "narrow": 65, "other": 100}
        for sid, width in widths.items():
            hub.open(
                RentOrBuyScheduler(3.0), SwitchUniverse.of_size(width), 3.0,
                session_id=sid,
            )
        # Bit 80 fits the 100-switch sessions, not the 65-switch one.
        bad = masks_to_lanes([1 << 80, 3], 100)
        with pytest.raises(ValueError, match="65-switch universe") as info:
            hub.feed_many({"wide": bad, "narrow": bad, "other": bad})
        assert "'narrow'" in str(info.value)
        assert all(hub.session(sid).steps == 0 for sid in widths)
        # The same group with a fitting narrow chunk is served whole.
        ok = masks_to_lanes([1, 1 << 64], 65)
        out = hub.feed_many({"wide": bad, "narrow": ok, "other": bad})
        assert [batch.steps for batch in out.values()] == [2, 2, 2]

    @pytest.mark.parametrize("fused", [True, False])
    def test_plain_chunks_are_checked_before_any_session_moves(self, fused):
        """Mask iterables, a scalar-cursor session and a finished
        session take the per-session path; a bad chunk among them,
        fed after good ones, still fails the call with nothing
        served."""
        hub = StreamHub(fused=fused)
        universe = SwitchUniverse.of_size(8)
        for sid, scheduler in (
            ("lanes", RentOrBuyScheduler(3.0)),
            ("masks", WindowScheduler(k=2)),
            ("scalar", ScalarOnly(RentOrBuyScheduler(3.0))),
            ("done", RentOrBuyScheduler(3.0)),
        ):
            hub.open(scheduler, universe, 3.0, session_id=sid)
        hub.finish("done")
        good = {
            "lanes": masks_to_lanes([1, 2, 3], 8),
            "masks": [1, 2, 3],
            "scalar": masks_to_lanes([1, 2, 3], 8),
        }
        for sid, bad, match in (
            ("masks", [1, 1 << 9], "out of universe range"),
            ("scalar", masks_to_lanes([1, 1 << 9], 16), "8-switch"),
        ):
            with pytest.raises(ValueError, match=match) as info:
                hub.feed_many({**good, sid: bad})
            assert f"session {sid!r}" in str(info.value)
            # The session's own error stays attached as the cause.
            assert isinstance(info.value.__cause__, ValueError)
            assert all(hub.session(s).steps == 0 for s in good)
        with pytest.raises(KeyError):
            hub.feed_many({**good, "done": [1]})
        assert all(hub.session(s).steps == 0 for s in good)
        rows = hub.feed_many(good)
        assert list(rows.steps) == [3, 3, 3]
        assert hub.total_steps == 9


def _drift_rounds(seed, sessions, rounds, chunk=64):
    """``(sessions, chunk, 2)`` lane blocks of a width-96 fleet whose
    working sets drift every third round."""
    rng = np.random.default_rng(seed)
    full = np.array([2**64 - 1, 2**32 - 1], dtype=np.uint64)
    for r in range(rounds):
        if r % 3 == 0:
            base = rng.integers(
                0, 2**63, size=(sessions, 2), dtype=np.uint64
            ) & full
        noise = rng.integers(
            0, 2**63, size=(sessions, chunk, 2), dtype=np.uint64
        )
        yield base[:, None, :] & noise


def _rob96():
    return RentOrBuyScheduler(96.0, alpha=2.0, memory=8)


class TestBoundedMemory:
    """A session holds its cursor and three counters, not its history:
    what a hub keeps under ``tracemalloc`` stays flat in steps served.
    (Byte bounds, not wall time, so the checks do not flake.)"""

    U96 = SwitchUniverse.of_size(96)

    def _held_after_closing_all_but_one(self, rounds):
        """64 fused sessions fed ``rounds`` 64-step chunks, then 63 of
        them finished with ``retain_runs=False``: bytes still held."""
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            hub = StreamHub(retain_runs=False)
            ids = [f"u{s}" for s in range(64)]
            for sid in ids:
                hub.open(_rob96(), self.U96, 96.0, session_id=sid)
            for block in _drift_rounds(1, 64, rounds):
                hub.feed_many({sid: block[s] for s, sid in enumerate(ids)})
            del block
            for sid in ids[1:]:
                hub.finish(sid)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(hub) == 1
        return held

    def test_finished_sessions_leave_only_the_survivor(self):
        """The survivor of a fused fleet pins none of the fleet's
        stacked blocks: held bytes do not grow with its age."""
        young = self._held_after_closing_all_but_one(10)
        old = self._held_after_closing_all_but_one(40)
        assert young < 256 * 1024 and old < 256 * 1024, (young, old)
        assert abs(old - young) < 16 * 1024, (young, old)

    @pytest.mark.parametrize("path", ["fused", "scalar"])
    def test_one_session_holds_flat_bytes(self, path):
        """Held bytes after 10 and after 100 fed chunks agree, on the
        fused hub path and on the scalar-cursor session."""
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            if path == "fused":
                hub = StreamHub(retain_runs=False)
                sid = hub.open(_rob96(), self.U96, 96.0)
                feed = lambda lanes: hub.feed_many({sid: lanes})  # noqa: E731
            else:
                session = StreamSession(ScalarOnly(_rob96()), self.U96, 96.0)
                feed = session.feed_many
            held = {}
            for i, block in enumerate(_drift_rounds(2, 1, 100), 1):
                feed(block[0])
                if i in (10, 100):
                    del block
                    gc.collect()
                    held[i] = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held[100] - held[10] < 16 * 1024, held
