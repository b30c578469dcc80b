"""Equivalence suite for the lane-packed online/streaming stack.

The scalar cursors of :mod:`repro.solvers.online` and the pre-packed
:class:`StreamSession` accounting are the correctness oracle; the
batched cursors, :class:`~repro.core.packed.PackedStream` and the
:class:`~repro.engine.stream.StreamHub` must reproduce them *bit for
bit* — across policies, hyper-parameters (alpha/memory/k), chunkings
and universe sizes straddling the 64-switch lane boundary — and the
hub's aggregate accounting must agree with the offline
:func:`~repro.core.cost_single.switch_cost` evaluator.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.context import RequirementSequence
from repro.core.packed import PackedStream, lanes_to_masks, masks_to_lanes
from repro.core.switches import SwitchUniverse
from repro.engine.stream import StreamHub, StreamSession
from repro.solvers.online import (
    RentOrBuyScheduler,
    ScalarOnly,
    WindowScheduler,
)

# Universe sizes that straddle the uint64 lane boundaries.
BOUNDARY_SIZES = [1, 7, 63, 64, 65, 127, 128, 129, 150]
universe_sizes = st.one_of(
    st.sampled_from(BOUNDARY_SIZES), st.integers(min_value=1, max_value=150)
)


@st.composite
def stream_instances(draw, max_n=60):
    size = draw(universe_sizes)
    universe = SwitchUniverse.of_size(size)
    n = draw(st.integers(min_value=0, max_value=max_n))
    mask_st = st.integers(min_value=0, max_value=universe.full_mask)
    masks = [draw(mask_st) for _ in range(n)]
    kind = draw(st.sampled_from(["rent_or_buy", "window"]))
    if kind == "rent_or_buy":
        scheduler = RentOrBuyScheduler(
            float(draw(st.integers(min_value=1, max_value=12))),
            alpha=draw(st.sampled_from([0.5, 1.0, 2.0])),
            memory=draw(st.integers(min_value=1, max_value=6)),
        )
    else:
        scheduler = WindowScheduler(k=draw(st.integers(min_value=1, max_value=9)))
    return universe, masks, scheduler


def _chunkings(draw_sizes, n):
    """Split [0, n) into chunks with the given size stream."""
    cuts = []
    pos = 0
    while pos < n:
        step = next(draw_sizes)
        cuts.append((pos, min(n, pos + step)))
        pos += step
    return cuts


class TestBatchedCursorEquivalence:
    @settings(deadline=None, max_examples=60)
    @given(stream_instances(), st.data())
    def test_step_many_bit_identical_to_scalar_cursor(self, instance, data):
        """hyper flags, per-step hypercontext sizes, installed masks and
        the final cursor state all equal the scalar oracle, for every
        chunking of the same sequence."""
        universe, masks, scheduler = instance
        n = len(masks)
        scalar = scheduler.cursor()
        ref_hyper, ref_installed, ref_sizes = [], [], []
        for i, mask in enumerate(masks):
            installed = scalar.step(i, mask)
            ref_hyper.append(installed is not None)
            if installed is not None:
                ref_installed.append(installed)
            ref_sizes.append(scalar.current.bit_count())

        lanes = masks_to_lanes(masks, universe.size)
        batched = scheduler.batched_cursor(universe.size)
        got_hyper, got_installed, got_sizes = [], [], []
        pos = 0
        while pos < n:
            step = data.draw(st.integers(min_value=1, max_value=n))
            batch = batched.step_many(lanes[pos : pos + step])
            got_hyper.extend(bool(h) for h in batch.hyper)
            got_sizes.extend(int(s) for s in batch.sizes)
            got_installed.extend(lanes_to_masks(batch.installed))
            pos += step

        assert got_hyper == ref_hyper
        assert got_sizes == ref_sizes
        assert got_installed == ref_installed
        if n:
            assert batched.current == scalar.current

    @settings(deadline=None, max_examples=40)
    @given(stream_instances(max_n=80), st.data())
    def test_step_many_galloping_continuation(self, instance, data):
        """Shrunk sweep bounds force the rent-or-buy cursor through its
        no-trigger continuation (regret/served carry across sweep
        windows, scan doubling) on every example — with the default
        bounds (128+) the 80-step property sequences never reach it."""
        from repro.solvers.online import _BatchedRentOrBuyCursor

        old_min = _BatchedRentOrBuyCursor._SCAN_MIN
        old_max = _BatchedRentOrBuyCursor._SCAN_MAX
        _BatchedRentOrBuyCursor._SCAN_MIN = 2
        _BatchedRentOrBuyCursor._SCAN_MAX = 8
        try:
            universe, masks, scheduler = instance
            scalar = scheduler.cursor()
            ref = []
            for i, mask in enumerate(masks):
                installed = scalar.step(i, mask)
                ref.append((installed is not None, scalar.current))
            lanes = masks_to_lanes(masks, universe.size)
            batched = scheduler.batched_cursor(universe.size)
            got_hyper = []
            pos = 0
            while pos < len(masks):
                step = data.draw(
                    st.integers(min_value=1, max_value=len(masks))
                )
                batch = batched.step_many(lanes[pos : pos + step])
                got_hyper.extend(bool(h) for h in batch.hyper)
                pos += step
            assert got_hyper == [h for h, _cur in ref]
            if masks:
                assert batched.current == ref[-1][1]
        finally:
            _BatchedRentOrBuyCursor._SCAN_MIN = old_min
            _BatchedRentOrBuyCursor._SCAN_MAX = old_max

    def test_hectic_stream_resolves_triggers_on_the_multi_trigger_path(
        self, stream_oracle
    ):
        """A working-set drift every few steps makes misfits the
        dominant trigger; most of them must resolve on the
        multi-trigger fast path (no full-window sweep recompute) and
        the decisions must still equal the scalar oracle exactly."""
        width = 96
        universe = SwitchUniverse.of_size(width)
        rng = np.random.default_rng(23)
        masks = []
        working = 0xFFF
        for i in range(3000):
            if i % 25 == 0 and i:  # hectic: drift every 25 steps
                working = ((working << 3) | (working >> 9)) & (
                    (1 << width) - 1
                )
            row = 0
            for b in range(width):
                if (working >> b) & 1 and rng.random() < 0.75:
                    row |= 1 << b
            masks.append(row)
        scheduler = RentOrBuyScheduler(float(width), alpha=2.0, memory=8)
        scalar = StreamSession(
            ScalarOnly(scheduler), universe, float(width)
        )
        for mask in masks:
            scalar.feed(mask)
        packed = StreamSession(scheduler, universe, float(width))
        batches = [
            packed.feed_many(masks[lo : lo + 512])
            for lo in range(0, 3000, 512)
        ]
        assert packed.cost == scalar.cost
        assert packed.hyper_count == scalar.hyper_count
        stream_oracle(
            scheduler, universe, float(width), masks, packed.finish(),
            batches,
        )
        hits = packed._batched.multi_trigger_hits
        assert hits > packed.hyper_count // 2  # the fast path carries it

    @settings(deadline=None, max_examples=40)
    @given(stream_instances(max_n=80), st.data())
    def test_multi_trigger_exact_gap_sweep_equivalence(self, instance, data):
        """Tiny alpha·w thresholds force the multi-trigger extension
        through its exact-gap regret sweep (the quiescence bounds
        cannot clear them), which must stay bit-identical too."""
        universe, masks, scheduler = instance
        if not isinstance(scheduler, RentOrBuyScheduler):
            scheduler = RentOrBuyScheduler(1.0, alpha=0.5, memory=3)
        else:
            scheduler = RentOrBuyScheduler(
                1.0, alpha=0.5, memory=scheduler.memory
            )
        scalar = scheduler.cursor()
        ref = []
        for i, mask in enumerate(masks):
            installed = scalar.step(i, mask)
            ref.append(installed is not None)
        lanes = masks_to_lanes(masks, universe.size)
        batched = scheduler.batched_cursor(universe.size)
        got = []
        pos = 0
        while pos < len(masks):
            step = data.draw(st.integers(min_value=1, max_value=len(masks)))
            batch = batched.step_many(lanes[pos : pos + step])
            got.extend(bool(h) for h in batch.hyper)
            pos += step
        assert got == ref
        if masks:
            assert batched.current == scalar.current

    def test_long_calm_stream_crosses_default_sweep_bounds(self):
        """A 2000-step stream with rare working-set changes produces
        no-hyper segments longer than _SCAN_MIN, exercising the
        continuation branch under the production sweep bounds."""
        width = 96
        universe = SwitchUniverse.of_size(width)
        rng = np.random.default_rng(11)
        working = (1 << 12) - 1
        masks = []
        for i in range(2000):
            if i in (700, 1400):  # rare drifts
                working = ((1 << 12) - 1) << (i // 700)
            mask = 0
            for b in range(width):
                if (working >> b) & 1 and rng.random() < 0.8:
                    mask |= 1 << b
            masks.append(mask)
        scheduler = RentOrBuyScheduler(float(width), alpha=2.0, memory=8)
        scalar = StreamSession(ScalarOnly(scheduler), universe, float(width))
        for mask in masks:
            scalar.feed(mask)
        packed = StreamSession(scheduler, universe, float(width))
        packed.feed_many(masks)
        assert packed.cost == scalar.cost
        assert packed.hyper_count == scalar.hyper_count
        # Long segments really occurred (the point of this fixture).
        assert packed.hyper_count < 2000 / 128

    @settings(deadline=None, max_examples=30)
    @given(stream_instances())
    def test_plan_with_batched_cursor_equals_scalar_plan(self, instance):
        """plan() (scalar oracle) and a batched-cursor plan agree on
        hyper steps and explicit masks."""
        from repro.solvers.online import plan_with_cursor

        universe, masks, scheduler = instance
        seq = RequirementSequence(universe, masks)
        scalar_plan = plan_with_cursor(scheduler.cursor(), seq)
        batched_plan = plan_with_cursor(
            scheduler.batched_cursor(universe.size), seq
        )
        assert batched_plan.hyper_steps == scalar_plan.hyper_steps
        assert batched_plan.explicit_masks == scalar_plan.explicit_masks


class TestPackedStream:
    @settings(deadline=None, max_examples=100)
    @given(
        universe_sizes,
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=3),
        st.data(),
    )
    def test_history_matches_deque(self, size, history, streams, data):
        """Any mix of extend, push and extend_many leaves every
        stream's count and tail rows equal to a ``deque(maxlen=
        history)`` of the masks it was fed: ragged lengths, chunks
        shorter and longer than ``history``, and ``history`` 0."""
        universe = SwitchUniverse.of_size(size)
        mask_st = st.integers(min_value=0, max_value=universe.full_mask)
        chunk_st = st.lists(mask_st, min_size=0, max_size=2 * history + 3)
        group = [PackedStream(size, history=history) for _ in range(streams)]
        oracle = [deque(maxlen=history) for _ in range(streams)]
        fed = [0] * streams
        for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
            op = data.draw(st.sampled_from(["extend", "push", "extend_many"]))
            if op == "extend_many":
                chunks = [data.draw(chunk_st) for _ in range(streams)]
                cmax = max(len(c) for c in chunks)
                block = np.zeros(
                    (streams, cmax, group[0].lane_width), dtype=np.uint64
                )
                for s, chunk in enumerate(chunks):
                    if chunk:
                        block[s, : len(chunk)] = masks_to_lanes(chunk, size)
                ext = np.concatenate(
                    [np.stack([st_.history_rows for st_ in group]), block],
                    axis=1,
                )
                lengths = [len(c) for c in chunks]
                if len(set(lengths)) == 1:
                    lengths = None  # every stream takes all Cmax rows
                PackedStream.extend_many(group, ext, lengths=lengths)
            else:
                s = data.draw(st.integers(min_value=0, max_value=streams - 1))
                chunks = [[] for _ in range(streams)]
                chunks[s] = data.draw(chunk_st)
                lanes = masks_to_lanes(chunks[s], size)
                if op == "extend":
                    group[s].extend(lanes)
                else:
                    ext, off = group[s].push(lanes)
                    assert off == len(oracle[s])
                    assert lanes_to_masks(ext) == [*oracle[s], *chunks[s]]
            for s, chunk in enumerate(chunks):
                oracle[s].extend(chunk)
                fed[s] += len(chunk)
            for s, stream in enumerate(group):
                assert stream.n == len(stream) == fed[s]
                for k in range(history + 2):
                    kept = list(oracle[s])
                    expect = kept[len(kept) - min(k, len(kept)) :]
                    assert lanes_to_masks(stream.tail_rows(k)) == expect
                padded = [0] * (history - len(oracle[s])) + list(oracle[s])
                assert lanes_to_masks(stream.history_rows) == padded

    def test_tail_rows_oldest_first(self):
        stream = PackedStream(70, history=3)
        masks = [1 << 69, 3, 1 << 64, 5, 9]
        for m in masks:
            stream.extend(masks_to_lanes([m], 70))
        tail = stream.tail_rows(3)
        assert tail.shape == (3, 2)
        assert [int(t[0]) | (int(t[1]) << 64) for t in tail] == masks[-3:]
        assert not tail.flags.writeable

    def test_push_returns_history_prefixed_chunk(self):
        stream = PackedStream(10, history=2)
        stream.extend(masks_to_lanes([1, 2, 4], 10))
        ext, off = stream.push(masks_to_lanes([8, 16], 10))
        assert off == 2
        assert [int(row[0]) for row in ext] == [2, 4, 8, 16]
        assert stream.n == 5

    def test_history_zero_keeps_counts_only(self):
        stream = PackedStream(8)
        stream.extend(masks_to_lanes([1, 2], 8))
        assert stream.n == 2
        assert stream.history_rows.shape == (0, 1)
        assert stream.tail_rows(5).shape == (0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            PackedStream(0)
        with pytest.raises(ValueError):
            PackedStream(8, history=-1)
        stream = PackedStream(8, history=2)
        with pytest.raises(ValueError):
            stream.extend(np.zeros((1, 2), dtype=np.uint64))
        with pytest.raises(ValueError):
            stream.tail_rows(-1)
        other = PackedStream(8, history=3)
        with pytest.raises(ValueError, match="equal lane width"):
            PackedStream.extend_many(
                [stream, other], np.zeros((2, 5, 1), dtype=np.uint64)
            )


class TestPackedSession:
    @settings(deadline=None, max_examples=40)
    @given(stream_instances(), st.data())
    def test_packed_session_bit_identical_to_scalar_session(
        self, stream_oracle, instance, data
    ):
        """Costs, hyper counts, close records and per-chunk accounting
        of the packed session equal the scalar-cursor session exactly
        (the cost is accumulated in the same float order, so == not
        approx) and match run_online's schedule."""
        universe, masks, scheduler = instance
        w = float(getattr(scheduler, "w", 0.0) or universe.size)
        scalar = StreamSession(ScalarOnly(scheduler), universe, w)
        packed = StreamSession(scheduler, universe, w)
        assert scalar._batched is None and packed._batched is not None
        for mask in masks:
            scalar.feed(mask)
        pos = 0
        batches = []
        while pos < len(masks):
            step = data.draw(st.integers(min_value=1, max_value=len(masks)))
            batches.append(packed.feed_many(masks[pos : pos + step]))
            assert batches[-1].cumulative_cost == packed.cost
            pos += step
        assert packed.cost == scalar.cost
        assert packed.steps == scalar.steps
        assert packed.hyper_count == scalar.hyper_count
        assert packed.current_hypercontext == scalar.current_hypercontext
        stream_oracle(scheduler, universe, w, masks, packed.finish(), batches)

    def test_feed_events_match_scalar_path(self):
        universe = SwitchUniverse.of_size(70)
        scheduler = RentOrBuyScheduler(6.0, memory=3)
        packed = StreamSession(scheduler, universe, 6.0)
        scalar = StreamSession(ScalarOnly(scheduler), universe, 6.0)
        masks = [1, 1 << 65, (1 << 65) | 3, 1, 7]
        for mask in masks:
            a = packed.feed(mask)
            b = scalar.feed(mask)
            assert a == b

    def test_feed_many_accepts_lane_arrays(self):
        universe = SwitchUniverse.of_size(12)
        session = StreamSession(WindowScheduler(k=3), universe, 4.0)
        lanes = masks_to_lanes([1, 2, 4, 8], universe.size)
        batch = session.feed_many(lanes)
        assert batch.steps == 4
        assert session.steps == 4
        session.finish()

    @pytest.mark.parametrize("chunk", [2, 5])
    @pytest.mark.parametrize("kind", ["rent_or_buy", "window", "scalar"])
    def test_feed_many_keeps_no_reference_to_lane_buffers(
        self, stream_oracle, kind, chunk
    ):
        """A serving loop may reuse one preallocated buffer across
        feeds: scribbling over it right after each feed changes no
        later decision, for chunks shorter and longer than the
        policy's history (no cursor or stream row aliases it)."""
        universe = SwitchUniverse.of_size(12)
        scheduler = (
            WindowScheduler(k=3) if kind == "window"
            else RentOrBuyScheduler(4.0, alpha=0.5, memory=3)
        )
        session = StreamSession(
            ScalarOnly(scheduler) if kind == "scalar" else scheduler,
            universe, 4.0,
        )
        rng = np.random.default_rng(5)
        fed = [int(x) for x in rng.integers(0, 1 << 12, 12 * chunk)]
        buffer = np.zeros((chunk, 1), dtype=np.uint64)
        batches = []
        for lo in range(0, len(fed), chunk):
            buffer[:, 0] = fed[lo : lo + chunk]
            batches.append(session.feed_many(buffer))
            buffer[:] = universe.full_mask
        stream_oracle(scheduler, universe, 4.0, fed, session.finish(), batches)


class TestStreamHub:
    def test_hub_accounting_cross_checked_against_switch_cost(
        self, stream_oracle
    ):
        """Every finished hub session matches the scalar session and
        the offline evaluator, and the aggregate counters add up."""
        universe = SwitchUniverse.of_size(96)
        rng = np.random.default_rng(7)
        hub = StreamHub()
        expected = {}
        for s, scheduler in enumerate(
            [
                RentOrBuyScheduler(8.0, memory=4),
                WindowScheduler(k=5),
                RentOrBuyScheduler(8.0, alpha=2.0, memory=1),
            ]
        ):
            masks = [
                int.from_bytes(rng.bytes(12), "little") & universe.full_mask
                for _ in range(40)
            ]
            sid = hub.open(scheduler, universe, 8.0, session_id=f"u{s}")
            expected[sid] = (scheduler, masks)
        # interleaved chunks across sessions
        batches = {sid: [] for sid in expected}
        for lo in range(0, 40, 7):
            out = hub.feed_many({
                sid: masks[lo : lo + 7]
                for sid, (_scheduler, masks) in expected.items()
            })
            for sid, batch in out.items():
                batches[sid].append(batch)
        runs = hub.finish_all()
        assert set(runs) == set(expected)
        total_cost = 0.0
        total_steps = total_hypers = 0
        for sid, (scheduler, masks) in expected.items():
            run = runs[sid]
            assert run.session == sid
            stream_oracle(scheduler, universe, 8.0, masks, run, batches[sid])
            total_cost += run.cost
            total_steps += run.steps
            total_hypers += run.hypers
        assert hub.total_steps == total_steps == hub.metrics.stream_steps
        assert hub.total_hypers == total_hypers == hub.metrics.stream_hypers
        assert hub.total_cost == pytest.approx(total_cost)
        assert hub.metrics.stream_sessions == 3
        assert 0.0 < hub.hyper_rate <= 1.0
        snap = hub.metrics.snapshot()["stream"]
        assert snap["steps"] == total_steps
        assert snap["steps_per_s"] > 0

    def test_hub_matches_standalone_sessions(self):
        """Multiplexing changes nothing: per-session results equal a
        standalone StreamSession fed the same masks."""
        universe = SwitchUniverse.of_size(40)
        rng = np.random.default_rng(3)
        masks_a = [int(x) for x in rng.integers(0, 1 << 40, 30)]
        masks_b = [int(x) for x in rng.integers(0, 1 << 40, 25)]
        hub = StreamHub()
        a = hub.open(RentOrBuyScheduler(5.0), universe, 5.0)
        b = hub.open(WindowScheduler(k=4), universe, 5.0)
        pos = 0
        while pos < 30:
            chunks = {a: masks_a[pos : pos + 6]}
            if pos < 25:
                chunks[b] = masks_b[pos : pos + 6]
            hub.feed_many(chunks)
            pos += 6
        runs = hub.finish_all()
        ses_a = StreamSession(RentOrBuyScheduler(5.0), universe, 5.0)
        ses_a.feed_many(masks_a)
        ses_b = StreamSession(WindowScheduler(k=4), universe, 5.0)
        ses_b.feed_many(masks_b)
        assert runs[a].cost == ses_a.finish().cost
        assert runs[b].cost == ses_b.finish().cost

    def test_retain_runs_off_frees_runs_and_ids(self):
        """Service mode: finished runs go only to the caller, the id is
        immediately reusable, and nothing accumulates in the hub."""
        universe = SwitchUniverse.of_size(8)
        hub = StreamHub(retain_runs=False)
        for _round in range(3):
            sid = hub.open(
                WindowScheduler(k=2), universe, 3.0, session_id="user"
            )
            assert sid == "user"
            hub.feed_many({sid: [1, 3]})
            run = hub.finish(sid)
            assert (run.session, run.steps) == ("user", 2)
        assert hub.runs() == {}
        assert hub.total_steps == 0  # no retained history, by design

    def test_session_lifecycle_and_errors(self):
        universe = SwitchUniverse.of_size(8)
        hub = StreamHub()
        sid = hub.open(WindowScheduler(k=2), universe, 3.0)
        assert sid in hub and len(hub) == 1
        with pytest.raises(ValueError):
            hub.open(WindowScheduler(k=2), universe, 3.0, session_id=sid)
        event = hub.feed(sid, 0b11)
        assert event.hyper and event.step == 0
        hub.finish(sid)
        assert sid not in hub
        with pytest.raises(KeyError):
            hub.feed(sid, 1)
        with pytest.raises(ValueError):
            hub.open(WindowScheduler(k=2), universe, 3.0, session_id=sid)
        assert sid in hub.runs()
        # auto ids never collide with reserved ones
        other = hub.open(WindowScheduler(k=2), universe, 3.0)
        assert other != sid


class TestPickledFanOut:
    def test_large_problems_through_workers_equal_inline(self):
        """Compiled problems of over 64 KiB of lanes cross to the
        worker processes pickled; the answers equal the inline solve
        and the metrics count every shipped byte."""
        from repro.analysis.sweeps import make_instance
        from repro.engine import BatchEngine, SolveRequest

        requests = []
        for seed in range(2):
            system, seqs = make_instance(4, 288, 128, seed=seed)
            requests.append(
                SolveRequest.multi(system, seqs, solver="mt_greedy")
            )
        inline = BatchEngine(workers=1, cache_size=0)
        pooled = BatchEngine(workers=2, chunk_size=1, cache_size=0)
        base = inline.solve_batch(requests)
        fanned = pooled.solve_batch(requests)
        for a, b in zip(base, fanned):
            assert a.ok and b.ok
            assert a.value.cost == b.value.cost
            assert a.value.schedule.indicators == b.value.schedule.indicators
        lane_bytes = [
            pooled._packed_for(request).lanes.nbytes for request in requests
        ]
        assert min(lane_bytes) >= 1 << 16
        assert pooled.metrics.packed_bytes_shipped >= sum(lane_bytes)
        assert pooled.metrics.packed_bytes_shared == 0
        assert inline.metrics.packed_bytes_shipped == 0

    def test_one_problem_shared_by_two_solvers(self):
        from repro.analysis.sweeps import make_instance
        from repro.engine import BatchEngine, SolveRequest

        system, seqs = make_instance(2, 10, 4, seed=0)
        requests = [
            SolveRequest.multi(system, seqs, solver="mt_greedy"),
            SolveRequest.multi(system, seqs, solver="mt_branch_bound"),
        ]
        engine = BatchEngine(workers=2, cache_size=0)
        results = engine.solve_batch(requests)
        assert all(r.ok for r in results)
        assert engine.metrics.packed_bytes_shipped > 0
        assert engine.metrics.packed_bytes_shared == 0
