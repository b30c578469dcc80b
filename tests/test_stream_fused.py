"""Equivalence suite for the fused multi-cursor sweep kernel.

The scalar cursors remain the correctness oracle; the fused
``sweep_many`` path — epoch-synchronous struct-of-arrays sweeps over
whole fleets inside :meth:`StreamHub.feed_many`, batched trigger
replay included — must reproduce the sequential per-session path (and
therefore the scalar oracle) *bit for bit*: across mixed universe
widths straddling the lane boundary, mixed policies and
hyper-parameters, chunkings from single steps to 4096-step blocks,
ragged per-session chunk lengths, and adversarial trigger-every-step
streams.  The suite also pins the satellite contracts of the fused
PRs: batched ``PackedStream.extend_many`` vs per-stream ``extend``
(ragged lengths included), installs near a chunk's front that read
the history rows stacked above it, the O(1)
``total_steps``/``total_hypers`` counters, the galloping-scan bound
tunables, and shard-placement independence through the fused path.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packed import PackedStream, masks_to_lanes
from repro.core.switches import SwitchUniverse
from repro.engine.stream import FeedRows, StreamHub, StreamSession
from repro.serve.shard import ShardPool
from repro.solvers import online
from repro.solvers.online import (
    RentOrBuyScheduler, ScalarOnly, WindowScheduler,
)
from repro.util.rng import make_rng

#: Universe sizes straddling the uint64 lane boundary.
BOUNDARY_WIDTHS = [63, 64, 65]


@pytest.fixture(autouse=True)
def force_epoch_kernel(request, monkeypatch):
    """Pin the small-stack crossover to 0 so every fleet in this suite
    drives the epoch kernel — the adversarial cases exist to cover it,
    and production fleets below ``SMALL_STACK_SESSIONS`` would
    otherwise delegate to per-cursor ``step_many``.  Tests marked
    ``default_crossover`` keep the production threshold."""
    if "default_crossover" in request.keywords:
        return
    monkeypatch.setattr(online, "SMALL_STACK_SESSIONS", 0)


def _drift_masks(width, n, seed, *, phase=40, flip=0.05):
    """Working-set stream with drift — calm stretches + occasional
    trigger steps, the shape the fused kernel is built around."""
    rng = make_rng(seed)
    full = (1 << width) - 1
    nbytes = (width + 7) // 8

    def _random_mask():
        return int.from_bytes(rng.bytes(nbytes), "little") & full

    working = _random_mask()
    masks = []
    for i in range(n):
        if phase and i and i % phase == 0:
            working = _random_mask()
        mask = working
        if rng.random() < flip:
            mask |= 1 << int(rng.integers(0, width))
        masks.append(mask & full)
    return masks


def _mixed_scheduler(idx, w, k=5):
    if idx % 3 == 2:
        return WindowScheduler(k=k)
    return RentOrBuyScheduler(
        w, alpha=(0.5, 2.0)[idx % 2], memory=2 + idx % 3
    )


def _run_hub(fleet, *, fused, chunk_sizes):
    """Feed every session the same chunking; return the close records,
    every session's per-chunk batches, and the hub."""
    hub = StreamHub(fused=fused)
    for sid, (universe, w, scheduler, _masks, lanes) in fleet.items():
        hub.open(scheduler, universe, w, session_id=sid)
    pos = {sid: 0 for sid in fleet}
    batches = {sid: [] for sid in fleet}
    for size in chunk_sizes:
        chunks = {}
        for sid, (_u, _w, _s, _m, lanes) in fleet.items():
            lo = pos[sid]
            if lo >= len(lanes):
                continue
            chunks[sid] = lanes[lo : lo + size]
            pos[sid] = lo + len(chunks[sid])
        if chunks:
            for sid, batch in hub.feed_many(chunks).items():
                batches[sid].append(batch)
    return hub.finish_all(), batches, hub


def _per_step(batches):
    """sid → (hyper steps, per-step |h|) off the per-chunk batches."""
    out = {}
    for sid, chunks in batches.items():
        flags = np.concatenate([b.hyper_flags for b in chunks])
        sizes = np.concatenate([b.sizes for b in chunks])
        out[sid] = (tuple(np.flatnonzero(flags).tolist()), sizes.tolist())
    return out


def _check_fleet(stream_oracle, fleet, closes, batches):
    """Every session of ``fleet`` against the scalar and offline oracles."""
    for sid, (universe, w, scheduler, masks, _lanes) in fleet.items():
        stream_oracle(
            scheduler, universe, w, masks, closes[sid], batches[sid]
        )


@st.composite
def fused_fleets(draw):
    """A small mixed fleet plus a chunking schedule."""
    n = draw(st.integers(min_value=1, max_value=48))
    fleet = {}
    for idx in range(draw(st.integers(min_value=2, max_value=5))):
        width = draw(
            st.one_of(
                st.sampled_from(BOUNDARY_WIDTHS),
                st.integers(min_value=1, max_value=100),
            )
        )
        universe = SwitchUniverse.of_size(width)
        w = float(draw(st.integers(min_value=1, max_value=10)))
        kind = draw(st.sampled_from(["rent_or_buy", "window"]))
        if kind == "rent_or_buy":
            scheduler = RentOrBuyScheduler(
                w,
                alpha=draw(st.sampled_from([0.5, 1.0, 3.0])),
                memory=draw(st.integers(min_value=1, max_value=5)),
            )
        else:
            scheduler = WindowScheduler(
                k=draw(st.integers(min_value=1, max_value=7))
            )
        mask_st = st.integers(min_value=0, max_value=universe.full_mask)
        style = draw(st.sampled_from(["random", "calm", "drift"]))
        if style == "random":
            masks = [draw(mask_st) for _ in range(n)]
        elif style == "calm":
            masks = [draw(mask_st)] * n
        else:
            masks = _drift_masks(
                width, n, seed=draw(st.integers(0, 1000)), phase=8
            )
        fleet[f"u{idx}"] = (
            universe, w, scheduler, masks, masks_to_lanes(masks, width)
        )
    sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=17), min_size=1, max_size=12
        )
    )
    return fleet, sizes


class TestFusedHubEquivalence:
    @settings(deadline=None, max_examples=60)
    @given(fused_fleets())
    def test_fused_equals_sequential_equals_scalar(self, stream_oracle, case):
        """Costs and hyper schedules are identical on the fused path,
        the per-session path, and the scalar oracle, for every fleet
        mix and chunking hypothesis finds."""
        fleet, sizes = case
        # Pad the chunking so every session's stream is fully consumed.
        total = max(len(m) for *_rest, m, _l in
                    ((u, w, s, m, l) for u, w, s, m, l in fleet.values()))
        sizes = list(sizes) + [total]
        fused_closes, fused_batches, _ = _run_hub(
            fleet, fused=True, chunk_sizes=sizes
        )
        seq_closes, seq_batches, _ = _run_hub(
            fleet, fused=False, chunk_sizes=sizes
        )
        assert fused_closes == seq_closes
        assert _per_step(fused_batches) == _per_step(seq_batches)
        _check_fleet(stream_oracle, fleet, fused_closes, fused_batches)

    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
    @pytest.mark.parametrize("chunk", [1, 3, 64, 777, 4096])
    def test_chunk_size_sweep_at_lane_boundary(
        self, stream_oracle, width, chunk
    ):
        """Single-step through 4096-step chunkings at 63/64/65 switches
        all reproduce the scalar oracle bit for bit."""
        n = 4096
        universe = SwitchUniverse.of_size(width)
        w = float(width)

        def scheduler_for(idx):
            # Two RoB sessions share memory (same history → same fused
            # group; alpha may differ inside it), two windows share k.
            if idx < 2:
                return RentOrBuyScheduler(
                    w, alpha=(0.5, 2.0)[idx], memory=3
                )
            return WindowScheduler(k=64)

        fleet = {}
        for idx in range(4):
            masks = _drift_masks(width, n, seed=idx * 7 + width, phase=300)
            fleet[f"u{idx}"] = (
                universe, w, scheduler_for(idx), masks,
                masks_to_lanes(masks, width),
            )
        sizes = [chunk] * ((n + chunk - 1) // chunk)
        closes, batches, hub = _run_hub(fleet, fused=True, chunk_sizes=sizes)
        _check_fleet(stream_oracle, fleet, closes, batches)
        # The kernel actually engaged somewhere on calm stretches
        # (wide chunks on drifting streams always trigger; narrow
        # ones mostly don't).
        m = hub.metrics
        assert m.stream_fused + m.stream_fused_fallback > 0

    def test_trigger_heavy_stream_fuses_with_batched_replay(
        self, stream_oracle
    ):
        """Adversarial streams that misfit every chunk: batched trigger
        replay keeps every session inside the kernel — zero per-session
        fallback — and stays bit-identical to the oracle."""
        width = 64
        universe = SwitchUniverse.of_size(width)
        w = 4.0
        n, chunk = 256, 8
        fleet = {}
        for idx in range(4):
            # Alternate two disjoint masks: served never covers the
            # next requirement, so every chunk used to escape the old
            # quiet-only sweep.
            a = 0x5555555555555555 >> idx
            b = ~a & universe.full_mask
            masks = [a if i % 2 == 0 else b for i in range(n)]
            fleet[f"u{idx}"] = (
                universe,
                w,
                RentOrBuyScheduler(w, alpha=0.5, memory=1),
                masks,
                masks_to_lanes(masks, width),
            )
        sizes = [chunk] * (n // chunk)
        closes, batches, hub = _run_hub(fleet, fused=True, chunk_sizes=sizes)
        assert hub.metrics.stream_fused == len(fleet) * len(sizes)
        assert hub.metrics.stream_fused_fallback == 0
        assert hub.metrics.stream_replay_epochs > 0
        assert hub.metrics.stream_replay_triggers > 0
        _check_fleet(stream_oracle, fleet, closes, batches)
        # Replay telemetry counts real installs: every session installs
        # at least once, and the counter is bounded by total steps.
        total_installs = sum(c.hypers for c in closes.values())
        assert hub.metrics.stream_replay_triggers == total_installs

    def test_fused_flag_off_never_records_fused(self):
        width = 66
        universe = SwitchUniverse.of_size(width)
        w = 3.0
        masks = _drift_masks(width, 40, seed=5)
        lanes = masks_to_lanes(masks, width)
        hub = StreamHub(fused=False)
        for idx in range(3):
            hub.open(
                RentOrBuyScheduler(w, alpha=1.0, memory=2),
                universe,
                w,
                session_id=f"u{idx}",
            )
        hub.feed_many({f"u{idx}": lanes for idx in range(3)})
        assert hub.metrics.stream_fused == 0
        assert hub.metrics.stream_fused_fallback == 0
        assert hub.last_fused == (0, 0, (), 0, 0)


class TestBatchedTriggerReplay:
    """Adversarial epoch-replay cases: hectic phases, mixed fleets,
    ragged chunk lengths.  Every case pins fused ≡ sequential ≡ scalar."""

    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
    def test_every_step_window_trigger(self, stream_oracle, width):
        """WindowScheduler(k=1) installs on every step — the densest
        possible trigger epoch sequence."""
        universe = SwitchUniverse.of_size(width)
        w = 2.0
        n, chunk = 160, 32
        fleet = {}
        rng = make_rng(width)
        for idx in range(3):
            masks = [
                int.from_bytes(rng.bytes((width + 7) // 8), "little")
                & universe.full_mask
                for _ in range(n)
            ]
            fleet[f"u{idx}"] = (
                universe, w, WindowScheduler(k=1), masks,
                masks_to_lanes(masks, width),
            )
        sizes = [chunk] * (n // chunk)
        closes, batches, hub = _run_hub(fleet, fused=True, chunk_sizes=sizes)
        assert hub.metrics.stream_fused == len(fleet) * len(sizes)
        assert hub.metrics.stream_fused_fallback == 0
        # k=1 cadence fires every step.
        assert hub.metrics.stream_replay_triggers == len(fleet) * n
        _check_fleet(stream_oracle, fleet, closes, batches)
        assert all(close.hypers == n for close in closes.values())

    def test_mixed_quiet_and_hectic_sessions_one_group(self, stream_oracle):
        """Calm and every-step-trigger sessions sharing one group key
        sweep together: the quiet rows coast to the epoch horizon while
        the hectic rows replay, with no cross-contamination."""
        width = 65
        universe = SwitchUniverse.of_size(width)
        w = 6.0
        n, chunk = 240, 48
        scheduler = RentOrBuyScheduler(w, alpha=0.5, memory=1)
        a = (0x5555555555555555 << 1) & universe.full_mask
        b = ~a & universe.full_mask
        fleet = {}
        for idx in range(6):
            if idx % 2 == 0:
                masks = [a] * n  # quiet after the first install
            else:
                masks = [a if i % 2 == 0 else b for i in range(n)]
            fleet[f"u{idx}"] = (
                universe,
                w,
                RentOrBuyScheduler(w, alpha=0.5, memory=1),
                masks,
                masks_to_lanes(masks, width),
            )
        sizes = [chunk] * (n // chunk)
        fused_closes, fused_batches, hub = _run_hub(
            fleet, fused=True, chunk_sizes=sizes
        )
        seq_closes, seq_batches, _ = _run_hub(
            fleet, fused=False, chunk_sizes=sizes
        )
        assert fused_closes == seq_closes
        assert _per_step(fused_batches) == _per_step(seq_batches)
        assert hub.metrics.stream_fused == len(fleet) * len(sizes)
        assert hub.metrics.stream_fused_fallback == 0
        # All six sessions share (type, lanes, history): one group.
        assert hub.last_fused[2] == (len(fleet),)
        _check_fleet(stream_oracle, fleet, fused_closes, fused_batches)

    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
    def test_ragged_chunk_lengths_fuse_in_one_group(
        self, stream_oracle, width
    ):
        """Sessions with different chunk lengths in the same feed_many
        call fuse under the length-free group key — including lone
        sessions that previously short-circuited — and reproduce the
        oracle bit for bit."""
        universe = SwitchUniverse.of_size(width)
        w = float(width)
        lengths = [37, 64, 101, 5, 128]
        scheduler_args = dict(alpha=1.0, memory=3)
        fleet = {}
        for idx, total in enumerate(lengths):
            masks = _drift_masks(width, total, seed=idx * 11 + width, phase=9)
            fleet[f"u{idx}"] = (
                universe,
                w,
                RentOrBuyScheduler(w, **scheduler_args),
                masks,
                masks_to_lanes(masks, width),
            )
        for fused in (True, False):
            hub = StreamHub(fused=fused)
            for sid, (u, _w, s, _m, _l) in fleet.items():
                hub.open(s, u, w, session_id=sid)
            pos = {sid: 0 for sid in fleet}
            batches = {sid: [] for sid in fleet}
            # Ragged rounds: session idx advances by a per-session
            # stride, so each feed_many carries mixed chunk lengths.
            strides = [7, 16, 23, 1, 31]
            while any(pos[sid] < len(fleet[sid][3]) for sid in fleet):
                chunks = {}
                for idx, sid in enumerate(fleet):
                    lo = pos[sid]
                    ln = fleet[sid][4]
                    if lo >= len(ln):
                        continue
                    chunks[sid] = ln[lo : lo + strides[idx]]
                    pos[sid] = lo + len(chunks[sid])
                for sid, batch in hub.feed_many(chunks).items():
                    batches[sid].append(batch)
            if fused:
                assert hub.metrics.stream_fused > 0
                assert hub.metrics.stream_fused_fallback == 0
                # The final round is a lone leftover session — the old
                # singleton short-circuit would have skipped it.
                assert max(hub.last_fused[2], default=0) >= 1
            _check_fleet(stream_oracle, fleet, hub.finish_all(), batches)

    def test_lone_session_group_fuses(self, stream_oracle):
        """A single-session feed_many goes through the kernel: the
        lone-session short-circuit is gone."""
        width = 64
        universe = SwitchUniverse.of_size(width)
        w = 3.0
        masks = _drift_masks(width, 200, seed=3, phase=25)
        lanes = masks_to_lanes(masks, width)
        hub = StreamHub(fused=True)
        scheduler = RentOrBuyScheduler(w, alpha=1.0, memory=2)
        sid = hub.open(scheduler, universe, w)
        batches = [
            hub.feed_many({sid: lanes[lo : lo + 50]})[sid]
            for lo in range(0, 200, 50)
        ]
        assert hub.metrics.stream_fused == 4
        assert hub.metrics.stream_fused_fallback == 0
        stream_oracle(scheduler, universe, w, masks, hub.finish(sid), batches)

    @pytest.mark.default_crossover
    def test_small_stack_crossover_is_equivalent(self, stream_oracle):
        """At the production threshold, small groups delegate to
        per-cursor ``step_many`` inside the sweep contract: the hub
        still reports every session fused (no fallback branch), replay
        telemetry still counts real installs, and decisions match the
        oracle bit for bit."""
        assert online.SMALL_STACK_SESSIONS > 0
        width = 65
        universe = SwitchUniverse.of_size(width)
        w = 4.0
        n, chunk = 192, 48
        fleet = {}
        for idx in range(online.SMALL_STACK_SESSIONS):
            masks = _drift_masks(width, n, seed=idx, phase=9)
            fleet[f"u{idx}"] = (
                universe,
                w,
                RentOrBuyScheduler(w, alpha=1.0, memory=2),
                masks,
                masks_to_lanes(masks, width),
            )
        sizes = [chunk] * (n // chunk)
        closes, batches, hub = _run_hub(fleet, fused=True, chunk_sizes=sizes)
        assert hub.metrics.stream_fused == len(fleet) * len(sizes)
        assert hub.metrics.stream_fused_fallback == 0
        total_installs = sum(c.hypers for c in closes.values())
        assert hub.metrics.stream_replay_triggers == total_installs
        assert hub.metrics.stream_replay_epochs > 0
        _check_fleet(stream_oracle, fleet, closes, batches)


class TestRowAlignedEpochs:
    """``sweep_many`` rows against per-cursor ``step_many`` rows.

    Long ragged chunks and tiny galloping bounds make every epoch read
    per-row windows from scattered resume offsets, gallop across quiet
    stretches, bank state at chunk ends and install near chunk fronts;
    the whole ``hyper``/``sizes`` rows and install runs must match, not
    just the costs."""

    @pytest.mark.parametrize("kind", ["rent_or_buy", "window"])
    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
    @settings(deadline=None, max_examples=15)
    @given(
        seed=st.integers(0, 10_000),
        sessions=st.integers(2, 8),
        history=st.integers(1, 6),
        scan_min=st.integers(1, 4),
        scan_extra=st.integers(0, 12),
        phase=st.sampled_from([3, 17, 90]),
        rounds=st.lists(
            st.lists(st.integers(1, 300), min_size=8, max_size=8),
            min_size=1,
            max_size=3,
        ),
    )
    def test_sweep_rows_equal_step_many_rows(
        self, kind, width, seed, sessions, history, scan_min, scan_extra,
        phase, rounds,
    ):
        w = float(width)

        def scheduler(s):
            if kind == "window":
                return WindowScheduler(k=history)
            return RentOrBuyScheduler(
                w * (1 + s % 3), alpha=(0.5, 2.0)[s % 2], memory=history,
                scan_min=scan_min, scan_max=scan_min + scan_extra,
            )

        fused = [scheduler(s).batched_cursor(width) for s in range(sessions)]
        solo = [scheduler(s).batched_cursor(width) for s in range(sessions)]
        total = [sum(r[s] for r in rounds) for s in range(sessions)]
        streams = [
            masks_to_lanes(
                _drift_masks(width, total[s], seed + s, phase=phase), width
            )
            for s in range(sessions)
        ]
        pos = [0] * sessions
        cls = type(fused[0])
        for lengths in rounds:
            lengths = np.asarray(lengths[:sessions], dtype=np.int64)
            block = np.zeros(
                (sessions, int(lengths.max()), streams[0].shape[1]),
                dtype=np.uint64,
            )
            chunks = []
            for s in range(sessions):
                chunks.append(streams[s][pos[s] : pos[s] + lengths[s]])
                block[s, : lengths[s]] = chunks[s]
                pos[s] += int(lengths[s])
            sweep = cls.sweep_many(fused, block, lengths=lengths)
            offsets = np.concatenate([[0], np.cumsum(sweep.installed_counts)])
            for s in range(sessions):
                n = int(lengths[s])
                batch = solo[s].step_many(chunks[s])
                np.testing.assert_array_equal(sweep.hyper[s, :n], batch.hyper)
                np.testing.assert_array_equal(sweep.sizes[s, :n], batch.sizes)
                assert not sweep.hyper[s, n:].any()
                assert not sweep.sizes[s, n:].any()
                np.testing.assert_array_equal(
                    sweep.installed[offsets[s] : offsets[s + 1]],
                    batch.installed,
                )
        for f, c in zip(fused, solo):
            assert f.current == c.current
            if kind == "rent_or_buy":
                assert f._regret == c._regret
                np.testing.assert_array_equal(f._served, c._served)


class TestExtendMany:
    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(min_value=1, max_value=130),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=2, max_value=5),
        st.booleans(),
        st.integers(min_value=0, max_value=1000),
    )
    def test_extend_many_matches_per_stream_extend(
        self, width, history, chunk, streams, ragged, seed
    ):
        """One extend_many over S streams' history-prefixed block is
        observably identical to per-stream extend: counts, history
        rows and tail rows, ragged lengths included."""
        rng = make_rng(seed)
        L = (width + 63) // 64
        block = rng.integers(
            0, 1 << 63, size=(streams, chunk, L), dtype=np.uint64
        )
        lengths = (
            rng.integers(1, chunk + 1, size=streams) if ragged else None
        )
        # Seed each stream with a distinct prefix so histories differ
        # (some streams stay younger than ``history``).
        prefixes = [
            rng.integers(
                0, 1 << 63, size=(int(rng.integers(0, 2 * history + 2)), L),
                dtype=np.uint64,
            )
            for _ in range(streams)
        ]
        batched = [PackedStream(width, history=history) for _ in range(streams)]
        solo = [PackedStream(width, history=history) for _ in range(streams)]
        for s in range(streams):
            batched[s].extend(prefixes[s])
            solo[s].extend(prefixes[s])
        ext = np.concatenate(
            [np.stack([st_.history_rows for st_ in batched]), block], axis=1
        )
        PackedStream.extend_many(batched, ext, lengths=lengths)
        for s in range(streams):
            n_s = chunk if lengths is None else int(lengths[s])
            solo[s].extend(block[s, :n_s])
        for s in range(streams):
            assert batched[s].n == solo[s].n
            np.testing.assert_array_equal(
                batched[s].history_rows, solo[s].history_rows
            )
            for k in range(history + 2):
                np.testing.assert_array_equal(
                    batched[s].tail_rows(k), solo[s].tail_rows(k)
                )


def _front_drift_chunks(rng, width, history, lengths):
    """Chunks of the given lengths whose working set changes at a
    random step in the first ``history`` steps of every chunk, so the
    installs there read their window partly from the previous chunks."""
    full = (1 << width) - 1
    nbytes = (width + 7) // 8

    def fresh():
        return int.from_bytes(rng.bytes(nbytes), "little") & full

    working = fresh()
    chunks = []
    for length in lengths:
        drift = int(rng.integers(0, min(history, length)))
        chunk = []
        for t in range(length):
            if t == drift:
                working = fresh()
            chunk.append(working | (fresh() if rng.random() < 0.1 else 0))
        chunks.append(chunk)
    return chunks


class TestHistoryPrefixedInstalls:
    """Installs near a chunk's front read the stream history rows that
    the sweep stacks above the chunk; young streams read zero rows."""

    @settings(deadline=None, max_examples=40)
    @given(
        st.sampled_from(["rent_or_buy", "window"]),
        st.one_of(
            st.sampled_from(BOUNDARY_WIDTHS),
            st.integers(min_value=1, max_value=140),
        ),
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=1000),
    )
    def test_front_installs_match_scalar_sessions(
        self, stream_oracle, kind, width, history, sessions, seed
    ):
        rng = make_rng(seed)
        universe = SwitchUniverse.of_size(width)

        def scheduler(s):
            if kind == "window":
                return WindowScheduler(k=history)
            return RentOrBuyScheduler(
                float(1 + s % 4), alpha=(0.5, 2.0)[s % 2], memory=history + 1
            )

        rounds = 4
        plans = []
        for s in range(sessions):
            # Round 0 leaves every stream younger than ``history``;
            # later chunks are ragged, shorter and longer than it.
            lengths = [int(rng.integers(1, history))] + [
                int(rng.integers(1, 3 * history)) for _ in range(rounds - 1)
            ]
            plans.append(_front_drift_chunks(rng, width, history, lengths))
        hub = StreamHub()
        ids = [f"u{s}" for s in range(sessions)]
        for s, sid in enumerate(ids):
            hub.open(scheduler(s), universe, float(1 + s % 4), session_id=sid)
        batches = {sid: [] for sid in ids}
        for r in range(rounds):
            out = hub.feed_many({
                sid: masks_to_lanes(plans[s][r], width)
                for s, sid in enumerate(ids)
            })
            assert hub.last_fused[:3] == (sessions, 0, (sessions,))
            for sid, batch in out.items():
                batches[sid].append(batch)
        closes = hub.finish_all()
        for s, sid in enumerate(ids):
            masks = [mask for chunk in plans[s] for mask in chunk]
            stream_oracle(
                scheduler(s), universe, float(1 + s % 4), masks,
                closes[sid], batches[sid],
            )


class TestTotalsCounters:
    def test_running_counters_match_per_session_sums(self):
        width = 80
        universe = SwitchUniverse.of_size(width)
        w = 5.0
        hub = StreamHub()
        lanes = {}
        for idx in range(5):
            sid = hub.open(
                _mixed_scheduler(idx, w), universe, w, session_id=f"u{idx}"
            )
            lanes[sid] = masks_to_lanes(
                _drift_masks(width, 30 + idx * 7, seed=idx), width
            )
        for lo in range(0, 60, 10):
            hub.feed_many({
                sid: ln[lo : lo + 10]
                for sid, ln in lanes.items()
                if lo < len(ln)
            })
        expect_steps = sum(len(ln) for ln in lanes.values())
        assert hub.total_steps == expect_steps
        assert hub.total_hypers == sum(
            hub.session(sid).hyper_count for sid in lanes
        )
        # Closing with retained runs keeps the totals; the counters
        # must agree with what a re-sum would have said.
        runs = hub.finish_all()
        assert hub.total_steps == sum(r.steps for r in runs.values())
        assert hub.total_hypers == sum(r.hypers for r in runs.values())

    def test_counters_drop_on_unretained_finish(self):
        width = 40
        universe = SwitchUniverse.of_size(width)
        w = 2.0
        hub = StreamHub(retain_runs=False)
        sid = hub.open(RentOrBuyScheduler(w, alpha=1.0), universe, w)
        hub.feed_many({
            sid: masks_to_lanes(_drift_masks(width, 25, seed=1), width)
        })
        assert hub.total_steps == 25
        hub.finish(sid)
        assert hub.total_steps == 0
        assert hub.total_hypers == 0


class TestScanBoundTunables:
    def test_scan_bounds_never_change_decisions(self, stream_oracle):
        width = 72
        universe = SwitchUniverse.of_size(width)
        w = float(width)
        masks = _drift_masks(width, 600, seed=9, phase=37)
        lanes = masks_to_lanes(masks, width)
        for scan_min, scan_max in [
            (None, None), (1, 1), (1, 8), (5, 4096), (4096, 4096),
        ]:
            scheduler = RentOrBuyScheduler(
                w, alpha=1.5, memory=3,
                scan_min=scan_min, scan_max=scan_max,
            )
            session = StreamSession(scheduler, universe, w)
            batches = [
                session.feed_many(lanes[lo : lo + 50])
                for lo in range(0, len(lanes), 50)
            ]
            stream_oracle(
                scheduler, universe, w, masks, session.finish(), batches
            )

    def test_scan_bound_validation(self):
        with pytest.raises(ValueError):
            RentOrBuyScheduler(4.0, scan_min=0)
        with pytest.raises(ValueError):
            RentOrBuyScheduler(4.0, scan_min=16, scan_max=8)
        # A lone small scan_max caps scan_min implicitly.
        scheduler = RentOrBuyScheduler(4.0, scan_max=2)
        cursor = scheduler.batched_cursor(64)
        assert cursor.scan_max == 2
        assert cursor.scan_min <= 2


class TestShardPlacementIndependence:
    def test_fused_pool_costs_independent_of_shard_count(self):
        """The fused drain path must keep the serving invariant: shard
        placement changes speed, never answers — and the pool metrics
        see the shard hubs' fused/fallback counts."""
        width = 96
        universe = SwitchUniverse.of_size(width)
        w = float(width)
        sessions, steps, chunk = 24, 360, 40
        feeds = {
            f"u{s}": masks_to_lanes(
                _drift_masks(width, steps, seed=s, phase=120, flip=0.01),
                width,
            )
            for s in range(sessions)
        }
        reference = None
        for shards in (1, 2, 5):
            with ShardPool(shards) as pool:
                for s, sid in enumerate(feeds):
                    pool.open(
                        _mixed_scheduler(s, w, k=90),
                        universe,
                        w,
                        session_id=sid,
                    )
                for lo in range(0, steps, chunk):
                    pool.feed_many({
                        sid: ln[lo : lo + chunk]
                        for sid, ln in feeds.items()
                    })
                fused = pool.metrics.stream_fused
                fallback = pool.metrics.stream_fused_fallback
                costs = {
                    sid: run.cost
                    for sid, run in pool.finish_all().items()
                }
            # Lone sessions fuse too now, so every eligible chunk goes
            # through the kernel regardless of placement: the split is
            # exact and placement-invariant.
            assert fused == sessions * (steps // chunk)
            assert fallback == 0
            if reference is None:
                reference = costs
            else:
                assert costs == reference


class TestFeedRows:
    """``StreamHub.feed_many`` books a call as rows: ids plus five
    counter arrays, in the caller's order, with each session's
    :class:`StreamBatch` built from the group's sweep arrays only when
    it is read."""

    WIDTH = 96

    def _fleet(self):
        """Both fused cursor kinds, a scalar-cursor session and a
        session fed mask iterables, in an order the grouping would
        reorder: sid → (scheduler, masks)."""
        w = float(self.WIDTH)
        kinds = [
            ("rob-a", RentOrBuyScheduler(w, alpha=2.0, memory=4)),
            ("win-a", WindowScheduler(k=9)),
            ("scalar", ScalarOnly(RentOrBuyScheduler(w))),
            ("rob-b", RentOrBuyScheduler(w, alpha=0.5, memory=4)),
            ("iterable", RentOrBuyScheduler(w, alpha=1.0, memory=3)),
            ("win-b", WindowScheduler(k=9)),
        ]
        return {
            sid: (scheduler, _drift_masks(self.WIDTH, 400, seed=s, phase=30))
            for s, (sid, scheduler) in enumerate(kinds)
        }

    def _chunks(self, fleet, pos, lengths):
        """Ragged chunks: lanes, except mask lists for ``iterable``."""
        out = {}
        for (sid, (_sched, masks)), n in zip(fleet.items(), lengths):
            part = masks[pos[sid] : pos[sid] + n]
            pos[sid] += n
            out[sid] = (
                part if sid == "iterable"
                else masks_to_lanes(part, self.WIDTH)
            )
        return out

    def _hub(self, fleet):
        hub = StreamHub()
        universe = SwitchUniverse.of_size(self.WIDTH)
        for sid, (scheduler, _masks) in fleet.items():
            hub.open(scheduler, universe, float(self.WIDTH), session_id=sid)
        return hub

    @staticmethod
    def _counters(rows):
        return {
            sid: (
                int(rows.start[i]), int(rows.steps[i]), int(rows.hypers[i]),
                float(rows.cost[i]), float(rows.cumulative_cost[i]),
            )
            for i, sid in enumerate(rows.ids)
        }

    def test_rows_equal_batches_and_live_counters(self, stream_oracle):
        fleet = self._fleet()
        hub = self._hub(fleet)
        pos = dict.fromkeys(fleet, 0)
        batches = {sid: [] for sid in fleet}
        hypers = dict.fromkeys(fleet, 0)
        for lengths in ([50, 37, 64, 1, 20, 64], [64, 64, 3, 64, 64, 9]):
            chunks = self._chunks(fleet, pos, lengths)
            rows = hub.feed_many(chunks)
            assert rows.ids == tuple(chunks) == tuple(rows)
            assert list(rows.steps) == lengths
            assert hub.last_fused[:2] == (4, 2)  # 4 fused, 2 plain
            for i, sid in enumerate(rows.ids):
                batch = rows[sid]
                assert (
                    batch.start, batch.steps, batch.hypers, batch.cost,
                    batch.cumulative_cost,
                ) == self._counters(rows)[sid]
                assert len(batch.hyper_flags) == len(batch.sizes) == (
                    lengths[i]
                )
                assert batch.hypers == int(np.count_nonzero(batch.hyper_flags))
                session = hub.session(sid)
                hypers[sid] += batch.hypers
                assert batch.start + batch.steps == session.steps == pos[sid]
                assert batch.cumulative_cost == session.cost
                assert hypers[sid] == session.hyper_count
                batches[sid].append(batch)
            assert "nobody" not in rows
            with pytest.raises(KeyError):
                rows["nobody"]
            with pytest.raises(ValueError):
                rows.steps[0] = 0  # read-only counters
        closes = hub.finish_all()
        for sid, (scheduler, masks) in fleet.items():
            if isinstance(scheduler, ScalarOnly):  # the oracle wraps it
                scheduler = scheduler._scheduler
            stream_oracle(
                scheduler, SwitchUniverse.of_size(self.WIDTH),
                float(self.WIDTH), masks[: pos[sid]], closes[sid],
                batches[sid],
            )

    def test_pickled_rows_carry_no_per_step_arrays(self):
        """A shard's reply crosses a process pipe pickled: its size
        does not grow with the chunk length, and the unpickled rows
        hold the same counters with no per-step arrays."""
        sizes, counters = [], []
        for n in (16, 400):
            fleet = self._fleet()
            rows = self._hub(fleet).feed_many(
                self._chunks(fleet, dict.fromkeys(fleet, 0), [n] * 6)
            )
            data = pickle.dumps(rows)
            back = pickle.loads(data)
            sizes.append(len(data))
            assert self._counters(back) == self._counters(rows)
            assert back["win-a"].hyper_flags is None
            assert back["scalar"].sizes is None
            assert rows.counters()["rob-b"].hyper_flags is None
            counters.append(back)
        assert sizes[0] == sizes[1]
        merged = FeedRows.concat(counters)
        assert len(merged) == 12 and merged.ids == counters[0].ids * 2
        assert list(merged.steps) == [16] * 6 + [400] * 6

    def test_two_shard_pool_returns_the_single_hub_counters(self):
        fleet = self._fleet()
        hub = self._hub(fleet)
        hub_pos = dict.fromkeys(fleet, 0)
        pool_pos = dict.fromkeys(fleet, 0)
        universe = SwitchUniverse.of_size(self.WIDTH)
        with ShardPool(2) as pool:
            for sid, (scheduler, _masks) in self._fleet().items():
                pool.open(
                    scheduler, universe, float(self.WIDTH), session_id=sid
                )
            assert len({pool.shard_of(sid) for sid in fleet}) == 2
            for lengths in ([50, 37, 64, 1, 20, 64], [64, 64, 3, 64, 64, 9]):
                want = hub.feed_many(self._chunks(fleet, hub_pos, lengths))
                got = pool.feed_many(self._chunks(fleet, pool_pos, lengths))
                assert isinstance(got, FeedRows)
                assert self._counters(got) == self._counters(want)
                assert pool.metrics.stream_steps == hub.total_steps
            assert pool.finish_all() == hub.finish_all()
