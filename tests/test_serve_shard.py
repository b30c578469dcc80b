"""Shard-pool suite: placement independence, lifecycle, transports.

The load-bearing property: a session's served decisions and costs
depend only on its own policy cursor, never on which shard runs it or
how sessions are partitioned — every pool shape (one in-process shard,
or N > 1 process shards) must equal the single-threaded
:class:`StreamHub` replay bit for bit.
"""

import numpy as np
import pytest

from repro.core.packed import masks_to_lanes
from repro.core.switches import SwitchUniverse
from repro.engine.stream import StreamHub
from repro.serve.loadgen import drifting_masks
from repro.serve.shard import ShardPool, shard_index
from repro.solvers.online import RentOrBuyScheduler, WindowScheduler

WIDTH = 96
W = float(WIDTH)


def _scheduler(s: int):
    return (
        RentOrBuyScheduler(W, alpha=1.0, memory=4)
        if s % 2 == 0
        else WindowScheduler(k=7)
    )


@pytest.fixture(scope="module")
def fleet(stream_oracle):
    """12 sessions with phased traces plus their single-hub close
    records, themselves checked against the scalar session and the
    offline evaluator."""
    universe = SwitchUniverse.of_size(WIDTH)
    traces = {
        f"user-{s}": drifting_masks(WIDTH, 240, seed=s, phase=40)
        for s in range(12)
    }
    hub = StreamHub()
    for s, (sid, masks) in enumerate(traces.items()):
        hub.open(_scheduler(s), universe, W, session_id=sid)
        batch = hub.feed_many({sid: masks})[sid]
        stream_oracle(
            _scheduler(s), universe, W, masks, hub.finish(sid), [batch]
        )
    return universe, traces, hub.runs()


class TestPlacementIndependence:
    @pytest.mark.parametrize(
        ("shards", "procs"), [(1, False), (2, True), (3, True)]
    )
    def test_pool_equals_single_hub(self, fleet, shards, procs):
        """``procs``: the kind the shard count must pick."""
        universe, traces, oracle = fleet
        pool = ShardPool(shards)
        try:
            kinds = {row["kind"] for row in pool.stats()["shards"]}
            assert kinds == {"proc" if procs else "thread"}
            for s, sid in enumerate(traces):
                pool.open(_scheduler(s), universe, W, session_id=sid)
            assert len(pool) == len(traces)
            pos = 0
            while pos < 240:
                chunks = {
                    sid: masks_to_lanes(masks[pos : pos + 50], WIDTH)
                    for sid, masks in traces.items()
                }
                out = pool.feed_many(chunks)
                assert set(out) == set(traces)
                pos += 50
            runs = pool.finish_all()
        finally:
            pool.close()
        assert runs == oracle

    def test_cumulative_summaries_match_oracle_totals(self, fleet):
        universe, traces, oracle = fleet
        with ShardPool(4) as pool:
            for s, sid in enumerate(traces):
                pool.open(_scheduler(s), universe, W, session_id=sid)
            last = {}
            pos = 0
            while pos < 240:
                out = pool.feed_many(
                    {sid: m[pos : pos + 60] for sid, m in traces.items()}
                )
                last = {sid: b.cumulative_cost for sid, b in out.items()}
                pos += 60
            for sid, cum in last.items():
                assert cum == oracle[sid].cost
            pool.finish_all()


class TestPlacementAndLifecycle:
    def test_shard_index_stable_and_in_range(self):
        for shards in (1, 2, 7):
            for sid in ("a", "user-42", "Σsession"):
                i = shard_index(sid, shards)
                assert 0 <= i < shards
                assert i == shard_index(sid, shards)  # deterministic
        with pytest.raises(ValueError):
            shard_index("x", 0)

    def test_session_lifecycle_and_errors(self):
        universe = SwitchUniverse.of_size(16)
        with ShardPool(2) as pool:
            sid = pool.open(WindowScheduler(k=2), universe, 4.0)
            assert sid in pool
            assert pool.shard_of(sid) == shard_index(sid, 2)
            with pytest.raises(ValueError):
                pool.open(WindowScheduler(k=2), universe, 4.0, session_id=sid)
            pool.feed_many({sid: [3, 1, 2]})
            close = pool.finish(sid)
            assert (close.session, close.steps) == (sid, 3)
            assert sid not in pool
            with pytest.raises(KeyError):
                pool.feed_many({sid: [1]})
            with pytest.raises(KeyError):
                pool.finish(sid)
            # service semantics: a closed id is immediately reusable
            # (the same user reconnects), and the shard retains nothing
            # from the finished run.
            again = pool.open(
                WindowScheduler(k=2), universe, 4.0, session_id=sid
            )
            assert again == sid
            pool.feed_many({sid: [1]})
            assert pool.finish(sid).steps == 1

    def test_proc_shard_errors_cross_the_pipe(self):
        universe = SwitchUniverse.of_size(8)
        with ShardPool(2) as pool:
            sid = pool.open(WindowScheduler(k=2), universe, 2.0)
            with pytest.raises(ValueError):
                pool.open(WindowScheduler(k=2), universe, 2.0, session_id=sid)
            with pytest.raises(ValueError):
                # mask outside the 8-switch universe
                pool.feed_many({sid: [1 << 20]})
            pool.finish(sid)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardPool(0)

    def test_metrics_aggregate_parent_side(self):
        universe = SwitchUniverse.of_size(WIDTH)
        with ShardPool(3) as pool:
            sids = [
                pool.open(RentOrBuyScheduler(W), universe, W)
                for _ in range(6)
            ]
            masks = drifting_masks(WIDTH, 120, seed=1)
            pool.feed_many({sid: masks for sid in sids})
            stats = pool.stats()
            assert stats["engine"]["stream"]["sessions"] == 6
            assert stats["engine"]["stream"]["steps"] == 6 * 120
            assert stats["sessions"] == 6
            assert sum(s["sessions"] for s in stats["shards"]) == 6
            assert pool.metrics.stream_steps_per_s > 0
            pool.finish_all()


class TestProcShardTransport:
    """Process-shard drain cycles cross the pipe pickled at any size
    (512 B to 1 MiB of lanes per shard cycle here) and serve exactly
    what a single hub serves; the pool metrics count the lane bytes
    shipped."""

    @pytest.mark.parametrize("steps", [16, 4096, 32768])
    def test_cycles_equal_single_hub(self, steps):
        universe = SwitchUniverse.of_size(WIDTH)
        base = {
            f"user-{s}": masks_to_lanes(
                drifting_masks(WIDTH, 2048, seed=s, phase=40), WIDTH
            )
            for s in range(2, 6)  # two sessions on each shard
        }
        chunks = {
            sid: np.tile(lanes, (-(-steps // 2048), 1))[:steps]
            for sid, lanes in base.items()
        }
        hub = StreamHub()
        for s, sid in enumerate(chunks):
            hub.open(_scheduler(s), universe, W, session_id=sid)
        hub.feed_many(chunks)
        oracle = hub.finish_all()
        with ShardPool(2) as pool:
            for s, sid in enumerate(chunks):
                pool.open(_scheduler(s), universe, W, session_id=sid)
            assert {pool.shard_of(sid) for sid in chunks} == {0, 1}
            out = pool.feed_many(chunks)
            assert all(out[sid].steps == steps for sid in chunks)
            runs = pool.finish_all()
            snap = pool.metrics.snapshot()["packed"]
        lane_bytes = sum(lanes.nbytes for lanes in chunks.values())
        assert lane_bytes == 4 * steps * 16  # 96 switches: 2 lanes/step
        assert snap["bytes_shipped"] == lane_bytes
        assert snap["bytes_shared"] == 0
        assert runs == oracle
