"""Loopback server suite: the serving acceptance criteria.

The headline test drives **256 concurrent sessions** through real TCP
client connections against a 4-shard server and requires every
per-session cost to equal a single-threaded :class:`StreamHub` replay
of the same traces — the serving layer (sockets, queues, drain-cycle
batching, shard placement) must never change an answer.  The rest
covers admission control, protocol-error replies, close-barrier
ordering, stats aggregation, the one ``queue_depth`` backpressure
bound, the stdin transport and the load generator.
"""

import asyncio
import json
import os
import pathlib
import subprocess
import sys
import threading

import pytest

from repro.core.packed import masks_to_lanes
from repro.core.switches import SwitchUniverse
from repro.engine.stream import StreamHub
from repro.serve.client import ServeClient, ServeError
from repro.serve.loadgen import drifting_masks, run_loadgen
from repro.serve.protocol import (
    encode_feed_bin,
    encode_frame,
    encode_mask_chunk,
)
from repro.serve.server import ServeConfig, ServerThread, StreamServer
from repro.solvers.online import RentOrBuyScheduler

WIDTH = 96
W = float(WIDTH)


@pytest.fixture()
def server():
    with ServerThread(
        ServeConfig(shards=2, max_sessions=64, max_chunk_steps=512)
    ) as address:
        yield address


class TestServeAcceptance:
    def test_256_sessions_across_4_shards_bit_identical(self):
        """≥256 concurrent sessions, shard count > 1, per-session costs
        equal to the single-hub oracle replay — the PR's acceptance
        bar, driven through real loopback sockets."""
        sessions, steps, chunk = 256, 48, 16
        traces = {
            f"u{s}": drifting_masks(WIDTH, steps, seed=s, phase=20)
            for s in range(sessions)
        }
        served: dict[str, float] = {}
        errors: list[Exception] = []

        def drive(worker: int, address):
            try:
                with ServeClient(*address) as client:
                    mine = sorted(traces)[worker::8]
                    for sid in mine:
                        client.open(
                            policy="rent_or_buy", width=WIDTH, w=W,
                            session_id=sid, memory=4,
                        )
                    pos = 0
                    while pos < steps:
                        for sid in mine:
                            client.feed(sid, traces[sid][pos : pos + chunk])
                        pos += chunk
                    for sid in mine:
                        served[sid] = client.close_session(sid).cost
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        config = ServeConfig(shards=4, max_sessions=sessions)
        with ServerThread(config) as address:
            # all 256 sessions are open and live before any close
            with ServeClient(*address) as probe:
                threads = [
                    threading.Thread(target=drive, args=(c, address))
                    for c in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert not errors, errors[0]
                stats = probe.stats()
        assert stats["server"]["opens"] == sessions
        assert len(served) == sessions

        hub = StreamHub()
        universe = SwitchUniverse.of_size(WIDTH)
        for sid, masks in traces.items():
            hub.open(
                RentOrBuyScheduler(W, memory=4), universe, W, session_id=sid
            )
            hub.feed_many({sid: masks})
        for sid, run in hub.finish_all().items():
            assert served[sid] == run.cost, sid

    def test_concurrent_sessions_stay_live_mid_stream(self, server):
        """Sessions opened by different connections coexist and any
        connection may feed a session it adopted."""
        with ServeClient(*server) as a, ServeClient(*server) as b:
            sid = a.open(policy="window", width=16, w=4.0, k=3,
                         session_id="shared")
            a.feed(sid, [1, 2, 3])
            b.adopt(sid, 16)
            b.feed(sid, [3, 1])
            stats = a.stats()
            assert stats["sessions"] == 1
            res = b.close_session(sid)
            assert res.steps == 5


class TestAdmissionControl:
    def test_session_limit_rejects_open(self):
        with ServerThread(ServeConfig(max_sessions=2)) as address:
            with ServeClient(*address) as client:
                client.open(policy="window", width=8, w=2.0)
                client.open(policy="window", width=8, w=2.0)
                with pytest.raises(ServeError, match="server full"):
                    client.open(policy="window", width=8, w=2.0)
                stats = client.stats()
                assert stats["server"]["rejected_sessions"] == 1

    def test_oversized_open_rejected(self):
        """width/history caps stop one open frame from allocating
        gigabytes of cursor state (per-session state is O(width·hist))."""
        config = ServeConfig(max_width=128, max_history=64)
        with ServerThread(config) as address:
            with ServeClient(*address) as client:
                with pytest.raises(ServeError, match="width"):
                    client.open(policy="window", width=129, w=1.0)
                with pytest.raises(ServeError, match="history"):
                    client.open(
                        policy="rent_or_buy", width=64, w=1.0, memory=65
                    )
                with pytest.raises(ServeError, match="history"):
                    client.open(policy="window", width=64, w=1.0, k=65)
                sid = client.open(
                    policy="rent_or_buy", width=128, w=1.0, memory=64
                )
                client.close_session(sid)
                assert client.stats()["server"]["rejected_sessions"] == 3

    def test_closed_sessions_leave_no_trace_and_free_their_ids(self, server):
        """Service semantics: a long-running server must not retain
        closed runs (O(steps) each), and a user may reconnect under
        the same session id."""
        with ServeClient(*server) as client:
            for _round in range(3):
                sid = client.open(
                    policy="window", width=8, w=2.0, k=2, session_id="same"
                )
                assert sid == "same"
                client.feed(sid, [1, 2])
                assert client.close_session(sid).steps == 2
            stats = client.stats()
            assert stats["sessions"] == 0
            assert stats["server"]["opens"] == 3

    def test_oversized_chunk_rejected(self, server):
        with ServeClient(*server) as client:
            sid = client.open(policy="window", width=8, w=2.0)
            with pytest.raises(ServeError, match="chunk limit"):
                client.feed(sid, [1] * 513)  # max_chunk_steps=512
            # the session survives the rejection
            assert client.feed(sid, [1]).steps == 1
            client.close_session(sid)

    def test_bad_frames_answered_not_dropped(self, server):
        with ServeClient(*server) as client:
            for payload in (
                {"op": "nope"},
                {"op": "open", "policy": "bogus", "width": 8, "w": 1},
                {"op": "feed", "session": "ghost", "count": 1,
                 "masks": encode_mask_chunk([1], 8)},
                {"op": "close", "session": "ghost"},
                {"op": "feed", "session": "ghost", "count": 1,
                 "masks": "@@@"},
            ):
                with pytest.raises(ServeError):
                    client.call(payload)
            # connection still alive and usable
            sid = client.open(policy="window", width=8, w=2.0)
            client.close_session(sid)

    def test_mask_beyond_universe_rejected(self, server):
        with ServeClient(*server) as client:
            sid = client.open(policy="window", width=8, w=2.0)
            blob = encode_mask_chunk([1 << 60], 64)
            with pytest.raises(ServeError, match="beyond"):
                client.call({
                    "op": "feed", "session": sid, "count": 1, "masks": blob,
                })
            client.close_session(sid)


class TestStatsAndOrdering:
    def test_stats_aggregates_server_and_shards(self, server):
        with ServeClient(*server) as client:
            sids = [
                client.open(policy="rent_or_buy", width=WIDTH, w=W)
                for _ in range(4)
            ]
            masks = drifting_masks(WIDTH, 64, seed=0)
            for sid in sids:
                client.feed(sid, masks)
            stats = client.stats()
            assert stats["ok"] and stats["op"] == "stats"
            assert stats["server"]["opens"] == 4
            assert stats["server"]["feeds"] == 4
            assert stats["engine"]["stream"]["steps"] == 4 * 64
            assert len(stats["shards"]) == 2
            assert sum(s["sessions"] for s in stats["shards"]) == 4
            for sid in sids:
                client.close_session(sid)

    @pytest.mark.parametrize(("shards", "kind"), [(1, "thread"), (2, "proc")])
    def test_shard_count_picks_the_kind(self, shards, kind):
        """One shard runs in the server process; more run one process
        each, and every row reports its shard live."""
        with ServerThread(ServeConfig(shards=shards)) as address:
            with ServeClient(*address) as client:
                rows = client.stats()["shards"]
        assert [(r["shard"], r["kind"], r["up"]) for r in rows] == [
            (i, kind, True) for i in range(shards)
        ]

    def test_close_after_feeds_sees_all_steps(self, server):
        """The close barrier rides the same shard queue as the feeds,
        so the finished run always accounts every acknowledged chunk."""
        with ServeClient(*server) as client:
            sid = client.open(policy="rent_or_buy", width=WIDTH, w=W)
            masks = drifting_masks(WIDTH, 300, seed=5)
            total = 0.0
            for lo in range(0, 300, 50):
                total = client.feed(sid, masks[lo : lo + 50]).cumulative_cost
            res = client.close_session(sid)
            assert res.steps == 300
            assert res.cost == total


class TestBackpressureBound:
    """One bound, ``queue_depth``, caps both a shard queue and each
    connection's staged-but-unanswered replies."""

    def test_pipelined_burst_of_queue_depth_is_one_drain_cycle(self):
        config = ServeConfig(shards=1)
        depth = config.queue_depth
        with ServerThread(config) as address:
            with ServeClient(*address, proto="bin") as client:
                sids = [
                    client.open(policy="window", width=8, w=2.0, k=2)
                    for _ in range(depth)
                ]
                results = client.feed_pipelined(
                    [(sid, [1, 2, 3, 4]) for sid in sids]
                )
                assert [r.steps for r in results] == [4] * depth
                groups = client.stats()["histograms"][
                    "fused_group_sessions"
                ]
                assert groups["count"] == 1
                assert groups["max"] == depth
                for sid in sids:
                    client.close_session(sid)

    def test_feed_many_frame_wider_than_queue_depth_is_served(self):
        """A burst frame with more entries than ``queue_depth`` fills
        the shard queue several times over while it stages; it must
        still be answered in full, in entry order."""
        depth = 4
        config = ServeConfig(shards=1, queue_depth=depth)
        with ServerThread(config) as address:
            with ServeClient(*address, proto="bin") as client:
                sids = [
                    client.open(policy="window", width=8, w=2.0, k=2)
                    for _ in range(3 * depth)
                ]
                for _ in range(2):
                    results = client.feed_pipelined(
                        [(sid, [1, 2, 3]) for sid in sids]
                    )
                    assert [r.session for r in results] == sids
                stats = client.stats()
                assert stats["engine"]["wire"]["bin"]["frames_in"] == 2
                assert stats["engine"]["stream"]["steps"] == 2 * 3 * len(
                    sids
                )

    def test_unread_replies_stall_the_reader_at_queue_depth(self):
        """A client that stops reading replies stops having its frames
        read: the reader stalls with about ``queue_depth`` frames
        staged, and everything is answered once the client reads
        again."""
        depth = 4
        frames = 4 * depth

        async def scenario():
            server = StreamServer(ServeConfig(shards=1, queue_depth=depth))
            await server.start(listen=False)
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"op": "stats"}) * frames)
            reader.feed_eof()
            reading = asyncio.Event()
            sent = []

            async def send(data: bytes) -> None:
                await reading.wait()
                sent.append(data)

            pump = asyncio.create_task(server._pump(reader, send))
            await asyncio.sleep(0.5)
            staged = server.counters.frames
            reading.set()
            await asyncio.wait_for(pump, timeout=30)
            await server.stop()
            return staged, len(sent)

        staged, answered = asyncio.run(scenario())
        # ``depth`` queued replies, one held by the sender, one frame
        # waiting for queue room.
        assert depth <= staged <= depth + 2
        assert answered == frames


    def test_unread_feed_many_replies_count_their_chunks(self):
        """The reply bound counts feed chunks, not frames: with
        ``queue_depth`` 4 and frames of 4 entries, one frame fills the
        bound, so the reader stalls with 2 opens and 2 frames staged
        (6 frames if each frame weighed 1)."""
        depth = 4
        frames = 6

        async def scenario():
            server = StreamServer(ServeConfig(shards=1, queue_depth=depth))
            await server.start(listen=False)
            reader = asyncio.StreamReader()
            for sid in ("a", "b"):
                reader.feed_data(encode_frame({
                    "op": "open", "policy": "window", "width": 8,
                    "w": 2.0, "k": 2, "session": sid,
                }))
            burst = encode_feed_bin(
                [(sid, masks_to_lanes([1, 2], 8)) for sid in "abab"]
            )
            reader.feed_data(burst * frames)
            reader.feed_eof()
            reading = asyncio.Event()
            sent = []

            async def send(data: bytes) -> None:
                await reading.wait()
                sent.append(json.loads(data))

            pump = asyncio.create_task(server._pump(reader, send))
            await asyncio.sleep(0.5)
            staged = server.counters.frames
            reading.set()
            await asyncio.wait_for(pump, timeout=30)
            await server.stop()
            return staged, sent

        staged, sent = asyncio.run(scenario())
        assert staged == 2 + 2
        assert len(sent) == 2 + frames
        starts = [
            [item["start"] for item in reply["replies"]]
            for reply in sent[2:]
        ]
        assert starts == [[4 * i, 4 * i, 4 * i + 2, 4 * i + 2]
                          for i in range(frames)]


class TestShutdown:
    def test_stop_completes_with_a_client_still_connected(self):
        """Server.wait_closed() (3.12.1+) waits for connection handlers;
        stop() must close live connections first or an idle client
        stalls the shutdown forever."""
        thread = ServerThread(ServeConfig(shards=2))
        address = thread.start()
        client = ServeClient(*address)
        sid = client.open(policy="window", width=8, w=2.0)
        client.feed(sid, [1])
        thread.stop()  # would hang without the writer sweep
        assert not thread._thread.is_alive()
        client.close()


class TestLoadgen:
    def test_loadgen_verifies_against_single_hub(self):
        with ServerThread(ServeConfig(shards=3)) as (host, port):
            result = run_loadgen(
                host, port,
                sessions=24, steps=120, chunk=40, clients=6, verify=True,
            )
        assert result.verified is True
        assert result.sessions == 24
        assert result.steps == 24 * 120
        assert result.frames == 24 * (1 + 3 + 1)  # open + 3 feeds + close
        assert result.steps_per_s > 0

    def test_loadgen_validation(self):
        with pytest.raises(ValueError):
            run_loadgen("h", 1, sessions=0, steps=1)


class TestStdinTransport:
    def test_stdin_frames_round_trip(self):
        """`repro serve --stdin` speaks the same protocol over pipes."""
        blob = encode_mask_chunk([3, 5, 1], 8)
        frames = [
            {"op": "open", "policy": "window", "width": 8, "w": 4.0,
             "k": 2, "session": "a"},
            {"op": "feed", "session": "a", "count": 3, "masks": blob},
            {"op": "garbage"},
            {"op": "close", "session": "a"},
            {"op": "stats"},
        ]
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(src) + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else str(src)
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--stdin",
             "--shards", "2"],
            input="".join(json.dumps(f) + "\n" for f in frames),
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        replies = [json.loads(line) for line in proc.stdout.splitlines()]
        assert len(replies) == 5
        opened, fed, bad, closed, stats = replies
        assert opened["ok"] and opened["session"] == "a"
        assert fed["ok"] and fed["steps"] == 3
        assert not bad["ok"] and "unknown op" in bad["error"]
        assert closed["ok"] and closed["steps"] == 3
        assert stats["ok"] and stats["server"]["protocol_errors"] == 1
