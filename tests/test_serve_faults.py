"""Failure paths of the serve stack: each ends in a reply, never silence.

Every test injects one fault — a hostile byte stream, a bad entry in
a ``feed_many`` burst, an exception out of a shard, a server started
without its optional telemetry plane — and checks that the affected
request gets an error reply (or the process starts and stops cleanly)
while the connection keeps serving, and that the sessions the fault
spared end at the single-hub oracle's costs.
"""

import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request

import numpy as np
import pytest

from repro.core.packed import lane_count, masks_to_lanes
from repro.core.switches import SwitchUniverse
from repro.engine.stream import StreamHub, StreamSession
from repro.obs.expo import parse_exposition
from repro.serve.client import ServeClient, ServeError
from repro.serve.loadgen import drifting_masks
from repro.serve.protocol import (
    BIN_HEADER,
    BIN_MAGIC,
    BIN_OP_FEED_MANY,
    BIN_VERSION,
    MAX_FEED_ENTRIES,
    MAX_FRAME_BYTES,
    encode_feed_bin,
    encode_frame,
    error_frame,
    policy_from_spec,
)
from repro.serve.server import ServeConfig, ServerThread
from repro.serve.shard import shard_index

WIDTH, W = 40, 5.0


@pytest.fixture()
def server():
    with ServerThread(ServeConfig(shards=1)) as address:
        yield address


class TestHostileInput:
    def test_blank_line_flood_then_stats(self, server):
        """Blank lines are skipped in a loop: a flood of them ahead of a
        frame neither exhausts the stack nor drops the connection."""
        with ServeClient(*server) as client:
            client._send(b"\n" * 5000 + encode_frame({"op": "stats"}))
            reply = client._recv_reply()
            assert reply["ok"] and reply["op"] == "stats"
            sid = client.open(policy="window", width=8, w=2.0)
            assert client.feed(sid, [1, 2, 3]).steps == 3
            assert client.close_session(sid).steps == 3


    def test_partial_frames_hit_the_read_deadline(self, server, monkeypatch):
        """Once a frame's first byte has arrived, the rest must follow
        within FRAME_DEADLINE_S: one byte of a binary header, or a JSON
        line without its newline, earns an error reply and a close and
        counts as a protocol error.  A connection idle between frames
        is never timed out."""
        monkeypatch.setattr("repro.serve.server.FRAME_DEADLINE_S", 0.2)
        with ServeClient(*server) as idle:
            before = idle.stats()["server"]["protocol_errors"]
            for start in (bytes((BIN_MAGIC,)), b'{"op": "st'):
                with socket.create_connection(server, timeout=10) as sock:
                    sock.sendall(start)
                    received = b""
                    while chunk := sock.recv(4096):
                        received += chunk
                assert received == encode_frame(
                    error_frame("frame incomplete after 0.2 s")
                )
            time.sleep(0.5)  # idle past the deadline, between frames
            after = idle.stats()["server"]["protocol_errors"]
        assert after == before + 2

    def test_rejected_binary_frames_count_no_feeds(self, server):
        """A binary frame that fails to parse earns an error reply and
        counts as a protocol error, never as a feed (as a JSON feed
        that fails to parse counts none).  Opcode 1 is no feed opcode,
        even with a well-formed single-chunk payload, and base64 is the
        only JSON mask encoding."""
        with ServeClient(*server, proto="bin") as client:
            sid = client.open(policy="window", width=8, w=2.0)
            lanes = _lanes([1, 2, 3], 8)
            feed = encode_feed_bin([(sid, lanes)])
            many = feed[BIN_HEADER.size :]
            # u8 id length | id | u32 count | lanes
            single = (
                bytes((len(sid),)) + sid.encode()
                + (3).to_bytes(4, "little") + lanes.tobytes()
            )
            before = client.stats()["server"]
            for opcode, flags, payload, error in (
                (3, 0, many, "unknown binary opcode 3"),
                (BIN_OP_FEED_MANY, 0x80, many, "unknown binary flags 0x80"),
                (1, 0, single, "unknown binary opcode 1"),
            ):
                client._send(BIN_HEADER.pack(
                    BIN_MAGIC, BIN_VERSION, opcode, flags, len(payload)
                ) + payload)
                reply = client._recv_reply()
                assert reply == {"ok": False, "error": error}
            client._send(encode_frame({
                "op": "feed", "session": sid, "count": 3,
                "masks": lanes.tobytes().hex(), "encoding": "hex",
            }))
            reply = client._recv_reply()
            assert reply == {"ok": False,
                             "error": "unknown mask encoding 'hex'"}
            after = client.stats()["server"]
            assert after["feeds"] == before["feeds"] == 0
            assert after["protocol_errors"] == before["protocol_errors"] + 4
            client._send(feed)
            assert client._recv_reply()["replies"][0]["steps"] == 3
            assert client.stats()["server"]["feeds"] == 1


def _traces(n: int, steps: int = 120) -> dict[str, list[int]]:
    return {
        f"s{i}": drifting_masks(WIDTH, steps, seed=i, phase=40)
        for i in range(n)
    }


def _oracle(traces: dict[str, list[int]]) -> dict[str, float]:
    """Close costs of one in-process StreamHub fed the same chunks."""
    hub = StreamHub()
    for sid, masks in traces.items():
        hub.open(
            policy_from_spec("rent_or_buy", W, {}),
            SwitchUniverse.of_size(WIDTH),
            W,
            session_id=sid,
        )
        hub.feed_many({sid: masks})
    return {sid: run.cost for sid, run in hub.finish_all().items()}


def _lanes(masks, width=WIDTH):
    return masks_to_lanes(masks, width)


def _feed_many(client, entries, *, deflate=False, mangle=None) -> dict:
    """Send one feed_many frame (optionally mangled); return its reply."""
    wire = encode_feed_bin(entries, deflate=deflate)
    client._send(mangle(wire) if mangle else wire)
    return client._recv_reply()


def _finish(client, traces, served: int) -> dict[str, float]:
    """Feed every session the rest of its trace, close, return costs."""
    client.feed_pipelined(
        [(sid, masks[served:]) for sid, masks in traces.items()]
    )
    return {sid: client.close_session(sid).cost for sid in traces}


class TestFeedManyFaults:
    """A bad entry fails alone; a frame that cannot be laid out fails
    as a whole; the connection serves on and the spared sessions end at
    the oracle costs."""

    def _open(self, client, traces):
        for sid in traces:
            client.open(width=WIDTH, w=W, session_id=sid)

    def test_unknown_session_entry_fails_alone(self, server):
        traces = _traces(2)
        with ServeClient(*server, proto="bin") as client:
            self._open(client, traces)
            reply = _feed_many(client, [
                ("s0", _lanes(traces["s0"][:60])),
                ("ghost", _lanes(traces["s1"][:60])),
                ("s1", _lanes(traces["s1"][:60])),
            ])
            assert reply["ok"] and reply["op"] == "feed_many"
            items = reply["replies"]
            assert [item["ok"] for item in items] == [True, False, True]
            assert "unknown session id 'ghost'" in items[1]["error"]
            assert items[2]["session"] == "s1" and items[2]["steps"] == 60
            costs = _finish(client, traces, 60)
            assert client.stats()["server"]["errors"] == 1
        assert costs == _oracle(traces)

    def test_lane_count_disagreeing_with_width_fails_alone(self, server):
        traces = _traces(2)
        with ServeClient(*server, proto="bin") as client:
            self._open(client, traces)
            reply = _feed_many(client, [
                ("s0", _lanes(traces["s0"][:60], 96)),  # 2 lanes, not 1
                ("s1", _lanes(traces["s1"][:60])),
            ])
            first, second = reply["replies"]
            assert not first["ok"] and "declares 2 lane" in first["error"]
            assert second["ok"]
            # s0 never saw the bad chunk: it starts over from step 0.
            client.feed("s0", traces["s0"][:60])
            costs = _finish(client, traces, 60)
        assert costs == _oracle(traces)

    def test_truncated_entry_table_is_one_frame_error(self, server):
        traces = _traces(2)

        def truncate(wire: bytes) -> bytes:
            payload = wire[BIN_HEADER.size :][:9]  # mid second entry
            return BIN_HEADER.pack(
                BIN_MAGIC, BIN_VERSION, BIN_OP_FEED_MANY, 0, len(payload)
            ) + payload

        with ServeClient(*server, proto="bin") as client:
            self._open(client, traces)
            reply = _feed_many(
                client,
                [(sid, _lanes(m[:60])) for sid, m in traces.items()],
                mangle=truncate,
            )
            assert not reply["ok"]
            assert "truncated" in reply["error"]
            costs = _finish(client, traces, 0)
            assert client.stats()["server"]["protocol_errors"] == 1
        assert costs == _oracle(traces)

    def test_frame_over_the_entry_cap_is_one_frame_error(self, server):
        """More entries than one reply line can answer: one frame-level
        error reply, no entry served, and the connection serves on."""
        traces = _traces(2)
        n = MAX_FEED_ENTRIES + 1
        entry = b"\x02s0" + (1).to_bytes(4, "little") + b"\x01\x00"
        payload = n.to_bytes(2, "little") + entry * n + bytes(8 * n)
        with ServeClient(*server, proto="bin") as client:
            self._open(client, traces)
            client._send(BIN_HEADER.pack(
                BIN_MAGIC, BIN_VERSION, BIN_OP_FEED_MANY, 0, len(payload)
            ) + payload)
            reply = client._recv_reply()
            assert not reply["ok"]
            assert f"at most {MAX_FEED_ENTRIES}" in reply["error"]
            costs = _finish(client, traces, 0)
            assert client.stats()["server"]["protocol_errors"] == 1
        assert costs == _oracle(traces)

    def test_lone_entry_over_the_frame_cap_is_one_frame_error(self, server):
        """One deflated entry declaring more lane bytes than a frame
        holds: a frame-level error reply before anything is inflated,
        no step served, and the connection serves on.  The client
        refuses to send such a chunk at all."""
        traces = _traces(2)
        width = 192  # 3 lanes: 65536 steps declare 1.5 MiB
        zeros = np.zeros((65536, lane_count(width)), dtype=np.uint64)
        assert zeros.nbytes > MAX_FRAME_BYTES
        with ServeClient(*server, proto="bin") as client:
            self._open(client, traces)
            wide = client.open(width=width, w=W, session_id="wide")
            reply = _feed_many(client, [(wide, zeros)], deflate=True)
            assert not reply["ok"]
            assert f"at most {MAX_FRAME_BYTES}" in reply["error"]
            with pytest.raises(ValueError, match="frame limit"):
                client.feed(wide, zeros)
            assert client.feed(wide, zeros[:60]).start == 0
            assert client.close_session(wide).steps == 60
            costs = _finish(client, traces, 0)
            assert client.stats()["server"]["protocol_errors"] == 1
        assert costs == _oracle(traces)

    def test_corrupt_deflate_stream_fails_every_entry(self, server):
        traces = _traces(3)

        def corrupt(wire: bytes) -> bytes:
            wire = bytearray(wire)
            wire[-4:] = bytes(b ^ 0xFF for b in wire[-4:])  # adler32
            return bytes(wire)

        with ServeClient(*server, proto="bin") as client:
            self._open(client, traces)
            reply = _feed_many(
                client,
                [(sid, _lanes(m[:60])) for sid, m in traces.items()],
                deflate=True,
                mangle=corrupt,
            )
            assert reply["ok"]
            for item in reply["replies"]:
                assert not item["ok"] and "deflate" in item["error"]
            costs = _finish(client, traces, 0)
        assert costs == _oracle(traces)

    def test_duplicate_session_keeps_entry_order(self, server):
        traces = _traces(2)
        with ServeClient(*server, proto="bin") as client:
            self._open(client, traces)
            reply = _feed_many(client, [
                ("s0", _lanes(traces["s0"][:30])),
                ("s1", _lanes(traces["s1"][:60])),
                ("s0", _lanes(traces["s0"][30:60])),
            ])
            first, _s1, again = reply["replies"]
            assert (first["start"], first["steps"]) == (0, 30)
            assert (again["start"], again["steps"]) == (30, 30)
            assert again["cumulative_cost"] == pytest.approx(
                first["cost"] + again["cost"]
            )
            costs = _finish(client, traces, 60)
        assert costs == _oracle(traces)

    def test_frame_spanning_two_shards(self):
        """One deflated frame per burst, its entries on both shards of
        a process pool: two drain cycles resolve the shared section,
        and every cost matches the oracle."""
        traces = _traces(8)
        config = ServeConfig(shards=2)
        with ServerThread(config) as address:
            with ServeClient(*address, proto="bin") as client:
                self._open(client, traces)
                stats = client.stats()
                assert all(row["sessions"] for row in stats["shards"])
                for lo in range(0, 120, 40):
                    reply = _feed_many(
                        client,
                        [(sid, _lanes(m[lo : lo + 40]))
                         for sid, m in traces.items()],
                        deflate=True,
                    )
                    assert all(item["ok"] for item in reply["replies"])
                stats = client.stats()
                costs = {sid: client.close_session(sid).cost for sid in traces}
        assert stats["engine"]["wire"]["bin"]["frames_in"] == 3
        assert costs == _oracle(traces)


class TestUnexpectedExceptions:
    def test_failing_close_gets_error_reply(self, server, monkeypatch):
        """An exception type the server does not anticipate still maps
        to an error reply; later frames on the connection are answered."""

        def broken_finish(self):
            raise AssertionError("incremental cost disagrees")

        monkeypatch.setattr(StreamSession, "finish", broken_finish)
        with ServeClient(*server, timeout=20) as client:
            sid = client.open(policy="window", width=8, w=2.0)
            client.feed(sid, [1, 2])
            with pytest.raises(ServeError, match="disagrees"):
                client.close_session(sid)
            stats = client.stats()
            assert stats["ok"]
            assert stats["server"]["errors"] == 1

    def test_dead_process_shard_error_names_the_exception(self):
        """A killed process shard fails its sessions' feeds and closes
        with an error naming the shard and the exception (a
        BrokenPipeError's first arg is its bare errno), while the live
        shard's sessions still feed; ``stats`` and a ``/metrics``
        scrape keep answering, with shard 0 down and shard 1 up."""
        traces = _traces(8)
        host = ServerThread(ServeConfig(shards=2, metrics_port=0))
        address = host.start()
        try:
            with ServeClient(*address, timeout=20) as client:
                for sid in traces:
                    client.open(width=WIDTH, w=W, session_id=sid)
                pool = host.server.pool
                victim, spared = (
                    next(sid for sid in traces if pool.shard_of(sid) == i)
                    for i in (0, 1)
                )
                proc = pool._shards[0]._proc
                proc.kill()
                proc.join(timeout=5)
                assert not proc.is_alive()
                with pytest.raises(ServeError) as info:
                    client.feed(victim, traces[victim][:30])
                message = str(info.value)
                assert re.search(r"[A-Za-z]+Error", message), message
                assert "shard 0" in message, message
                assert not message.strip().isdigit()
                assert client.feed(spared, traces[spared][:30]).steps == 30
                with pytest.raises(ServeError, match="shard 0 is down"):
                    client.close_session(victim)
                rows = client.stats()["shards"]
                assert [(r["shard"], r["up"]) for r in rows] == [
                    (0, False), (1, True),
                ]
                assert rows[1]["sessions"] >= 1
                mhost, mport = host.server.metrics_address
                with urllib.request.urlopen(
                    f"http://{mhost}:{mport}/metrics", timeout=20
                ) as reply:
                    series = parse_exposition(reply.read().decode())
                assert series["repro_shard_up"] == [
                    ({"shard": "0"}, 0.0), ({"shard": "1"}, 1.0),
                ]
                assert client.close_session(spared).steps == 30
        finally:
            host.stop()

    def test_close_on_a_dead_shard_frees_its_slot(self):
        """A full server whose sessions all sit on a killed shard: each
        close answers ``shard 0 is down`` and frees its slot, so the
        server is empty afterwards and a session hashing to the live
        shard opens."""
        ids = [f"d{i}" for i in range(64) if shard_index(f"d{i}", 2) == 0]
        victims, fresh = ids[:4], next(
            f"n{i}" for i in range(64) if shard_index(f"n{i}", 2) == 1
        )
        host = ServerThread(ServeConfig(shards=2, max_sessions=4))
        address = host.start()
        try:
            with ServeClient(*address, timeout=20) as client:
                for sid in victims:
                    client.open(width=WIDTH, w=W, session_id=sid)
                with pytest.raises(ServeError, match="server full"):
                    client.open(width=WIDTH, w=W, session_id=fresh)
                proc = host.server.pool._shards[0]._proc
                proc.kill()
                proc.join(timeout=5)
                for sid in victims:
                    with pytest.raises(ServeError, match="shard 0 is down"):
                        client.close_session(sid)
                assert client.stats()["sessions"] == 0
                assert not host.server._sessions and not client._widths
                assert client.open(width=WIDTH, w=W, session_id=fresh) == fresh
                client.feed(fresh, drifting_masks(WIDTH, 120, seed=0))
                assert client.close_session(fresh).steps == 120
        finally:
            host.stop()


class TestShutdown:
    def test_stop_with_a_live_client_logs_nothing(self):
        """Stopping the server while a client still holds its socket
        open lets the connection handler finish: nothing reaches the
        event loop's exception handler (a handler left for
        ``asyncio.run`` to cancel logs a traceback there)."""
        seen = []
        host = ServerThread(ServeConfig(shards=1))
        address = host.start()
        try:
            host._loop.call_soon_threadsafe(
                host._loop.set_exception_handler,
                lambda _loop, context: seen.append(context),
            )
            client = ServeClient(*address)
            assert client.stats()["ok"]
        finally:
            host.stop()
        client.close()
        assert not host._thread.is_alive()
        assert seen == []


class TestServeCommand:
    def test_serve_without_metrics_port_starts_and_stops(self):
        """`repro serve --port 0` with the telemetry plane off binds,
        answers a stats frame and exits 0 on SIGTERM."""
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(src) + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else str(src)
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = proc.stderr.readline()
            match = re.search(r"serving on (\S+):(\d+)", line)
            assert match, line
            with ServeClient(
                match.group(1), int(match.group(2)), timeout=30
            ) as client:
                assert client.stats()["ok"]
            proc.send_signal(signal.SIGTERM)
            _out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
