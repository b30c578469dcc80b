"""Failure paths of the serve stack: each ends in a reply, never silence.

Every test injects one fault — a hostile byte stream, an exception out
of a shard, a server started without its optional telemetry plane —
and checks that the affected request gets an error reply (or the
process starts and stops cleanly) while the connection keeps serving.
"""

import os
import pathlib
import re
import signal
import subprocess
import sys

import pytest

from repro.engine.stream import StreamSession
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import encode_frame
from repro.serve.server import ServeConfig, ServerThread


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
