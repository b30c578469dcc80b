"""The metric catalogue drives every view of the telemetry.

Pins what the catalogue must keep: the exposed families (names, types
and label keys) of a live server, one in-process shard and a pool of
process shards alike; a ``# HELP`` line on every family; the version-1
``snapshot_json`` format and the ``snapshot()`` key shape; the README
metrics table; the ``shard_queue_depth`` and ``shard_up`` gauges; and
the ``--stats-interval`` line.
"""

import asyncio
import json
import re
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine.metrics import EngineMetrics
from repro.obs.catalog import markdown_table
from repro.obs.expo import MetricsHTTPServer, parse_exposition
from repro.serve.client import ServeClient
from repro.serve.loadgen import drifting_masks
from repro.serve.server import ServeConfig, ServerThread, StreamServer, _Job

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
WIDTH = 96

#: The exposition before the catalogue existed, as family, type, label
#: keys on an idle server and label keys after feeds ("-" = none).
#: Thread and process shards exposed the same set.
PARENT_FAMILIES = """
    drain_cycle_seconds                histogram -      shard
    engine_batches_total               counter   -      -
    engine_cache_hits_total            counter   -      -
    engine_errors_total                counter   -      -
    engine_requests_total              counter   -      -
    engine_solved_total                counter   -      -
    engine_timeouts_total              counter   -      -
    feed_latency_seconds               histogram -      -
    fused_group_sessions               histogram -      -
    portfolio_decision_seconds         histogram -      -
    portfolio_decisions_total          counter   -      -
    portfolio_explores_total           counter   -      -
    portfolio_races_total              counter   -      -
    portfolio_records_total            counter   -      -
    server_closes_total                counter   -      -
    server_connections_total           counter   -      -
    server_errors_total                counter   -      -
    server_feeds_total                 counter   -      -
    server_frames_total                counter   -      -
    server_metrics_calls_total         counter   -      -
    server_opens_total                 counter   -      -
    server_protocol_errors_total       counter   -      -
    server_rejected_sessions_total     counter   -      -
    server_stats_calls_total           counter   -      -
    session_cost                       histogram -      shard,solver
    session_steps                      histogram -      shard,solver
    sessions                           gauge     -      -
    shard_sessions                     gauge     shard  shard
    solve_latency_seconds              histogram -      -
    stream_chunk_steps                 histogram -      shard
    stream_closed_total                counter   -      -
    stream_fused_fallback_total        counter   -      -
    stream_fused_sessions_total        counter   -      -
    stream_hypers_total                counter   -      -
    stream_replay_epochs_total         counter   -      -
    stream_replay_triggers_total       counter   -      -
    stream_sessions_total              counter   -      -
    stream_steps_total                 counter   -      -
    trace_slow_spans_total             counter   -      -
    trace_spans_total                  counter   -      -
    uptime_seconds                     gauge     -      -
    wire_bytes_in_total                counter   proto  proto
    wire_bytes_out_total               counter   proto  proto
    wire_decode_seconds_total          counter   proto  proto
    wire_frames_in_total               counter   proto  proto
"""
#: Families added since, with the same columns.
ADDED_FAMILIES = """
    shard_queue_depth                  gauge     shard  shard
    shard_up                           gauge     shard  shard
"""


def _golden(table: str, column: int) -> set:
    out = set()
    for line in table.split("\n"):
        if line.strip():
            name, kind, *labels = line.split()
            keys = labels[column]
            out.add((
                f"repro_{name}", kind,
                () if keys == "-" else tuple(keys.split(",")),
            ))
    return out


def _families(text: str) -> set:
    """(family, type, label keys) of an exposition; a family whose
    samples carry several label sets contributes one row per set."""
    types, helps = {}, set()
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            types[name] = kind
        elif line.startswith("# HELP "):
            helps.add(line.split(" ", 3)[2])
    assert set(types) <= helps, sorted(set(types) - helps)
    out = set()
    for sample, rows in parse_exposition(text).items():
        family = re.sub(r"_(bucket|sum|count)$", "", sample)
        if family not in types:
            family = sample
        for labels, _value in rows:
            keys = tuple(sorted(k for k in labels if k != "le"))
            out.add((family, types[family], keys))
    return out


@pytest.fixture(scope="module", params=[1, 2], ids=["thread", "proc"])
def scrapes(request):
    """Exposition of a 1-shard (in-process) and a 2-shard (process)
    server, idle and after 3 sessions fed, and its shard count."""
    config = ServeConfig(shards=request.param, max_sessions=64)
    with ServerThread(config) as address:
        with ServeClient(*address) as client:
            idle = client.metrics()["exposition"]
            sids = [
                client.open(policy="rent_or_buy", width=WIDTH, w=float(WIDTH))
                for _ in range(3)
            ]
            masks = drifting_masks(WIDTH, 90, seed=5)
            for sid in sids:
                client.feed(sid, masks)
            for sid in sids:
                client.close_session(sid)
            fed = client.metrics()["exposition"]
    return idle, fed, request.param


class TestExposedFamilies:
    def test_idle_families_match_the_parent_plus_queue_depth(self, scrapes):
        want = _golden(PARENT_FAMILIES, 0) | _golden(ADDED_FAMILIES, 0)
        assert _families(scrapes[0]) == want

    def test_fed_families_match_the_parent_plus_queue_depth(self, scrapes):
        want = _golden(PARENT_FAMILIES, 1) | _golden(ADDED_FAMILIES, 1)
        assert _families(scrapes[1]) == want

    def test_idle_server_shows_an_empty_queue_per_shard(self, scrapes):
        idle, _fed, shards = scrapes
        assert "# HELP repro_shard_queue_depth " in idle
        series = parse_exposition(idle)
        labels = [{"shard": str(i)} for i in range(shards)]
        assert series["repro_shard_queue_depth"] == [
            (label, 0.0) for label in labels
        ]
        assert series["repro_shard_up"] == [(label, 1.0) for label in labels]


def test_queue_depth_counts_waiting_jobs():
    """Jobs staged while no drainer runs show up in the gauge and in
    the per-shard rows of ``/metrics.json``."""
    server = StreamServer(ServeConfig(shards=2, queue_depth=8))
    try:
        async def stage():
            for i in range(3):
                job = _Job(kind="close", session=f"s{i}")
                await server._queues[1].put(job)

        asyncio.run(stage())
        snapshot = server.metrics_snapshot()
        assert [row["queue_depth"] for row in snapshot["shards"]] == [0, 3]
        rows = parse_exposition(server.exposition())["repro_shard_queue_depth"]
        assert rows == [({"shard": "0"}, 0.0), ({"shard": "1"}, 3.0)]
    finally:
        server._executor.shutdown(wait=True)
        server.pool.close()


class TestSnapshotFormat:
    """A version-1 snapshot written before the catalogue existed."""

    def test_v1_snapshot_round_trips_byte_identically(self):
        text = (DATA / "engine_metrics_v1.json").read_text().strip()
        counters = json.loads(text)["counters"]
        assert all(counters.values())  # every counter is exercised
        assert EngineMetrics.from_json(text).snapshot_json() == text

    def test_v1_snapshot_keeps_the_report_shape(self):
        text = (DATA / "engine_metrics_v1.json").read_text()
        want = json.loads(
            (DATA / "engine_metrics_v1.snapshot.json").read_text()
        )
        assert EngineMetrics.from_json(text).snapshot() == want


def test_readme_table_matches_the_catalogue():
    readme = (ROOT / "README.md").read_text()
    begin = readme.index("<!-- metrics-table:")
    begin = readme.index("\n", begin) + 1
    end = readme.index("<!-- /metrics-table -->")
    assert readme[begin:end] == markdown_table(), (
        "README metrics table is stale: regenerate it with "
        "`PYTHONPATH=src python -m repro.obs.catalog`"
    )


class TestServeStatsCheck:
    def _check(self, port: int) -> int:
        return main(["serve-stats", "--metrics-port", str(port), "--check"])

    def test_live_server_passes(self, capsys):
        config = ServeConfig(shards=2, metrics_port=0)
        thread = ServerThread(config)
        with thread:
            _host, port = thread.server.metrics_address
            assert self._check(port) == 0
        assert "core series present" in capsys.readouterr().out

    def test_family_without_help_fails(self, capsys):
        text = "# TYPE repro_sessions gauge\nrepro_sessions 0\n"
        with pytest.raises(ValueError, match="repro_sessions"):
            parse_exposition(text)
        with MetricsHTTPServer(lambda: text, dict) as http:
            assert self._check(http.address[1]) == 1
        assert "no # HELP for repro_sessions" in capsys.readouterr().err


def test_stats_line_reports_drain_but_not_feed_quantiles(capsys):
    """A server books every feed under ``drain_cycle_seconds``; its
    ``feed_latency_seconds`` stays empty, so the line omits it."""
    config = ServeConfig(shards=2, stats_interval=0.05)
    with ServerThread(config) as address:
        with ServeClient(*address) as client:
            sid = client.open(
                policy="rent_or_buy", width=WIDTH, w=float(WIDTH)
            )
            client.feed(sid, drifting_masks(WIDTH, 40, seed=1))
        deadline = time.monotonic() + 20
        lines: list[str] = []
        while time.monotonic() < deadline:
            lines += capsys.readouterr().err.splitlines()
            if any(" steps=40 " in line for line in lines):
                break
            time.sleep(0.05)
    line = next(line for line in lines if " steps=40 " in line)
    assert " drain p50/p99=" in line
    assert "feed p50/p99" not in line
