"""Observability suite for the serving stack.

Covers the telemetry plane end to end: trace ids through the wire
protocol, the ``metrics`` frame (JSON + Prometheus text), the HTTP
scrape endpoint, per-shard quantiles in ``stats`` — and the headline
aggregation property: a process-sharded :class:`ShardPool` merges its
workers' deterministic histograms to **bit-identical** equality with a
single :class:`StreamHub` fed the same traffic.
"""

import json
import urllib.request

import pytest

from repro.core.switches import SwitchUniverse
from repro.engine.metrics import DETERMINISTIC_FAMILIES, EngineMetrics
from repro.engine.stream import StreamHub
from repro.obs.expo import parse_exposition
from repro.obs.histogram import Histogram, HistogramFamily
from repro.serve.client import ServeClient
from repro.serve.loadgen import drifting_masks, run_loadgen
from repro.serve.server import ServeConfig, ServerThread
from repro.serve.shard import ShardPool
from repro.solvers.online import RentOrBuyScheduler, WindowScheduler

WIDTH = 96
W = float(WIDTH)


def _scheduler(s: int):
    return (
        RentOrBuyScheduler(W, alpha=1.0, memory=4)
        if s % 2 == 0
        else WindowScheduler(k=7)
    )


def _drive(sink, traces, universe, *, chunk=60):
    """Open/feed/finish the same fleet on a hub or a pool."""
    for s, (sid, masks) in enumerate(traces.items()):
        sink.open(_scheduler(s), universe, W, session_id=sid)
    longest = max(len(m) for m in traces.values())
    pos = 0
    while pos < longest:
        sink.feed_many(
            {sid: m[pos : pos + chunk] for sid, m in traces.items()}
        )
        pos += chunk
    sink.finish_all()


class TestHistogramBitIdentity:
    """Satellite: sharded aggregation equals the single-hub oracle."""

    @pytest.fixture(scope="class")
    def traces(self):
        return {
            f"user-{s}": drifting_masks(WIDTH, 240, seed=s, phase=40)
            for s in range(10)
        }

    @pytest.fixture(scope="class")
    def oracle(self, traces):
        universe = SwitchUniverse.of_size(WIDTH)
        hub = StreamHub()
        _drive(hub, traces, universe)
        return {
            name: hub.metrics.hist[name].aggregate()
            for name in DETERMINISTIC_FAMILIES
        }

    @pytest.mark.parametrize(
        ("shards", "procs"), [(1, False), (2, True), (3, True)]
    )
    def test_pool_aggregates_bit_identical(
        self, traces, oracle, shards, procs
    ):
        """``procs``: the kind the shard count must pick."""
        universe = SwitchUniverse.of_size(WIDTH)
        with ShardPool(shards) as pool:
            assert pool.stats()["shards"][0]["kind"] == (
                "proc" if procs else "thread"
            )
            _drive(pool, traces, universe)
            merged = pool.merged_histograms()
        for name in DETERMINISTIC_FAMILIES:
            got = merged[name].aggregate()
            want = oracle[name]
            # Histogram equality is key() equality: exact counts per
            # bucket, exact count/min/max — bit identity, not approx.
            assert got == want, name
            assert got.key() == want.key()

    def test_shard_labels_partition_the_aggregate(self, traces):
        universe = SwitchUniverse.of_size(WIDTH)
        with ShardPool(3) as pool:
            _drive(pool, traces, universe)
            merged = pool.merged_histograms()
        fam = merged["session_cost"]
        shards_seen = {
            lbl.get("shard") for lbl, h in fam.series() if h.count
        }
        assert len(shards_seen) > 1  # 10 sessions spread over 3 shards
        assert sum(h.count for _lbl, h in fam.series()) == len(traces)


class TestEngineMetricsObs:
    """Satellites: locked derived properties, canonical empty stats."""

    def test_latency_stats_canonical_empty(self):
        from repro.engine.metrics import LatencyStats

        empty = LatencyStats().snapshot()
        assert empty["count"] == 0
        # One canonical empty representation: all-zero, never inf.
        assert empty["min_s"] == 0.0 and empty["max_s"] == 0.0
        assert empty["p99_s"] == 0.0

    def test_derived_properties_under_lock(self):
        m = EngineMetrics()
        assert m.throughput == 0.0
        assert m.cache_hit_rate == 0.0
        assert m.stream_steps_per_s == 0.0
        m.record_solve(0.010, solver="dp")
        # Reading a property while holding the metrics lock must not
        # deadlock (regression: properties used to read bare counters;
        # now they acquire the lock, and snapshot() uses the lock-free
        # bodies internally).
        with m._lock:
            pass  # lock is free again after property reads above
        snap = m.snapshot()
        assert snap["solved"] == 1
        assert snap["histograms"]["solve_latency_seconds"]["count"] == 1

    def test_histograms_disabled_keeps_snapshot_shape(self):
        m = EngineMetrics(histograms=False)
        m.record_solve(0.010, solver="dp")
        m.record_stream(steps=5, seconds=0.001, chunk_steps=(5,))
        snap = m.snapshot()
        assert snap["histograms"]["solve_latency_seconds"]["count"] == 0
        assert snap["solved"] == 1
        assert snap["stream"]["steps"] == 5


@pytest.fixture()
def obs_server():
    config = ServeConfig(
        shards=2,
        max_sessions=64,
        metrics_port=0,
        slow_ms=None,
        trace_capacity=512,
    )
    thread = ServerThread(config)
    with thread as address:
        yield address, thread.server


class TestServeTelemetry:
    def _feed_some(self, client, *, sessions=3, steps=90):
        sids = [
            client.open(
                policy="rent_or_buy", width=WIDTH, w=W, trace=f"open-{i}"
            )
            for i in range(sessions)
        ]
        masks = drifting_masks(WIDTH, steps, seed=5)
        for sid in sids:
            client.feed(sid, masks, trace=f"feed-{sid}")
        for sid in sids:
            client.close_session(sid, trace=f"close-{sid}")
        return sids

    def test_trace_ids_echoed_in_replies(self, obs_server):
        address, _server = obs_server
        with ServeClient(*address) as client:
            sid = client.open(
                policy="rent_or_buy", width=WIDTH, w=W, trace="t-abc"
            )
            masks = drifting_masks(WIDTH, 30, seed=0)
            feed = client.call({
                "op": "feed", "session": sid, "count": len(masks),
                "masks": __import__(
                    "repro.serve.protocol", fromlist=["encode_mask_chunk"]
                ).encode_mask_chunk(masks, WIDTH),
                "trace": "t-feed",
            })
            assert feed["trace"] == "t-feed"
            closed = client.call(
                {"op": "close", "session": sid, "trace": "t-bye"}
            )
            assert closed["trace"] == "t-bye"
            # No trace supplied -> no trace key in the reply.
            sid2 = client.open(policy="rent_or_buy", width=WIDTH, w=W)
            reply = client.call({"op": "close", "session": sid2})
            assert "trace" not in reply

    def test_trace_id_validation(self, obs_server):
        address, _server = obs_server
        from repro.serve.client import ServeError

        with ServeClient(*address) as client:
            with pytest.raises(ServeError):
                client.open(
                    policy="rent_or_buy", width=WIDTH, w=W, trace="x" * 999
                )

    def test_metrics_frame_json_and_exposition(self, obs_server):
        address, _server = obs_server
        with ServeClient(*address) as client:
            self._feed_some(client)
            reply = client.metrics()
            snap = reply["metrics"]
            assert snap["server"]["opens"] == 3
            assert snap["server"]["closes"] == 3
            assert snap["uptime_s"] > 0
            assert snap["trace"]["recorded"] > 0
            wire = reply["histograms"]
            agg = Histogram.from_wire_aggregate(wire["session_cost"])
            assert agg.count == 3
            series = parse_exposition(reply["exposition"])
            assert series["repro_server_opens_total"][0][1] == 3
            assert "repro_drain_cycle_seconds_count" in series
            # portfolio counters export even on an idle portfolio
            # (zero-row fallback keeps the scrape contract green)
            assert "repro_portfolio_decisions_total" in series
            assert series["repro_portfolio_records_total"][0][1] == 0
            # Frame stayed within the protocol's 1 MiB line budget.
            assert len(json.dumps(reply)) < 1 << 20

    def test_http_scrape_matches_frame(self, obs_server):
        address, server = obs_server
        assert server.metrics_address is not None
        host, port = server.metrics_address
        with ServeClient(*address) as client:
            self._feed_some(client)
        text = urllib.request.urlopen(
            f"http://{host}:{port}/metrics", timeout=10
        ).read().decode()
        series = parse_exposition(text)
        for name in (
            "repro_uptime_seconds",
            "repro_server_feeds_total",
            "repro_stream_steps_total",
            "repro_feed_latency_seconds_count",
            "repro_session_cost_count",
        ):
            assert name in series, name
        assert series["repro_stream_steps_total"][0][1] == 3 * 90
        body = urllib.request.urlopen(
            f"http://{host}:{port}/metrics.json", timeout=10
        ).read()
        assert json.loads(body)["server"]["feeds"] == 3
        health = urllib.request.urlopen(
            f"http://{host}:{port}/healthz", timeout=10
        ).read()
        assert health == b"ok\n"

    def test_stats_reports_per_shard_quantiles(self, obs_server):
        address, _server = obs_server
        with ServeClient(*address) as client:
            self._feed_some(client, sessions=6)
            stats = client.stats()
            assert "uptime_s" in stats
            assert stats["trace"]["recorded"] > 0
            hists = stats["histograms"]
            assert hists["session_cost"]["count"] == 6
            busy = [s for s in stats["shards"] if "drain" in s]
            assert busy  # at least one shard drained work
            for row in busy:
                drain = row["drain"]
                assert drain["count"] > 0
                assert drain["p50"] <= drain["p99"]

    def test_slow_log_and_span_split(self):
        config = ServeConfig(shards=1, slow_ms=1e-6, trace_capacity=128)
        thread = ServerThread(config)
        with thread as address:
            with ServeClient(*address) as client:
                sid = client.open(policy="rent_or_buy", width=WIDTH, w=W)
                client.feed(sid, drifting_masks(WIDTH, 50, seed=1))
                client.close_session(sid)
                snap = client.metrics()["metrics"]
            assert snap["trace"]["slow"] > 0
            assert snap["slow"]  # slow events shipped in the snapshot
            ev = snap["slow"][0]
            assert ev["duration_s"] >= ev["queue_wait_s"] >= 0.0
            assert ev["service_s"] == pytest.approx(
                ev["duration_s"] - ev["queue_wait_s"]
            )


class TestLoadgenLatency:
    def test_loadgen_reports_client_histogram(self):
        config = ServeConfig(shards=2, max_sessions=64)
        with ServerThread(config) as (host, port):
            result = run_loadgen(
                host, port, sessions=6, steps=120, chunk=40, clients=3
            )
        lat = result.latency
        # One observation per feed frame: 120/40 chunks x 6 sessions.
        assert lat.count == 6 * 3
        assert 0.0 < lat.p50 <= lat.p99 <= lat.max
        assert lat.scheme.name == "time"
