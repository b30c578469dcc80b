"""serve_calm: a real ``repro serve`` process driven from this process.

One server (``python -m repro.cli serve --shards 1 --port 0
--metrics-port 0``, a thread shard) serves 128 ``rent_or_buy``
sessions at width 96 whose working sets drift every 600 steps, at a
per-session offset.  This process is the load generator: two
``ServeClient(proto="bin")`` connections on two threads own 64
sessions each.  Per round every connection sends one
``feed_pipelined`` burst of 64 x 256-step chunks and waits for every
reply before the next round (closed loop).  Quiet chunks keep the
fused sweep on its cheap path, so the time goes to the request path
around the kernel.

A run is a sequence of identical passes for ``seconds`` of wall time.
A pass opens a fresh set of sessions before its clock starts, times
``ROUNDS`` rounds, and closes the sessions after the clock stops;
fixed-size passes keep server memory independent of speed, since
per-session state grows with steps served.  Every pass's close costs
must equal a single in-process ``StreamHub`` replay of the same
chunks.  Rates and burst latencies are taken at the speed of the
quietest blocks of ``BLOCK`` bursts of one connection
(``common.quiet_blocks``); a connection's bursts follow each other, so
its bursts of a pass take as long as the whole pass.

Set-up is timed ``SETUPS`` times (spawn -> listening, plus the first
pass's opens) and reported as the median.  After the last pass the
run scrapes ``/metrics.json``, reads the server's ``VmHWM`` and
requires a clean exit on SIGTERM.  The traced run spends half its time
on a plain server and half on ``serve_launcher.py`` (span wrappers
installed) so the tracing overhead is measured in the same run.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import numpy as np

import inputs
import layers
from common import (
    OUT_DIR, Outcome, median, percentiles, proc_status_kb, quiet_blocks,
)
from spans import SpanTracer, merge_layers

SESSIONS = 128
CONNECTIONS = 2
WIDTH = 96
CHUNK = 256
PHASE = 600
STAGGER = 131
NOISE = 0.003
ROUNDS = 48
#: Consecutive bursts of one connection scored together by
#: ``quiet_blocks``, and the share of blocks kept.
BLOCK, QUIET_SHARE = 4, 0.1
SETUPS = 7
#: Seconds a client waits for one reply; a round takes ~50 ms, and a
#: request the server never answers must fail the run well within its
#: time limit.
REPLY_TIMEOUT = 30.0
POLICY = "rent_or_buy"
HERE = os.path.dirname(os.path.abspath(__file__))

_SERVING = re.compile(r"serving on (\S+):(\d+)")
_METRICS = re.compile(r"metrics on http://(\S+):(\d+)/metrics")


class Server:
    """One serving process: spawn, find its ports, scrape, stop."""

    def __init__(self, argv: list[str], log_path: str):
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        deadline = time.monotonic() + 60.0
        while True:
            with open(log_path) as fh:
                text = fh.read()
            serving, metrics = _SERVING.search(text), _METRICS.search(text)
            if serving and metrics:
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.kill()
                raise RuntimeError(f"server did not start:\n{text}")
            time.sleep(0.002)
        self.address = (serving.group(1), int(serving.group(2)))
        self.metrics_address = (metrics.group(1), int(metrics.group(2)))

    def scrape(self) -> dict:
        host, port = self.metrics_address
        url = f"http://{host}:{port}/metrics.json"
        with urllib.request.urlopen(url, timeout=30) as reply:
            return json.load(reply)

    def peak_rss_mb(self) -> float:
        return proc_status_kb(self.proc.pid, "VmHWM") / 1024.0

    def stop(self) -> int:
        """SIGTERM and wait; returns the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        finally:
            self.kill()
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


def _replay_costs(fleet, ids) -> dict[str, float]:
    """Expected close costs: one in-process StreamHub, same chunks."""
    from repro.core.switches import SwitchUniverse
    from repro.engine.stream import StreamHub
    from repro.serve.protocol import policy_from_spec

    universe = SwitchUniverse.of_size(WIDTH)
    hub = StreamHub()
    for sid in ids:
        hub.open(policy_from_spec(POLICY, float(WIDTH), {}), universe,
                 float(WIDTH), session_id=sid)
    for r in range(ROUNDS):
        lo = r * CHUNK
        hub.feed_many({
            sid: fleet[s][lo:lo + CHUNK] for s, sid in enumerate(ids)
        })
    return {sid: hub.session(sid).cost for sid in ids}


class Fleet:
    """The load generator: connections, per-pass opens/rounds/closes."""

    def __init__(self, server: Server, work, out: Outcome):
        from repro.serve.client import ServeClient

        self.fleet, self.expected, self.baseline = work
        self.out = out
        self.clients = [
            ServeClient(*server.address, proto="bin", timeout=REPLY_TIMEOUT)
            for _ in range(CONNECTIONS)
        ]
        self.passes = 0

    def open_pass(self) -> list[list[tuple[str, int]]]:
        """Open this pass's sessions; returns (id, index) per connection."""
        owned = [[] for _ in self.clients]
        for s in range(SESSIONS):
            c = s % CONNECTIONS
            sid = self.clients[c].open(
                policy=POLICY, width=WIDTH, w=float(WIDTH),
                session_id=f"p{self.passes}s{s}",
            )
            owned[c].append((sid, s))
        self.out.attempt("open", count=SESSIONS)
        self.passes += 1
        return owned

    def run_rounds(self, owned) -> tuple[float, list[float], int]:
        """Time ``ROUNDS`` closed-loop rounds on every connection;
        returns (wall, burst latencies per connection, request bytes
        sent)."""
        from repro.serve.client import ServeError

        barrier = threading.Barrier(len(self.clients))
        spans = [None] * len(self.clients)
        lats = [[] for _ in self.clients]
        errors = []
        sent = [c.bytes_sent for c in self.clients]

        def drive(c: int) -> None:
            client, mine = self.clients[c], owned[c]
            barrier.wait()
            start = time.perf_counter()
            for r in range(ROUNDS):
                lo = r * CHUNK
                batch = [(sid, self.fleet[s][lo:lo + CHUNK])
                         for sid, s in mine]
                t0 = time.perf_counter()
                try:
                    results = client.feed_pipelined(batch)
                except (ServeError, OSError) as exc:
                    errors.append((len(batch), exc))
                    break
                lats[c].append(time.perf_counter() - t0)
                bad = sum(res.steps != CHUNK for res in results)
                if bad:
                    errors.append((bad, "short feed reply"))
            spans[c] = (start, time.perf_counter())

        threads = [
            threading.Thread(target=drive, args=(c,), name=f"conn-{c}")
            for c in range(len(self.clients))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        failed = sum(count for count, _why in errors)
        self.out.attempt("feed", count=SESSIONS * ROUNDS - failed)
        self.out.attempt("feed", ok=False, count=failed)
        wall = max(e for _s, e in spans) - min(s for s, _e in spans)
        nbytes = sum(
            c.bytes_sent - before for c, before in zip(self.clients, sent)
        )
        return wall, lats, nbytes

    def close_pass(self, owned) -> list[float]:
        """Close this pass's sessions; returns cost / single-context
        cost per session."""
        ratios = []
        for client, mine in zip(self.clients, owned):
            for sid, s in mine:
                cost = client.close_session(sid).cost
                ratios.append(cost / self.baseline[s])
                self.out.attempt("close")
                self.out.attempt(
                    "oracle_check", cost == self.expected[f"u{s}"]
                )
        return ratios

    def close(self) -> None:
        for client in self.clients:
            client.close()


def _phase(argv, seconds, work, out, tag, setups=1, client_tracer=None):
    """Spawn ``setups`` servers (keeping the last), run passes for
    ``seconds`` of wall time, then scrape and stop the server."""
    setup_times = []
    server = None
    try:
        for k in range(setups):
            if server is not None:
                load.close()
                out.attempt("server_exit", server.stop() == 0)
            t0 = time.perf_counter()
            server = Server(argv, os.path.join(OUT_DIR, f"{tag}-{k}.log"))
            load = Fleet(server, work, out)
            owned = load.open_pass()
            setup_times.append(time.perf_counter() - t0)
        passes = []
        rounds = []  # burst latencies of one connection in one pass
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not passes:
            if passes:
                owned = load.open_pass()
            if client_tracer is not None:
                layers.patch_client(client_tracer)
            wall, lat, nbytes = load.run_rounds(owned)
            if client_tracer is not None:
                client_tracer.restore()
            ratios = load.close_pass(owned)
            rounds.extend(r for r in lat if len(r) == ROUNDS)
            passes.append({
                "wall_s": wall,
                "bytes": nbytes,
                "mean_cost": float(np.mean(ratios)),
            })
        scraped = server.scrape()
        out.attempt(
            "server_steps",
            scraped["engine"]["stream"]["steps"]
            == len(passes) * SESSIONS * CHUNK * ROUNDS,
        )
        rss = server.peak_rss_mb()
        load.close()
        out.attempt("server_exit", server.stop() == 0)
    finally:
        if server is not None:
            server.kill()
    return {
        "passes": passes,
        "rounds": rounds,
        "setup_times": setup_times,
        "metrics_json": scraped,
        "peak_rss_mb": rss,
    }


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    fleet = inputs.fleet_lanes(
        seed, SESSIONS, WIDTH, CHUNK * ROUNDS, phase=PHASE, noise=NOISE,
        stagger=STAGGER,
    )
    # (inputs, expected close costs, single-hypercontext costs)
    work = (
        fleet,
        _replay_costs(fleet, [f"u{s}" for s in range(SESSIONS)]),
        [inputs.single_context_cost(lanes, float(WIDTH)) for lanes in fleet],
    )
    out.record["input_digest"] = inputs.digest(*fleet)
    cli = [sys.executable, "-m", "repro.cli", "serve", "--shards", "1",
           "--port", "0", "--metrics-port", "0"]
    tag = f"serve-seed{seed}-trace{int(trace)}"
    timed_steps = SESSIONS * CHUNK * ROUNDS

    if not trace:
        res = _phase(cli, seconds, work, out, tag, SETUPS)
        passes = res["passes"]
        quiet, factor = quiet_blocks(res["rounds"], BLOCK, QUIET_SHARE)
        rate = timed_steps / float(quiet.sum())
        p50, p95 = percentiles(quiet, 50, 95)
        out.record.update({
            "passes": len(passes),
            "rounds_per_pass": ROUNDS,
            "round_samples": len(res["rounds"]) * ROUNDS,
            "quiet_factor": factor,
            "setup_samples": len(res["setup_times"]),
            "per_pass": passes,
        })
        out.metrics = {
            "steps_per_s": rate,
            "round_p50_ms": p50 * 1e3,
            "round_p95_ms": p95 * 1e3,
            "wire_bytes_per_step": passes[0]["bytes"] / timed_steps,
            "solves_per_s": rate / CHUNK,
            "mean_cost": passes[0]["mean_cost"],
            "setup_s": median(res["setup_times"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        _check_repeats(passes, out)
        return out

    plain = _phase(cli, seconds / 2, work, out, tag + "-plain")
    spans_path = os.path.join(OUT_DIR, f"{tag}-spans.json")
    launcher = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                "--spans-out", spans_path]
    client_tracer = SpanTracer()
    traced = _phase(launcher, seconds / 2, work, out, tag + "-traced",
                    client_tracer=client_tracer)
    _check_repeats(plain["passes"] + traced["passes"], out)
    with open(spans_path) as fh:
        server_side = json.load(fh)
    rows = merge_layers(client_tracer.layers(), server_side["layers"])
    wall = sum(p["wall_s"] for p in traced["passes"])
    rate_plain = median([timed_steps / p["wall_s"] for p in plain["passes"]])
    rate_traced = median(
        [timed_steps / p["wall_s"] for p in traced["passes"]]
    )
    waits = [e["queue_wait_s"] for e in server_side["feed_events"]]
    snap = traced["metrics_json"]
    hist = snap["histograms"]
    stream = snap["engine"]["stream"]
    # One sample per ShardPool.feed_shard call, i.e. per drain cycle.
    drain = hist["drain_cycle_seconds"]
    groups = hist["fused_group_sessions"]

    n = len(traced["passes"])

    def total(layer, key="total_s"):
        """Seconds per timed pass spent in ``layer``."""
        return rows.get(layer, {}).get(key, 0.0) / n

    out.metrics = {
        "serve.client.encode_s": total("serve.client.encode"),
        "serve.protocol.parse_s": total("serve.protocol.parse"),
        "serve.protocol.decode_s": total("serve.protocol.decode"),
        "serve.protocol.reply_encode_s": total("serve.protocol.reply_encode"),
        "serve.server.queue_wait_p50_ms": percentiles(waits, 50)[0] * 1e3,
        "serve.server.drain_cycles": drain["count"] / n,
        "serve.server.cycle_sessions_mean": groups["mean"],
        "serve.shard.feed_shard_s": total("serve.shard"),
        "serve.shard.busy_frac": total("serve.shard") * n / wall,
        "engine.stream.feed_many_s": total("engine.stream"),
        "engine.stream.self_s": total("engine.stream", "self_s"),
        "engine.stream.fused_fraction": stream["fused_fraction"],
        "solvers.online.sweep_s": total("solvers.online"),
        "solvers.online.replay_epochs": stream["replay_epochs"] / n,
        "solvers.online.replay_triggers": stream["replay_triggers"] / n,
        "core.packed.extend_s": total("core.packed"),
        "obs.trace_overhead_frac": 1.0 - rate_traced / rate_plain,
    }
    out.record.update({
        "passes_plain": len(plain["passes"]),
        "passes_traced": n,
        "queue_wait_samples": len(waits),
        "server_tracer": server_side["tracer"],
    })
    out.layers, out.traced_wall_s = rows, wall
    out.spans = list(client_tracer.spans) + server_side["spans"]
    return out


def _check_repeats(passes, out: Outcome) -> None:
    """Identical passes must end at identical costs."""
    first = passes[0]
    for p in passes[1:]:
        out.attempt("pass_repeat", p["mean_cost"] == first["mean_cost"])
