"""Command-line interface.

Subcommands cover the common workflows without writing Python:

* ``repro trace <app>`` — simulate a SHyRA application and dump its
  requirement trace (optionally as JSON);
* ``repro solve <app>`` — trace + solve single- and multi-task
  scheduling, print the cost table;
* ``repro batch [apps…]`` — push a (repeatable) mixed workload through
  the :class:`~repro.engine.batch.BatchEngine` and print per-request
  rows plus throughput/latency/cache metrics (``--anneal-restarts`` /
  ``--anneal-restart-workers`` configure the annealing solver's
  multistart fan-out and surface its per-restart stats);
* ``repro stream [apps…]`` — replay app traces as live requirement
  streams through the sharded serving layer
  (:class:`~repro.serve.shard.ShardPool`; ``--shards N`` picks the
  fleet shape: 1 in-process shard by default, N > 1 process shards)
  and print per-session accounting plus steps/sec and hyper-rate
  metrics — finite replays and live sockets share this code path;
* ``repro serve`` — run the network serving process: asyncio TCP (or
  ``--stdin``) front door over the shard pool, speaking the framed
  JSON protocol of :mod:`repro.serve.protocol`
  (``--metrics-port`` exposes ``GET /metrics``, ``--stats-interval``
  prints periodic telemetry, ``--slow-ms`` tunes the slow-request
  log);
* ``repro serve-stats`` — scrape a running server's metrics endpoint
  (text, ``--json``, or ``--check`` which parses the exposition and
  requires the core series and a ``# HELP`` line per family);
* ``repro serve-bench`` — loopback load generator: spin up (or connect
  to) a server, drive a synthetic session fleet through real client
  connections, print throughput and optionally verify per-session
  costs against a single-hub replay;
* ``repro solvers`` — list the registered solver zoo with capability
  tags;
* ``repro portfolio`` — inspect a saved portfolio state
  (``repro batch --ledger`` writes one), dump the learned per-bucket
  model, or replay decisions offline with any strategy;
* ``repro experiment`` — the full paper reproduction (E1–E3 artifacts);
* ``repro stats <app>`` — trace statistics and phase structure;
* ``repro bench`` — run the benchmark smoke suite (every ``bench_e*``
  at reduced size) and print its tables, including the E14/E15 speedup
  tables.

All solving goes through the solver registry and the serving engine
(:mod:`repro.engine`), never through ad-hoc solver imports.

Installed as the ``repro`` console script; also runnable via
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.experiments import run_counter_experiment
from repro.analysis.figures import render_fig2, render_fig3
from repro.analysis.report import counter_cost_table, paper_comparison_table
from repro.analysis.trace_stats import demand_profile, detect_period
from repro.core.cost_single import no_hyper_cost
from repro.core.packed import masks_to_lanes
from repro.engine.batch import BatchEngine
from repro.engine.registry import default_registry
from repro.engine.requests import SolveRequest
from repro.shyra.apps.adder import adder_registers, build_adder_program
from repro.shyra.apps.comparator import (
    build_comparator_program,
    comparator_registers,
)
from repro.shyra.apps.counter import build_counter_program, counter_registers
from repro.shyra.apps.gray import build_gray_program, gray_registers
from repro.shyra.apps.lfsr import build_lfsr_program, lfsr_registers
from repro.shyra.apps.parity import build_parity_program, parity_registers
from repro.shyra.tasks import component_masks, shyra_task_system
from repro.shyra.trace import RequirementSemantics, run_and_trace
from repro.util.texttable import format_table

__all__ = ["main", "APPS"]

#: app name -> (program builder, default initial registers)
APPS = {
    "counter": (build_counter_program, lambda: counter_registers(0, 10)),
    "comparator": (build_comparator_program, lambda: comparator_registers(11, 5)),
    "adder": (build_adder_program, lambda: adder_registers(9, 6)),
    "gray": (build_gray_program, lambda: gray_registers(12)),
    "parity": (build_parity_program, lambda: parity_registers(0xA5)),
    "lfsr": (build_lfsr_program, lambda: lfsr_registers(1)),
}


def _trace_app(args) -> "tuple":
    build, registers = APPS[args.app]
    program = build(hold_unused=not args.naive)
    semantics = (
        RequirementSemantics.WRITTEN
        if args.semantics == "written"
        else RequirementSemantics.DELTA
    )
    trace = run_and_trace(
        program, initial_registers=registers(), semantics=semantics
    )
    return program, trace


def cmd_trace(args) -> int:
    _program, trace = _trace_app(args)
    profile = demand_profile(trace.requirements, component_masks())
    if args.json:
        payload = {
            "app": args.app,
            "n": trace.n,
            "requirement_masks": [hex(m) for m in trace.requirements.masks],
            "config_words": [hex(w) for w in trace.config_words],
            "final_registers": list(trace.final_registers),
            "mean_demand": profile.mean_demand,
        }
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0
    print(f"app: {args.app}  n = {trace.n} reconfigurations")
    print(f"mean demand: {profile.mean_demand:.1f} / {profile.universe_size}")
    print(f"trace union: {profile.total_union_size} switches")
    period = detect_period(trace.requirements, skip=trace.n // 4)
    print(f"detected period (after warm-up): {period}")
    rows = [
        [name, round(mean, 2)]
        for name, mean in profile.per_component_mean.items()
    ]
    print(format_table(["component", "mean demand"], rows))
    return 0


def cmd_solve(args) -> int:
    _program, trace = _trace_app(args)
    seq = trace.requirements
    system = shyra_task_system()
    base = no_hyper_cost(seq)
    engine = BatchEngine()
    single_res = engine.solve(
        SolveRequest.single(seq, w=float(seq.universe.size))
    )
    multi_res = engine.solve(
        SolveRequest.multi(
            system, system.split_requirements(seq), solver="mt_greedy"
        )
    )
    for res in (single_res, multi_res):
        if not res.ok:
            print(f"solve failed: {res.error}", file=sys.stderr)
            return 1
    single, multi = single_res.value, multi_res.value
    rows = [
        ["hyperreconfiguration disabled", base, 100.0, "-"],
        ["single task (optimal DP)", single.cost,
         round(100 * single.cost / base, 1), single.schedule.r],
        ["multi task (greedy+LS)", multi.cost,
         round(100 * multi.cost / base, 1),
         len(multi.schedule.hyper_columns())],
    ]
    print(format_table(
        ["configuration", "cost", "% of disabled", "hyper steps"],
        rows,
        title=f"{args.app}: scheduling (n={trace.n})",
    ))
    return 0


def _batch_requests(apps, *, naive: bool, solver: str, solver_kwargs=None):
    """One single- and one multi-task request per app trace."""
    requests = []
    labels = []
    system = shyra_task_system()
    solver_kwargs = solver_kwargs or {}
    for app in apps:
        build, registers = APPS[app]
        program = build(hold_unused=not naive)
        trace = run_and_trace(program, initial_registers=registers())
        seq = trace.requirements
        requests.append(SolveRequest.single(seq, w=float(seq.universe.size)))
        labels.append((app, "single"))
        requests.append(
            SolveRequest.multi(
                system,
                system.split_requirements(seq),
                solver=solver,
                **solver_kwargs,
            )
        )
        labels.append((app, "multi"))
    return requests, labels


def _anneal_kwargs(args) -> dict:
    """Solver kwargs for the annealing multistart flags (empty unless
    the selected solver actually anneals)."""
    if args.solver not in ("mt_annealing", "mt_annealing_multistart"):
        return {}
    if args.anneal_restarts == 1 and args.anneal_restart_workers == 1:
        return {}
    from repro.solvers.mt_annealing import AnnealParams

    return {
        "params": AnnealParams(
            restarts=args.anneal_restarts,
            restart_workers=args.anneal_restart_workers,
        )
    }


def _restart_rows(results, labels):
    """Per-restart stat rows of the annealing solves in a batch."""
    rows = []
    seen = set()
    for (app, kind), res in zip(labels, results):
        if not res.ok or (app, kind) in seen:
            continue
        seen.add((app, kind))
        stats = res.value.stats or {}
        costs = stats.get("restart_costs")
        if not costs or len(costs) < 2:
            continue
        accepted = stats.get("restart_accepted", [0] * len(costs))
        for r, (cost, acc) in enumerate(zip(costs, accepted)):
            rows.append([app, r, round(cost, 1), acc])
    return rows


def cmd_batch(args) -> int:
    if args.repeat < 1:
        print("--repeat must be at least 1", file=sys.stderr)
        return 2
    apps = args.apps or sorted(APPS)
    for app in apps:
        if app not in APPS:
            print(f"unknown app {app!r}; choose from {sorted(APPS)}",
                  file=sys.stderr)
            return 2
    try:
        engine = BatchEngine(
            workers=args.workers,
            cache_size=args.cache_size,
            timeout=args.timeout,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        solver_kwargs = _anneal_kwargs(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    state = None
    if getattr(args, "ledger", None):
        from pathlib import Path

        from repro.portfolio import PortfolioState, set_default_state

        ledger_path = Path(args.ledger)
        if ledger_path.exists():
            try:
                state = PortfolioState.load(ledger_path)
            except ValueError as exc:
                print(f"bad ledger {ledger_path}: {exc}", file=sys.stderr)
                return 2
        else:
            state = PortfolioState()
        set_default_state(state)
    requests, labels = _batch_requests(
        apps, naive=args.naive, solver=args.solver, solver_kwargs=solver_kwargs
    )
    requests = requests * args.repeat
    labels = labels * args.repeat
    results = engine.solve_batch(requests)
    if state is not None:
        state.save(args.ledger)
    if args.json:
        payload = engine.metrics.snapshot(engine.cache.stats)
        payload["results"] = [
            {
                "app": app,
                "kind": kind,
                "ok": res.ok,
                "cost": res.value.cost if res.ok else None,
                "solver": res.value.solver if res.ok else None,
                "error": res.error,
                "cached": res.cached,
                "elapsed_s": res.elapsed,
            }
            for (app, kind), res in zip(labels, results)
        ]
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0 if all(r.ok for r in results) else 1
    # One row per unique request: the first occurrence's solve plus how
    # many of its duplicates the cache served.
    summary: dict[tuple, dict] = {}
    for label, res in zip(labels, results):
        entry = summary.setdefault(label, {"res": res, "hits": 0})
        if res.cached:
            entry["hits"] += 1
    rows = []
    for (app, kind), entry in summary.items():
        res = entry["res"]
        rows.append([
            app,
            kind,
            res.value.solver if res.ok else f"error: {res.error}",
            round(res.value.cost, 1) if res.ok else "-",
            f"{res.elapsed * 1e3:.1f} ms",
            entry["hits"],
        ])
    print(format_table(
        ["app", "kind", "solver", "cost", "solve", "cache hits"],
        rows,
        title=f"batch: {len(requests)} requests "
              f"({args.repeat}× {len(rows)} unique), "
              f"{args.workers} worker(s)",
    ))
    restart_rows = _restart_rows(results, labels)
    if restart_rows:
        print()
        print(format_table(
            ["app", "restart", "best cost", "accepted"],
            restart_rows,
            title="annealing restarts",
        ))
    print()
    print(engine.metrics.format_report(engine.cache.stats))
    return 0 if all(r.ok for r in results) else 1


def _stream_policy(args, w: float):
    from repro.solvers.online import (
        RentOrBuyScheduler,
        ScalarOnly,
        WindowScheduler,
    )

    if args.policy == "window":
        scheduler = WindowScheduler(k=args.window)
    else:
        scheduler = RentOrBuyScheduler(
            w, alpha=args.alpha, memory=args.memory
        )
    if args.scalar:
        return ScalarOnly(scheduler, name=f"{scheduler.name} [scalar]")
    return scheduler


def cmd_stream(args) -> int:
    from repro.serve.shard import ShardPool, shard_index, shard_kind

    if args.sessions < 1 or args.repeat < 1 or args.chunk < 1:
        print("--sessions, --repeat and --chunk must be at least 1",
              file=sys.stderr)
        return 2
    if args.shards < 1:
        print("--shards must be at least 1", file=sys.stderr)
        return 2
    apps = args.apps or sorted(APPS)
    for app in apps:
        if app not in APPS:
            print(f"unknown app {app!r}; choose from {sorted(APPS)}",
                  file=sys.stderr)
            return 2
    traces = {}
    for app in apps:
        build, registers = APPS[app]
        program = build(hold_unused=not args.naive)
        trace = run_and_trace(program, initial_registers=registers())
        traces[app] = trace.requirements
    if args.w is not None and args.w <= 0:
        print("--w must be positive", file=sys.stderr)
        return 2
    # Finite replays run through the same shard layer a live socket
    # fleet does (repro serve); a 1-shard pool is the old single-hub
    # behavior, per-session results are identical for any shape.
    pool = ShardPool(args.shards)
    try:
        sessions = []  # (session_id, app, masks)
        for app in apps:
            seq = traces[app]
            w = args.w if args.w is not None else float(seq.universe.size)
            try:
                policy = _stream_policy(args, w)
            except ValueError as exc:
                print(exc, file=sys.stderr)
                return 2
            # Pack once per app: lane chunks take the hub's fused
            # epoch-sweep path, the way serve ingest feeds it; scalar
            # (--scalar) sessions unpack them transparently.
            masks = masks_to_lanes(
                list(seq.masks) * args.repeat, seq.universe.size
            )
            for r in range(args.sessions):
                sid = pool.open(policy, seq.universe, w,
                                session_id=f"{app}/{r}")
                sessions.append((sid, app, masks))
        # Feed every session chunk by chunk — one feed_many call
        # advances the whole fleet per round, the way a serving loop
        # would, fanning out across the shard pool.
        pos = 0
        longest = max(len(masks) for _sid, _app, masks in sessions)
        while pos < longest:
            chunks = {
                sid: masks[pos : pos + args.chunk]
                for sid, _app, masks in sessions
                if pos < len(masks)
            }
            pool.feed_many(chunks)
            pos += args.chunk
        runs = pool.finish_all()
        stats = pool.stats()
    finally:
        pool.close()
    if args.json:
        payload = stats["engine"]
        payload["shards"] = stats["shards"]
        payload["sessions"] = [
            {
                "session": sid,
                "app": app,
                "shard": shard_index(sid, args.shards),
                "solver": runs[sid].solver,
                "steps": runs[sid].steps,
                "hypers": runs[sid].hypers,
                "cost": runs[sid].cost,
            }
            for sid, app, _masks in sessions
        ]
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0
    rows = []
    for sid, app, _masks in sessions:
        run = runs[sid]
        rows.append([
            sid,
            run.solver,
            run.steps,
            run.hypers,
            round(run.cost, 1),
        ])
    print(format_table(
        ["session", "policy", "steps", "hypers", "cost"],
        rows,
        title=f"stream: {len(sessions)} session(s), "
              f"{args.shards} {shard_kind(args.shards)} shard(s), "
              f"chunk={args.chunk}, repeat={args.repeat}",
    ))
    print()
    print(pool.metrics.format_report())
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.serve.server import ServeConfig, StreamServer
    from repro.serve.shard import shard_kind

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            shards=args.shards,
            max_sessions=args.max_sessions,
            max_chunk_steps=args.max_chunk,
            queue_depth=args.queue_depth,
            metrics_port=args.metrics_port,
            stats_interval=args.stats_interval,
            slow_ms=args.slow_ms,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    async def _run() -> None:
        import contextlib
        import signal

        server = StreamServer(config)
        await server.start(listen=not args.stdin)
        # SIGTERM (what a process manager sends) drains as gracefully
        # as Ctrl-C; SIGINT keeps its KeyboardInterrupt path.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        try:
            if args.stdin:
                print("serving on stdin/stdout "
                      f"({config.shards} shard(s))", file=sys.stderr)
                stdin_task = asyncio.ensure_future(server.serve_stdin())
                stop_task = asyncio.ensure_future(stop.wait())
                done, pending = await asyncio.wait(
                    {stdin_task, stop_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                for task in pending:
                    task.cancel()
                for task in done:
                    task.result()  # surface stdin-loop errors
            else:
                host, port = server.address
                print(f"serving on {host}:{port} "
                      f"({config.shards} {shard_kind(config.shards)} "
                      f"shard(s))", file=sys.stderr)
                if server.metrics_address is not None:
                    mhost, mport = server.metrics_address
                    print(f"metrics on http://{mhost}:{mport}/metrics",
                          file=sys.stderr)
                await stop.wait()  # until SIGTERM or KeyboardInterrupt
        finally:
            await server.stop()
            print(server.pool.metrics.format_report(), file=sys.stderr)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_serve_stats(args) -> int:
    import urllib.error
    import urllib.request

    from repro.obs.catalog import CORE_SAMPLES
    from repro.obs.expo import parse_exposition

    path = "/metrics.json" if args.json else "/metrics"
    url = f"http://{args.host}:{args.metrics_port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as resp:
            body = resp.read().decode("utf-8")
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        print(f"scrape failed: {url}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        # Round-trip through json to fail loudly on a bad body.
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            print(f"bad JSON from {url}: {exc}", file=sys.stderr)
            return 1
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0
    if args.check:
        try:
            series = parse_exposition(body)
        except ValueError as exc:
            print(f"exposition does not parse: {exc}", file=sys.stderr)
            return 1
        missing = [name for name in CORE_SAMPLES if name not in series]
        if missing:
            print("missing core series: " + ", ".join(missing),
                  file=sys.stderr)
            return 1
        print(f"ok: {len(series)} series, all "
              f"{len(CORE_SAMPLES)} core series present")
        return 0
    sys.stdout.write(body)
    return 0


def cmd_serve_bench(args) -> int:
    from repro.serve.loadgen import run_loadgen
    from repro.serve.server import ServeConfig, ServerThread
    from repro.serve.shard import shard_kind

    if args.sessions < 1 or args.steps < 1 or args.chunk < 1:
        print("--sessions, --steps and --chunk must be at least 1",
              file=sys.stderr)
        return 2
    shard_counts = sorted(set(args.shard_counts or [1, 2, 4]))
    if any(s < 1 for s in shard_counts):
        print("--shard-counts entries must be at least 1", file=sys.stderr)
        return 2
    policy_params = (
        {"alpha": args.alpha, "memory": args.memory}
        if args.policy == "rent_or_buy"
        else {"k": args.window}
    )
    from repro.obs.catalog import DRAIN_CYCLE
    from repro.obs.histogram import Histogram
    from repro.serve.client import ServeClient

    rows = []
    payload = []
    for shards in shard_counts:
        config = ServeConfig(
            shards=shards,
            max_sessions=max(4096, args.sessions + 1),
        )
        with ServerThread(config) as (host, port):
            result = run_loadgen(
                host,
                port,
                sessions=args.sessions,
                steps=args.steps,
                chunk=args.chunk,
                width=args.width,
                policy=args.policy,
                policy_params=policy_params,
                clients=args.clients,
                verify=args.verify,
                proto=args.proto,
                pipeline=args.pipeline,
            )
            # Server-side view of the same traffic, over the wire:
            # merged drain-cycle histogram across all shards, plus the
            # per-protocol decode-CPU counters.
            with ServeClient(host, port) as probe:
                telemetry = probe.metrics()
                wire = telemetry["histograms"]
                decode = {
                    proto: series["decode_s"]
                    for proto, series in
                    telemetry["metrics"]["engine"]["wire"].items()
                }
                stream = telemetry["metrics"]["engine"]["stream"]
        drain = Histogram.from_wire_aggregate(
            wire.get(DRAIN_CYCLE.name)
        )
        lat = result.latency
        ms = 1e3
        decode_ms = sum(decode.values()) * ms
        rows.append([
            shards,
            shard_kind(shards),
            result.proto,
            result.sessions,
            result.steps,
            round(result.wall_s, 2),
            f"{result.steps_per_s:,.0f}",
            f"{stream['fused_fraction']:.1%}",
            f"{result.frames_per_s:,.0f}",
            f"{result.bytes_out:,}",
            f"{decode_ms:.1f}",
            f"{lat.p50 * ms:.1f} / {lat.p95 * ms:.1f} / {lat.p99 * ms:.1f}",
            f"{drain.p50 * ms:.1f} / {drain.p95 * ms:.1f} "
            f"/ {drain.p99 * ms:.1f}",
            "yes" if result.verified else "-",
        ])
        payload.append({
            "shards": shards,
            "kind": shard_kind(shards),
            "proto": result.proto,
            "pipeline": args.pipeline,
            "sessions": result.sessions,
            "steps": result.steps,
            "wall_s": result.wall_s,
            "steps_per_s": result.steps_per_s,
            "fused_sessions": stream["fused_sessions"],
            "fused_fallback": stream["fused_fallback"],
            "fused_fraction": stream["fused_fraction"],
            "replay_epochs": stream["replay_epochs"],
            "replay_triggers": stream["replay_triggers"],
            # Requests/s, under the artifact key older rows use.
            "frames_per_s": result.frames_per_s,
            "bytes_out": result.bytes_out,
            "bytes_in": result.bytes_in,
            "decode_s": decode,
            "client_latency": lat.snapshot(),
            "server_drain": drain.snapshot(),
            "verified": result.verified,
        })
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0
    print(format_table(
        ["shards", "kind", "proto", "sessions", "steps", "wall s", "steps/s",
         "fused %", "requests/s", "req bytes", "decode ms",
         "client p50/p95/p99 ms", "drain p50/p95/p99 ms", "verified"],
        rows,
        title=f"serve-bench: loopback, "
              f"{args.clients} client(s), chunk={args.chunk}, "
              f"policy={args.policy}",
    ))
    return 0


def cmd_solvers(_args) -> int:
    print(format_table(
        ["solver", "kind", "exact", "cost model", "tags"],
        default_registry().describe(),
        title="registered solvers",
    ))
    return 0


def cmd_portfolio(args) -> int:
    from pathlib import Path

    from repro.portfolio import PortfolioState

    path = Path(args.ledger)
    if not path.exists():
        print(f"no ledger at {path}", file=sys.stderr)
        return 2
    try:
        state = PortfolioState.load(path)
    except ValueError as exc:
        print(f"bad ledger {path}: {exc}", file=sys.stderr)
        return 2

    if args.action == "inspect":
        totals = state.model.solver_totals()
        buckets = list(state.model.representatives())
        records = sum(t["runs"] for t in totals.values())

        def mean_cost(t):
            successes = t["runs"] - t["failures"]
            return t["cost"] / successes if successes else None

        if args.json:
            payload = {
                "ledger": str(path),
                "records": records,
                "buckets": buckets,
                "solvers": {
                    name: {
                        "runs": t["runs"],
                        "failures": t["failures"],
                        "mean_runtime_s": t["runtime_s"] / t["runs"],
                        "mean_cost": mean_cost(t),
                    }
                    for name, t in totals.items()
                },
            }
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            print()
            return 0
        rows = []
        for name, t in totals.items():
            cost = mean_cost(t)
            rows.append([
                name,
                t["runs"],
                t["failures"],
                f"{t['runtime_s'] / t['runs'] * 1e3:.1f} ms",
                f"{cost:.1f}" if cost is not None else "-",
            ])
        print(format_table(
            ["solver", "runs", "failures", "mean runtime", "mean cost"],
            rows,
            title=f"portfolio state {path}: {records} runs, "
                  f"{len(buckets)} feature bucket(s)",
        ))
        return 0

    if args.action == "model":
        snapshot = state.model.snapshot()
        if args.json:
            json.dump(snapshot, sys.stdout, indent=2, sort_keys=True)
            print()
            return 0
        rows = [
            [
                bucket,
                solver,
                arm["runs"],
                arm["failures"],
                (f"{arm['runtime_p50_s'] * 1e3:.1f} ms"
                 if arm["runtime_p50_s"] is not None else "-"),
                (f"{arm['cost_p50']:.1f}"
                 if arm["cost_p50"] is not None else "-"),
            ]
            for bucket, solvers in sorted(snapshot.items())
            for solver, arm in sorted(solvers.items())
        ]
        print(format_table(
            ["bucket", "solver", "runs", "failures", "runtime p50",
             "cost p50"],
            rows,
            title=f"portfolio model from {path}",
        ))
        return 0

    # replay: re-run the decision offline for every feature bucket the
    # state has seen, with the model it holds.  Strategies are
    # deterministic, so the replay reproduces the live choices.
    from repro.portfolio import make_strategy, portfolio_candidates

    try:
        strategy = make_strategy(args.strategy)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    candidates = portfolio_candidates(default_registry())
    decisions = []
    for bucket, features in state.model.representatives().items():
        decision = strategy.decide(state.model, features, candidates)
        decisions.append((bucket, decision))
    if args.json:
        payload = [
            {
                "bucket": bucket,
                "strategy": d.strategy,
                "chosen": d.chosen[0] if d.chosen else None,
                "ranking": list(d.chosen),
                "mode": d.mode,
                "reason": d.reason,
            }
            for bucket, d in decisions
        ]
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    rows = [
        [
            bucket,
            d.chosen[0] if d.chosen else "-",
            d.mode,
            d.reason,
        ]
        for bucket, d in decisions
    ]
    print(format_table(
        ["bucket", "choice", "mode", "reason"],
        rows,
        title=f"offline replay: strategy={args.strategy}",
    ))
    return 0


def cmd_experiment(args) -> int:
    from repro.solvers.mt_genetic import GAParams

    params = (
        GAParams(population_size=32, generations=120, stall_generations=40)
        if args.fast
        else None
    )
    exp = run_counter_experiment(ga_params=params, seed=args.seed)
    print(counter_cost_table(exp))
    print()
    print(paper_comparison_table(exp))
    if args.figures:
        print()
        print(render_fig2(exp))
        print()
        print(render_fig3(exp))
    if args.archive:
        from repro.analysis.export import dump_experiment

        path = dump_experiment(exp, args.archive)
        print(f"\narchived run to {path}")
    return 0


def _find_benchmarks_dir():
    """Locate the benchmark harness: the cwd first, then the checkout
    this package was imported from (site installs do not ship it)."""
    import pathlib

    candidates = [
        pathlib.Path.cwd() / "benchmarks",
        pathlib.Path(__file__).resolve().parents[2] / "benchmarks",
    ]
    for candidate in candidates:
        if (candidate / "conftest.py").is_file():
            return candidate
    return None


def cmd_bench(args) -> int:
    import importlib.util
    import os
    import pathlib
    import subprocess

    if importlib.util.find_spec("pytest") is None:
        print(
            "repro bench needs pytest (install the '[test]' extra)",
            file=sys.stderr,
        )
        return 2
    bench_dir = _find_benchmarks_dir()
    if bench_dir is None:
        print(
            "benchmarks/ not found: run from a repository checkout "
            "(the benchmark harness is not installed with the package)",
            file=sys.stderr,
        )
        return 2
    cmd = [sys.executable, "-m", "pytest", str(bench_dir), "-q", "-s"]
    if not args.full:
        cmd.append("--smoke")
    if args.select:
        cmd.extend(["-k", args.select])
    if args.sessions is not None:
        if args.sessions < 1:
            print("--sessions must be at least 1", file=sys.stderr)
            return 2
        cmd.extend(["--sessions", str(args.sessions)])
    # Child processes must import this same repro tree even when it was
    # never pip-installed (the PYTHONPATH=src workflow).
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1])
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    return subprocess.call(cmd, env=env, cwd=str(bench_dir.parent))


def cmd_stats(args) -> int:
    from repro.analysis.trace_stats import segment_phases

    _program, trace = _trace_app(args)
    seq = trace.requirements
    profile = demand_profile(seq, component_masks())
    print(f"app: {args.app}  n = {trace.n}")
    print(f"mean demand {profile.mean_demand:.2f}, max {profile.max_demand}, "
          f"union {profile.total_union_size}/{profile.universe_size}")
    period = detect_period(seq, skip=trace.n // 4)
    print(f"period after warm-up: {period}")
    segments = segment_phases(seq, drift_threshold=args.drift)
    rows = [
        [s.start, s.stop, s.length, bin(s.working_set_mask).count("1")]
        for s in segments
    ]
    print(format_table(
        ["start", "stop", "len", "|working set|"],
        rows,
        title=f"phase segmentation (drift threshold {args.drift})",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-task hyperreconfigurable architectures (IPPS 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("app", choices=sorted(APPS))
    common.add_argument(
        "--semantics", choices=["delta", "written"], default="delta"
    )
    common.add_argument(
        "--naive", action="store_true",
        help="use the naive (non-holding) compiler mapping",
    )

    p_trace = sub.add_parser(
        "trace", parents=[common], help="simulate an app and dump its trace"
    )
    p_trace.add_argument("--json", action="store_true")
    p_trace.set_defaults(func=cmd_trace)

    p_solve = sub.add_parser(
        "solve", parents=[common], help="trace an app and solve scheduling"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_batch = sub.add_parser(
        "batch",
        help="solve a mixed app workload through the batch engine",
    )
    p_batch.add_argument(
        "apps", nargs="*", metavar="app",
        help=f"apps to trace and solve (default: all of {sorted(APPS)})",
    )
    p_batch.add_argument(
        "--solver", default="mt_greedy",
        help="registry name of the multi-task solver (default: mt_greedy)",
    )
    p_batch.add_argument("--workers", type=int, default=1)
    p_batch.add_argument(
        "--repeat", type=int, default=2,
        help="duplicate the workload N times (exercises the result cache)",
    )
    p_batch.add_argument("--cache-size", type=int, default=1024)
    p_batch.add_argument(
        "--timeout", type=float, default=None,
        help="per-request solve budget in seconds",
    )
    p_batch.add_argument(
        "--naive", action="store_true",
        help="use the naive (non-holding) compiler mapping",
    )
    p_batch.add_argument("--json", action="store_true")
    p_batch.add_argument(
        "--anneal-restarts", type=int, default=1, metavar="N",
        help="annealing solvers: independent restarts per solve",
    )
    p_batch.add_argument(
        "--anneal-restart-workers", type=int, default=1, metavar="K",
        help="annealing solvers: processes the restarts fan across "
             "(bit-identical to sequential)",
    )
    p_batch.add_argument(
        "--ledger", metavar="PATH",
        help="portfolio state file: load the learned arms before "
             "solving, save them after (created if missing)",
    )
    p_batch.set_defaults(func=cmd_batch)

    p_stream = sub.add_parser(
        "stream",
        help="replay app traces as live requirement streams (StreamHub)",
    )
    p_stream.add_argument(
        "apps", nargs="*", metavar="app",
        help=f"apps to trace and stream (default: all of {sorted(APPS)})",
    )
    p_stream.add_argument(
        "--policy", choices=["rent_or_buy", "window"], default="rent_or_buy",
    )
    p_stream.add_argument(
        "--alpha", type=float, default=1.0,
        help="rent-or-buy regret factor (threshold alpha·w)",
    )
    p_stream.add_argument(
        "--memory", type=int, default=4,
        help="rent-or-buy working-set estimate: union of the last "
             "MEMORY requirements",
    )
    p_stream.add_argument(
        "-k", "--window", type=int, default=8,
        help="window policy cadence",
    )
    p_stream.add_argument(
        "--w", type=float, default=None,
        help="hyperreconfiguration cost (default: universe size)",
    )
    p_stream.add_argument(
        "--sessions", type=int, default=4,
        help="concurrent sessions per app",
    )
    p_stream.add_argument(
        "--repeat", type=int, default=1,
        help="feed each trace N times per session",
    )
    p_stream.add_argument(
        "--chunk", type=int, default=256,
        help="requirements per feed_many chunk",
    )
    p_stream.add_argument(
        "--scalar", action="store_true",
        help="force the scalar cursor path (throughput baseline)",
    )
    p_stream.add_argument(
        "--shards", type=int, default=1,
        help="hub shards the sessions hash-partition across "
             "(1 runs in-process, more run one process each)",
    )
    p_stream.add_argument(
        "--naive", action="store_true",
        help="use the naive (non-holding) compiler mapping",
    )
    p_stream.add_argument("--json", action="store_true")
    p_stream.set_defaults(func=cmd_stream)

    p_serve = sub.add_parser(
        "serve",
        help="run the streaming scheduler as a network service "
             "(framed JSON over TCP or stdin)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7411,
        help="TCP port (0 picks an ephemeral one)",
    )
    p_serve.add_argument(
        "--shards", type=int, default=1,
        help="hub shards the sessions hash-partition across "
             "(1 runs in-process, more run one process each)",
    )
    p_serve.add_argument(
        "--max-sessions", type=int, default=4096,
        help="admission control: reject opens past this many live sessions",
    )
    p_serve.add_argument(
        "--max-chunk", type=int, default=65536,
        help="admission control: reject feed chunks beyond this many steps",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=64,
        help="bounded per-shard feed queue (backpressure)",
    )
    p_serve.add_argument(
        "--stdin", action="store_true",
        help="speak the protocol over stdin/stdout instead of TCP",
    )
    p_serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus text at http://HOST:PORT/metrics "
             "(0 picks an ephemeral port; default: off)",
    )
    p_serve.add_argument(
        "--stats-interval", type=float, default=None, metavar="SECONDS",
        help="print a one-line telemetry report to stderr every "
             "SECONDS (default: off)",
    )
    p_serve.add_argument(
        "--slow-ms", type=float, default=100.0, metavar="MS",
        help="slow-request log threshold in milliseconds "
             "(0 disables; default: 100)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_sstats = sub.add_parser(
        "serve-stats",
        help="scrape a running server's /metrics endpoint",
    )
    p_sstats.add_argument("--host", default="127.0.0.1")
    p_sstats.add_argument(
        "--metrics-port", type=int, required=True, metavar="PORT",
        help="metrics port of the target server (its --metrics-port)",
    )
    p_sstats.add_argument(
        "--timeout", type=float, default=10.0,
        help="HTTP timeout in seconds",
    )
    p_sstats.add_argument(
        "--json", action="store_true",
        help="fetch /metrics.json instead of the text exposition",
    )
    p_sstats.add_argument(
        "--check", action="store_true",
        help="parse the exposition and require the core series and "
             "a HELP line per family (nonzero exit when any is missing)",
    )
    p_sstats.set_defaults(func=cmd_serve_stats)

    p_sbench = sub.add_parser(
        "serve-bench",
        help="loopback load generator against the serving layer",
    )
    p_sbench.add_argument(
        "--sessions", type=int, default=64,
        help="concurrent sessions in the fleet",
    )
    p_sbench.add_argument(
        "--steps", type=int, default=2000,
        help="requirements per session",
    )
    p_sbench.add_argument("--chunk", type=int, default=256)
    p_sbench.add_argument(
        "--width", type=int, default=96,
        help="switch universe size of the synthetic workload",
    )
    p_sbench.add_argument(
        "--clients", type=int, default=4,
        help="concurrent client connections",
    )
    p_sbench.add_argument(
        "--shard-counts", type=int, nargs="*", metavar="N",
        help="shard counts to sweep (default: 1 2 4; 1 runs in-process, "
             "more run one process each)",
    )
    p_sbench.add_argument(
        "--policy", choices=["rent_or_buy", "window"], default="rent_or_buy",
    )
    p_sbench.add_argument("--alpha", type=float, default=1.0)
    p_sbench.add_argument("--memory", type=int, default=4)
    p_sbench.add_argument("-k", "--window", type=int, default=8)
    p_sbench.add_argument(
        "--verify", action="store_true",
        help="check each served cost against a single-hub replay, a "
             "scalar session (exact) and the offline evaluator (1e-6)",
    )
    p_sbench.add_argument(
        "--proto", choices=["json", "bin"], default="bin",
        help="client wire protocol (default: bin, binary v3 feed frames)",
    )
    p_sbench.add_argument(
        "--pipeline", action="store_true",
        help="pipeline each fleet round as one multi-frame burst per "
             "client connection",
    )
    p_sbench.add_argument("--json", action="store_true")
    p_sbench.set_defaults(func=cmd_serve_bench)

    p_solvers = sub.add_parser(
        "solvers", help="list the registered solver zoo"
    )
    p_solvers.set_defaults(func=cmd_solvers)

    p_portfolio = sub.add_parser(
        "portfolio",
        help="inspect a saved portfolio state, dump its learned model, "
             "or replay decisions offline",
    )
    p_portfolio.add_argument(
        "action", choices=["inspect", "model", "replay"],
        help="inspect: per-solver run summary; model: learned "
             "per-bucket predictions; replay: re-run the decision for "
             "every seen feature bucket",
    )
    p_portfolio.add_argument(
        "--ledger", metavar="PATH", required=True,
        help="state JSON written by `repro batch --ledger` or "
             "PortfolioState.save()",
    )
    p_portfolio.add_argument(
        "--strategy", default="best",
        help="replay strategy spec: best[:tol] | "
             "race[:budget][,k=K][,restarts=R]",
    )
    p_portfolio.add_argument("--json", action="store_true")
    p_portfolio.set_defaults(func=cmd_portfolio)

    p_exp = sub.add_parser(
        "experiment", help="run the full paper reproduction"
    )
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--fast", action="store_true")
    p_exp.add_argument("--figures", action="store_true")
    p_exp.add_argument(
        "--archive", metavar="PATH", default=None,
        help="write a JSON archive of the run",
    )
    p_exp.set_defaults(func=cmd_experiment)

    p_stats = sub.add_parser(
        "stats", parents=[common], help="trace statistics and phase structure"
    )
    p_stats.add_argument("--drift", type=float, default=0.5)
    p_stats.set_defaults(func=cmd_stats)

    p_bench = sub.add_parser(
        "bench",
        help="run the benchmark smoke suite and print the speedup tables",
    )
    p_bench.add_argument(
        "--full", action="store_true",
        help="full-size benchmarks instead of the reduced smoke mode",
    )
    p_bench.add_argument(
        "-k", "--select", default=None, metavar="EXPR",
        help="pytest -k expression (e.g. 'e14 or e15' for the speedup "
             "benches only)",
    )
    p_bench.add_argument(
        "--sessions", type=int, default=None, metavar="N",
        help="extend the streaming/serving session axis to N concurrent "
             "sessions (E16/E17 hub and shard tables)",
    )
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
