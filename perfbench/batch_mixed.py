"""batch_mixed: waves of solve requests through ``BatchEngine``.

Each wave is one ``solve_batch`` call of 24 requests on
``BatchEngine(workers=2, cache_size=4096)``: 16 fresh requests and 8
repeats of earlier ones (the first wave repeats its own).  The fresh
requests mix m=3 multi-task instances for ``mt_greedy``, seeded
``mt_annealing``, seeded ``mt_genetic`` and ``portfolio`` with
``single_dp`` singles.  No streaming code runs: misses exercise pool
fan-out, packed compiles, the solvers and portfolio decisions, and
in-wave repeats the cache hit path.

A run is a sequence of identical passes for ``seconds`` of wall time.
Every pass starts from a fresh engine and an explicit empty
``PortfolioState`` (also made the process default, so forked workers
decide from it) and runs ``WAVES`` waves.  Every returned schedule is
re-evaluated with the scalar cost functions (``repro.core.sync_cost`` /
``repro.core.cost_single``).  Rates and wave latencies are taken at
the speed of the faster half of single waves (``common.quiet_blocks``),
each wave compared with its own median across passes, since waves
differ in work.

Set-up is engine and state construction in a fresh interpreter — the
module imports and registry build that construction pulls in
included — timed ``SETUPS`` times after one untimed warm-up and
reported as the median.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

import inputs
import layers
from common import (
    Outcome, median, percentiles, quiet_blocks, self_peak_rss_mb,
)
from spans import SpanTracer

WORKERS = 2
CACHE_SIZE = 4096
WAVES = 16
REPEATS = 8
SETUPS = 9
#: Share of single waves ``quiet_blocks`` keeps.  A wave's time also
#: depends on how its requests split over the two workers, so the
#: quietest tenth of waves picks lucky splits; the faster half still
#: discounts a slowed half of the run.
QUIET_SHARE = 0.5
#: m=3 multi-task instances: 3 tasks x 6 local switches, 16 steps.
TASKS, SWITCHES_PER_TASK, MULTI_STEPS = 3, 6, 16
#: portfolio requests get smaller instances (3 x 4 switches, 6 steps)
#: on which both candidates are fast, so which one the learned state
#: picks barely changes the work a wave does.
PORTFOLIO_SWITCHES, PORTFOLIO_STEPS = 4, 6
PORTFOLIO_CANDIDATES = ("mt_exact", "mt_greedy")
#: single-task requests: 16-switch universe, 128 steps, w = 8.
SINGLE_WIDTH, SINGLE_STEPS, SINGLE_W = 16, 128, 8.0
#: fresh requests per wave, by solver.  One portfolio request per
#: wave: a forked worker learns from its own portfolio solves, so two
#: in one wave could decide differently depending on which worker
#: took which chunk.
MIX = (
    ("mt_greedy", 4),
    ("mt_annealing", 3),
    ("mt_genetic", 3),
    ("portfolio", 1),
    ("single_dp", 5),
)
_SETUP_CODE = """
import time
t0 = time.perf_counter()
from repro.engine.batch import BatchEngine
from repro.portfolio import PortfolioState
BatchEngine(workers={workers}, cache_size={cache}, portfolio_state=PortfolioState())
print(time.perf_counter() - t0)
"""


def _params(solver: str, seed: int) -> dict:
    from repro.solvers.mt_annealing import AnnealParams
    from repro.solvers.mt_genetic import GAParams

    if solver == "mt_annealing":
        return {"seed": seed, "params": AnnealParams(iterations=2000)}
    if solver == "mt_genetic":
        return {"seed": seed, "params": GAParams(
            population_size=32, generations=60, stall_generations=60,
        )}
    if solver == "portfolio":
        return {"seed": seed, "candidates": PORTFOLIO_CANDIDATES}
    return {}


def make_waves(seed: int) -> list[list]:
    """``WAVES`` shuffled waves of fresh requests plus repeats."""
    from repro.analysis.sweeps import make_instance
    from repro.analysis.workloads import phased_workload
    from repro.core.switches import SwitchUniverse
    from repro.engine.requests import SolveRequest

    rng = np.random.default_rng([seed, 0xBA7C])
    universe = SwitchUniverse.of_size(SINGLE_WIDTH)
    fresh_so_far: list = []
    waves = []
    for _wave in range(WAVES):
        fresh = []
        for solver, count in MIX:
            for _ in range(count):
                inst = int(rng.integers(2**31))
                if solver == "single_dp":
                    seq = phased_workload(universe, SINGLE_STEPS, seed=inst)
                    fresh.append(SolveRequest.single(
                        seq, SINGLE_W, solver=solver,
                    ))
                    continue
                small = solver == "portfolio"
                system, seqs = make_instance(
                    TASKS,
                    PORTFOLIO_STEPS if small else MULTI_STEPS,
                    PORTFOLIO_SWITCHES if small else SWITCHES_PER_TASK,
                    seed=inst,
                )
                fresh.append(SolveRequest.multi(
                    system, seqs, None, solver=solver,
                    **_params(solver, int(rng.integers(2**31))),
                ))
        fresh_so_far.extend(fresh)
        picks = rng.choice(len(fresh_so_far), size=REPEATS, replace=False)
        wave = fresh + [fresh_so_far[i] for i in picks]
        waves.append([wave[i] for i in rng.permutation(len(wave))])
    return waves


def _steps(request) -> int:
    if request.kind == "single":
        return len(request.seq)
    return sum(len(seq) for seq in request.seqs)


def _cost(request, schedule) -> float:
    """Scalar-oracle cost of ``schedule`` for ``request``."""
    from repro.core.cost_single import switch_cost
    from repro.core.sync_cost import sync_switch_cost

    if request.kind == "single":
        return switch_cost(request.seq, schedule, request.w)
    return sync_switch_cost(
        request.system, request.seqs, schedule, request.model,
    )


def single_context_cost(request) -> float:
    """Cost of the schedule that installs one hypercontext at the start
    and never hyperreconfigures (the ``mean_cost`` reference)."""
    from repro.core.schedule import MultiTaskSchedule, SingleTaskSchedule

    if request.kind == "single":
        return _cost(request, SingleTaskSchedule(
            n=len(request.seq), hyper_steps=(0,),
        ))
    n = len(request.seqs[0])
    return _cost(
        request, MultiTaskSchedule.initial_only(request.system.m, n),
    )


def _verified(result) -> bool:
    """Re-evaluate one returned schedule with the scalar cost oracle."""
    if not result.ok:
        return False
    oracle = _cost(result.request, result.value.schedule)
    return abs(oracle - result.value.cost) <= 1e-9 * max(1.0, abs(oracle))


def _setup_time() -> float:
    code = _SETUP_CODE.format(workers=WORKERS, cache=CACHE_SIZE)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _run_pass(waves, baseline, out: Outcome, tracer=None) -> dict:
    from repro.engine.batch import BatchEngine
    from repro.portfolio import PortfolioState, set_default_state

    state = set_default_state(PortfolioState())
    engine = BatchEngine(
        workers=WORKERS, cache_size=CACHE_SIZE, portfolio_state=state,
    )
    if tracer is not None:
        layers.patch_batch(tracer)
    lat, costs, dispatch = [], [], 0.0
    steps = 0
    try:
        for wave in waves:
            t0 = time.perf_counter()
            results = engine.solve_batch(wave)
            wall = time.perf_counter() - t0
            lat.append(wall)
            solved = [r.elapsed for r in results if not r.cached]
            if solved:
                dispatch += wall - sum(solved) / min(WORKERS, len(solved))
            for result in results:
                ok = _verified(result)
                out.attempt("solve", ok)
                if ok:
                    costs.append(
                        result.value.cost / baseline[id(result.request)]
                    )
            steps += sum(_steps(r) for r in wave)
    finally:
        if tracer is not None:
            tracer.restore()
    snap = engine.metrics.snapshot()
    hist = snap["histograms"]
    solve_s = {
        s["labels"]["solver"]: s["total"]
        for s in hist["solve_latency_seconds"]["series"]
    }
    return {
        "traced": tracer is not None,
        "wall_s": sum(lat),
        "latencies": lat,
        "requests": sum(len(w) for w in waves),
        "steps": steps,
        "mean_cost": float(np.mean(costs)) if costs else 0.0,
        "hit_rate": engine.cache.stats.hit_rate,
        "dispatch_s": dispatch,
        "compiles": snap["packed"]["compiles"],
        "reuses": snap["packed"]["reuses"],
        "shipped_bytes": snap["packed"]["bytes_shipped"],
        "shared_bytes": snap["packed"]["bytes_shared"],
        "solve_s": solve_s,
        "decision_s": hist["portfolio_decision_seconds"]["total"],
        "races": snap["portfolio"]["races"],
        "explores": snap["portfolio"]["explores"],
        "decisions": snap["portfolio"]["decisions"],
    }


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    waves = make_waves(seed)
    baseline = {
        id(r): single_context_cost(r) for wave in waves for r in wave
    }
    out.record["input_digest"] = inputs.digest(
        *(repr(r) for wave in waves for r in wave)
    )
    _setup_time()  # untimed: warms the page cache for the imports
    setups = [_setup_time() for _ in range(SETUPS)]
    tracer = SpanTracer()
    passes = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(passes) < 2:
        traced = trace and len(passes) % 2 == 1
        p = _run_pass(waves, baseline, out, tracer if traced else None)
        passes.append(p)

    first = passes[0]
    for p in passes[1:]:
        same = all(
            p[key] == first[key]
            for key in ("mean_cost", "hit_rate", "compiles", "decisions")
        )
        out.attempt("pass_repeat", same)
    plain = [p for p in passes if not p["traced"]]
    rates = [p["requests"] / p["wall_s"] for p in plain]
    waves_s, factor = quiet_blocks(
        [p["latencies"] for p in plain], 1, QUIET_SHARE
    )
    out.record.update({
        "passes": len(passes),
        "waves_per_pass": WAVES,
        "pass_rates": rates,
        "quiet_factor": factor,
        "round_samples": len(plain) * WAVES,
        "setup_samples": len(setups),
        "portfolio_decisions_per_pass": first["decisions"],
    })
    if not trace:
        rate = first["requests"] / float(waves_s.sum())
        p50, p95 = percentiles(waves_s, 50, 95)
        out.metrics = {
            "steps_per_s": rate * first["steps"] / first["requests"],
            "round_p50_ms": p50 * 1e3,
            "round_p95_ms": p95 * 1e3,
            # compiled lane payload bytes moved to workers per step
            "wire_bytes_per_step": (
                (first["shipped_bytes"] + first["shared_bytes"])
                / first["steps"]
            ),
            "solves_per_s": rate,
            "mean_cost": first["mean_cost"],
            "setup_s": median(setups),
            "peak_rss_mb": self_peak_rss_mb(children=True),
        }
        return out

    traced_passes = [p for p in passes if p["traced"]]
    n = len(traced_passes)
    rows = tracer.layers()
    wall = sum(p["wall_s"] for p in traced_passes)
    traced_rate = median([p["requests"] / p["wall_s"] for p in traced_passes])

    def per_pass(key):
        return sum(p[key] for p in traced_passes) / n

    def solve_s(name):
        return sum(p["solve_s"].get(name, 0.0) for p in traced_passes) / n

    out.metrics = {
        "engine.requests.canonicalize_s": rows.get(
            "engine.requests.canonicalize", {}
        ).get("total_s", 0.0) / n,
        "engine.cache.hit_rate": first["hit_rate"],
        "engine.batch.dispatch_s": per_pass("dispatch_s"),
        "engine.batch.pool_spawns": rows.get(
            "engine.batch.pool_spawn", {}
        ).get("count", 0) / n,
        "engine.batch.shipped_bytes": first["shipped_bytes"],
        "engine.batch.shared_bytes": first["shared_bytes"],
        "core.packed.compiles": first["compiles"],
        "core.packed.reuses": first["reuses"],
        "solvers.mt_greedy.solve_s": solve_s("mt_greedy"),
        "solvers.mt_annealing.solve_s": solve_s("mt_annealing"),
        "solvers.mt_genetic.solve_s": solve_s("mt_genetic"),
        "solvers.single_dp.solve_s": solve_s("single_dp"),
        "portfolio.decision_s": per_pass("decision_s"),
        "portfolio.races": first["races"],
        "portfolio.explores": first["explores"],
        "obs.trace_overhead_frac": 1.0 - traced_rate / median(rates),
    }
    out.layers, out.traced_wall_s = rows, wall
    out.spans = list(tracer.spans)
    return out
