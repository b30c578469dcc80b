"""E14 (extension) — incremental vs full evaluation of the MT-Switch cost.

The metaheuristics spend almost all their time scoring single-move
perturbations of an indicator matrix.  This bench measures what the
:class:`repro.core.delta.DeltaEvaluator` buys over from-scratch
reference evaluation:

* a replay microbenchmark — one recorded annealing-style move/accept
  trace is replayed through the delta evaluator and through the
  full-evaluation fallback on the same instances
  (n ∈ {100, 200, 400}, m ∈ {4, 8}); the two must agree bit-for-bit
  and the delta path must be ≥10× faster on the n=200, m=8 cell;
* an end-to-end annealing run with ``use_delta`` on vs off under one
  seed — same schedule, same cost, bit-identical;
* the zero-accept safety net — an annealing run whose every proposal
  is a no-op must return its warm start instead of crashing.
"""

import time

from repro.analysis.sweeps import make_instance
from repro.core.delta import make_evaluator
from repro.solvers import mt_annealing
from repro.solvers.mt_annealing import AnnealParams, solve_mt_annealing
from repro.solvers.mt_greedy import solve_mt_greedy_merge
from repro.util.rng import make_rng
from repro.util.texttable import format_table

SWITCHES_PER_TASK = 6
TARGET_CELL = (8, 200)  # the acceptance cell for the ≥10× bar


def _start_rows(m: int, n: int, seed: int) -> list[list[bool]]:
    rng = make_rng(seed)
    return [
        [True] + [bool(x) for x in (rng.random(n - 1) < 0.12)]
        for _ in range(m)
    ]


def _record_trace(system, seqs, rows, m, n, moves, seed):
    """Greedy-accept annealing-style trace: list of (changes, accepted),
    each move the decoded bit changes the annealing loop applies."""
    rng = make_rng(seed)
    params = AnnealParams()
    evaluator = make_evaluator(system, seqs, rows, use_delta=True)
    cost = evaluator.cost
    trace = []
    while len(trace) < moves:
        move = mt_annealing._propose(
            evaluator.rows, m, n, rng.random, rng.integers,
            params.p_flip, params.p_flip + params.p_align,
        )
        if move is None:
            continue
        cand = evaluator.apply_changes(move)
        accept = cand <= cost
        if accept:
            cost = cand
        else:
            evaluator.revert()
        trace.append((move, accept))
    return trace


def _replay(evaluator, trace):
    start = time.perf_counter()
    for move, accept in trace:
        evaluator.apply_changes(move)
        if not accept:
            evaluator.revert()
    return time.perf_counter() - start, evaluator.cost


def test_bench_delta_vs_full_replay(benchmark, smoke):
    sizes = [(4, 100), (4, 200), (4, 400), (8, 100), (8, 200), (8, 400)]
    moves = 600
    min_speedup = 10.0
    if smoke:
        sizes = [(4, 100), TARGET_CELL]
        moves = 120
        min_speedup = 3.0  # timing-noise head room on tiny runs

    rows_out = []
    speedups = {}
    for m, n in sizes:
        system, seqs = make_instance(m, n, SWITCHES_PER_TASK, seed=0)
        start = _start_rows(m, n, seed=1)
        trace = _record_trace(system, seqs, start, m, n, moves, seed=3)

        delta_ev = make_evaluator(system, seqs, start, use_delta=True)
        delta_s, delta_cost = _replay(delta_ev, trace)
        full_ev = make_evaluator(system, seqs, start, use_delta=False)
        full_s, full_cost = _replay(full_ev, trace)

        assert delta_cost == full_cost  # bit-identical, not approximately
        assert delta_ev.rows == full_ev.rows
        speedups[(m, n)] = full_s / delta_s
        rows_out.append([
            m,
            n,
            round(1e6 * full_s / len(trace), 1),
            round(1e6 * delta_s / len(trace), 1),
            f"{full_s / delta_s:.1f}×",
        ])

    def once():
        m, n = TARGET_CELL
        system, seqs = make_instance(m, n, SWITCHES_PER_TASK, seed=0)
        start = _start_rows(m, n, seed=1)
        trace = _record_trace(system, seqs, start, m, n, moves, seed=3)
        return _replay(make_evaluator(system, seqs, start), trace)[0]

    benchmark.pedantic(once, iterations=1, rounds=1)

    print()
    print(format_table(
        ["m", "n", "full µs/eval", "delta µs/eval", "speedup"],
        rows_out,
        title=f"E14: delta vs full evaluation (replayed trace of {moves} moves)",
    ))
    assert speedups[TARGET_CELL] >= min_speedup


def test_bench_annealing_delta_end_to_end(benchmark, smoke):
    m, n = TARGET_CELL
    iterations = 300 if smoke else 3000
    system, seqs = make_instance(m, n, SWITCHES_PER_TASK, seed=0)

    t0 = time.perf_counter()
    fast = solve_mt_annealing(
        system, seqs,
        params=AnnealParams(iterations=iterations, use_delta=True),
        seed=11,
    )
    t1 = time.perf_counter()
    slow = solve_mt_annealing(
        system, seqs,
        params=AnnealParams(iterations=iterations, use_delta=False),
        seed=11,
    )
    t2 = time.perf_counter()

    # The delta engine changes speed, never answers.
    assert fast.cost == slow.cost
    assert fast.schedule == slow.schedule
    assert fast.stats["delta_full_evals"] == 0
    assert slow.stats["delta_applies"] == 0

    def once():
        return solve_mt_annealing(
            system, seqs,
            params=AnnealParams(iterations=iterations, use_delta=True),
            seed=11,
        ).cost

    benchmark.pedantic(once, iterations=1, rounds=1)

    print()
    print(format_table(
        ["evaluation", "wall s", "cost", "delta applies", "full evals"],
        [
            ["incremental (delta)", f"{t1 - t0:.2f}", fast.cost,
             fast.stats["delta_applies"], fast.stats["delta_full_evals"]],
            ["full re-evaluation", f"{t2 - t1:.2f}", slow.cost,
             slow.stats["delta_applies"], slow.stats["delta_full_evals"]],
        ],
        title=f"E14: annealing end-to-end (m={m}, n={n}, {iterations} iterations)",
    ))


def test_bench_zero_accept_returns_warm_start(benchmark, monkeypatch, smoke):
    m, n = (4, 60) if smoke else (4, 120)
    system, seqs = make_instance(m, n, SWITCHES_PER_TASK, seed=2)
    warm = solve_mt_greedy_merge(system, seqs)

    # Every proposal is a no-op: nothing is ever evaluated or accepted.
    monkeypatch.setattr(mt_annealing, "_propose", lambda *a, **k: None)

    def run():
        return solve_mt_annealing(
            system, seqs, params=AnnealParams(iterations=500), seed=0
        )

    result = benchmark.pedantic(run, iterations=1, rounds=1)
    assert result.stats["accepted"] == 0
    assert result.stats["noop_proposals"] == 500
    assert result.cost == warm.cost
    assert result.schedule == warm.schedule
    print()
    print(f"E14: zero-accept run returned its warm start (cost {result.cost})")
