"""Simulated annealing for the fully synchronized MT-Switch problem.

A second metaheuristic besides the paper's GA, useful both as a
cross-check (two independent stochastic searches agreeing on a value is
strong evidence) and because annealing explores *locally* — it tends to
polish a warm start better than the GA's crossover does, while the GA
covers more of the space.  The solver-quality ablation (E4) compares
all three.

Neighborhood moves (picked with fixed probabilities):

* flip — toggle one indicator bit;
* align — copy one step's indicator from one task to all tasks
  (parallel uploads reward alignment);
* shift — move one task's hyperreconfiguration to an adjacent step.

Cost deltas come from :class:`repro.core.delta.DeltaEvaluator`, which
updates only the block(s) a move perturbs — O(affected steps × m)
mask work plus an O(n) float re-sum, instead of a full O(m·n)
re-evaluation per iteration (benchmark E14).  A proposal is drawn
straight as the ``(task, step, new_value)`` bit changes it makes and
handed to the evaluator's ``apply_changes``: no move object is built
and decoded again, and the restart binds its RNG's ``random`` and
``integers`` once, drawing in the same order with the same arguments.
``AnnealParams(use_delta=False)`` switches back to full reference
evaluation per move; both paths are bit-identical for a fixed seed,
and the returned best is always cross-checked against the reference
cost function at exit.

Proposals without an effect (a shift with no legal target, an align on
an already-aligned column) are *no-ops*: they are not evaluated and do
not count as accepted moves — only the temperature advances, so the
proposal stream stays aligned across evaluation back ends.

Restarts are embarrassingly parallel: each restart runs on its own
child RNG derived via :func:`repro.util.rng.spawn_seeds`, so the
trajectory of restart ``r`` depends only on ``(seed, r)`` — fanning the
restarts across processes (``AnnealParams(restart_workers=k)``, the
same :mod:`multiprocessing` pattern as the batch engine) returns
bit-identical results to the sequential loop, just faster.  Per-restart
best costs and acceptance counts are surfaced in the result ``stats``.
"""

from __future__ import annotations

import math
import multiprocessing
from itertools import compress, islice
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.context import RequirementSequence
from repro.core.delta import make_evaluator, merge_evaluator_stats
from repro.core.machine import MachineModel
from repro.core.packed import PackedProblem
from repro.core.schedule import MultiTaskSchedule
from repro.core.sync_cost import sync_switch_cost
from repro.core.task import TaskSystem
from repro.solvers.base import MTSolveResult
from repro.solvers.mt_greedy import solve_mt_greedy_merge
from repro.util.rng import SeedLike, make_rng, spawn_seeds

__all__ = ["AnnealParams", "solve_mt_annealing"]


@dataclass(frozen=True)
class AnnealParams:
    """Annealing schedule, move mix and restart parallelism."""

    iterations: int = 20_000
    t_start: float = 8.0
    t_end: float = 0.05
    p_flip: float = 0.6
    p_align: float = 0.2  # remainder is the shift move
    restarts: int = 1
    restart_workers: int = 1
    seed_with_greedy: bool = True
    use_delta: bool = True

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.t_start <= 0 or self.t_end <= 0 or self.t_end > self.t_start:
            raise ValueError("need t_start ≥ t_end > 0")
        for name, p in (("p_flip", self.p_flip), ("p_align", self.p_align)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if self.p_flip + self.p_align > 1:
            raise ValueError("move probabilities must sum to ≤ 1")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")
        if self.restart_workers < 1:
            raise ValueError("restart_workers must be positive")


def _propose(rows, m, n, random, integers, p_flip, p_align_end):
    """Draw one candidate move as decoded ``(task, step, new_value)``
    bit changes for :meth:`~repro.core.delta.DeltaEvaluator.apply_changes`;
    ``None`` marks a no-op proposal.

    ``rows`` is read, never mutated — the evaluator owns the state.
    ``random`` and ``integers`` are the restart RNG's bound methods.
    The RNG consumption per branch is fixed, so proposal streams are
    reproducible across evaluation back ends.
    """
    u = random()
    if u < p_flip or n == 1:
        # flip: toggle one indicator bit
        j = int(integers(0, m))
        i = int(integers(1, n)) if n > 1 else 0
        if i == 0:
            return None  # step 0 is pinned; nothing to flip on n == 1
        return [(j, i, not rows[j][i])]
    if u < p_align_end:
        # align: copy one task's indicator at a step to every task
        i = int(integers(1, n))
        j = int(integers(0, m))
        value = rows[j][i]
        changes = [(k, i, value) for k in range(m) if rows[k][i] != value]
        return changes or None  # None: column already aligned
    # shift: move one hyper of one task by ±1
    j = int(integers(0, m))
    row = rows[j]
    hypers = list(compress(range(1, n), islice(row, 1, None)))
    if not hypers:
        return None
    i = hypers[int(integers(0, len(hypers)))]
    target = i + 1 if random() < 0.5 else i - 1
    if target < 1 or target >= n or row[target]:
        return None
    return [(j, i, False), (j, target, True)]


def _start_rows(system, seqs, model, params, m, n, rng, restart):
    """Deterministic start state of one restart (greedy for restart 0)."""
    if params.seed_with_greedy and restart == 0:
        start = solve_mt_greedy_merge(system, seqs, model).schedule
        return [list(r) for r in start.indicators]
    return [
        [True] + [bool(rng.random() < 0.15) for _ in range(n - 1)]
        for _ in range(m)
    ]


def _run_restart(
    system,
    seqs,
    model,
    params,
    rng,
    restart,
    *,
    packed=None,
    evaluator=None,
):
    """One full annealing trajectory; returns per-restart outcome.

    The trajectory depends only on the restart's ``rng``, never on
    sibling restarts — the invariant that makes the process fan-out
    bit-identical to the sequential loop.
    """
    m = system.m
    n = len(seqs[0])
    rows = _start_rows(system, seqs, model, params, m, n, rng, restart)
    if evaluator is None:
        evaluator = make_evaluator(
            system, seqs, rows, model, use_delta=params.use_delta, packed=packed
        )
    else:
        evaluator.reset(rows)
    cost = evaluator.cost
    # Seed the incumbent from the start state: a restart that never
    # accepts a move must still return its warm start, and the solver
    # can never come back worse than where it began.
    best_cost = cost
    best_rows = [list(r) for r in evaluator.rows]
    accepted = 0
    noops = 0
    cooling = (params.t_end / params.t_start) ** (
        1.0 / max(1, params.iterations - 1)
    )
    temperature = params.t_start
    # ``apply_changes`` and ``revert`` edit the evaluator's rows in
    # place, so one binding serves the whole trajectory.
    rows = evaluator.rows
    random, integers = rng.random, rng.integers
    apply, revert = evaluator.apply_changes, evaluator.revert
    p_flip = params.p_flip
    p_align_end = params.p_flip + params.p_align
    exp = math.exp
    for _ in range(params.iterations):
        changes = _propose(rows, m, n, random, integers, p_flip, p_align_end)
        if changes is None:
            noops += 1
            temperature *= cooling
            continue
        cand = apply(changes)
        delta = cand - cost
        if delta <= 0 or random() < exp(-delta / temperature):
            cost = cand
            accepted += 1
            if cost < best_cost:
                best_cost = cost
                best_rows = [list(r) for r in rows]
        else:
            revert()
        temperature *= cooling
    return best_rows, best_cost, accepted, noops, evaluator


def _restart_worker(payload):
    """Process-pool entry: run one restart from its child seed."""
    system, seqs, model, params, child_seed, restart, packed = payload
    best_rows, best_cost, accepted, noops, evaluator = _run_restart(
        system, seqs, model, params, make_rng(child_seed), restart,
        packed=packed,
    )
    return restart, best_rows, best_cost, accepted, noops, evaluator.stats


def _merge_delta_stats(per_restart: Sequence[dict]) -> dict:
    """Sum evaluator counters across restarts; re-derive the hit rate."""
    out: dict = {}
    for key in (
        "delta_applies",
        "delta_full_evals",
        "delta_noops",
        "delta_reverts",
        "delta_resets",
        "delta_steps_recomputed",
    ):
        out[key] = sum(int(s.get(key, 0)) for s in per_restart)
    denom = out["delta_applies"] + out["delta_full_evals"]
    out["delta_hit_rate"] = (out["delta_applies"] / denom) if denom else 1.0
    return out


def solve_mt_annealing(
    system: TaskSystem,
    seqs: Sequence[RequirementSequence],
    model: MachineModel | None = None,
    params: AnnealParams | None = None,
    seed: SeedLike = 0,
    *,
    packed: PackedProblem | None = None,
) -> MTSolveResult:
    """Simulated annealing with geometric cooling and optional restarts.

    Restarts draw independent child RNGs from ``seed`` (via
    :func:`~repro.util.rng.spawn_seeds`), so results are identical for
    any ``restart_workers`` setting — the worker pool only changes wall
    time.  ``packed`` optionally reuses an already-compiled
    :class:`~repro.core.packed.PackedProblem` for the evaluator.
    """
    if model is None:
        model = MachineModel.paper_experimental()
    if not model.machine_class.allows_partial_hyper:
        raise ValueError(
            "annealing mutates per-task rows; use the merged single-task "
            "solver for partially reconfigurable machines"
        )
    params = params or AnnealParams()
    m = system.m
    n = len(seqs[0])
    if any(len(s) != n for s in seqs):
        raise ValueError("sequences must have equal length")
    if n == 0:
        schedule = MultiTaskSchedule([[] for _ in range(m)])
        return MTSolveResult(schedule, 0.0, True, "mt_annealing", {})

    child_seeds = spawn_seeds(seed, params.restarts)
    workers = min(params.restart_workers, params.restarts)
    if workers > 1 and multiprocessing.current_process().daemon:
        # Already inside a process pool (e.g. a multi-worker
        # BatchEngine): daemonic processes cannot spawn children, so
        # run the restarts sequentially — same results, same stats.
        workers = 1
    outcomes: list[tuple] = [None] * params.restarts  # type: ignore[list-item]
    if workers > 1:
        payloads = [
            (system, list(seqs), model, params, child_seeds[r], r, packed)
            for r in range(params.restarts)
        ]
        with multiprocessing.Pool(processes=workers) as pool:
            for out in pool.imap_unordered(_restart_worker, payloads):
                outcomes[out[0]] = out[1:]
        evaluator_stats = _merge_delta_stats([o[4] for o in outcomes])
    else:
        evaluator = None
        for r in range(params.restarts):
            best_rows, best_cost, accepted, noops, evaluator = _run_restart(
                system,
                seqs,
                model,
                params,
                make_rng(child_seeds[r]),
                r,
                packed=packed,
                evaluator=evaluator,
            )
            outcomes[r] = (best_rows, best_cost, accepted, noops, None)
        evaluator_stats = evaluator.stats

    best_rows = None
    best_cost = float("inf")
    for rows, cost, _accepted, _noops, _stats in outcomes:
        if cost < best_cost:
            best_cost = cost
            best_rows = rows
    schedule = MultiTaskSchedule(best_rows)
    check = sync_switch_cost(system, seqs, schedule, model)
    if abs(check - best_cost) > 1e-9:  # pragma: no cover - internal invariant
        raise AssertionError("annealing cost bookkeeping drifted")
    stats = {
        "accepted": sum(o[2] for o in outcomes),
        "noop_proposals": sum(o[3] for o in outcomes),
        "restarts": params.restarts,
        "restart_workers": workers,
        "restart_costs": [o[1] for o in outcomes],
        "restart_accepted": [o[2] for o in outcomes],
    }
    merge_evaluator_stats(stats, evaluator_stats)
    return MTSolveResult(
        schedule=schedule,
        cost=check,
        optimal=False,
        solver="mt_annealing",
        stats=stats,
    )
