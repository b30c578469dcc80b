"""The ``portfolio`` meta-solver: decide, run, verify, learn.

:func:`solve_mt_portfolio` is the registry entry point behind the
``portfolio`` solver name.  One call

1. extracts :class:`~repro.portfolio.features.WorkloadFeatures`;
2. asks the configured (deterministic) strategy for a
   :class:`Decision` over the candidate solvers; the seed handed to
   stochastic solvers is drawn from a generator seeded by ``(seed,
   decision index)``, so decision sequences are bit-reproducible;
3. executes the decision — ``pick`` walks the ranking front to back,
   ``race`` runs the top-k under a wall-clock budget (parallel via a
   throwaway :class:`~repro.engine.batch.BatchEngine` where the
   platform allows, sequential with early exit inside daemonic
   multiprocessing workers) with capped budget-doubling restarts;
4. re-verifies the winning schedule against the scalar
   :func:`~repro.core.sync_cost.sync_switch_cost` oracle — an answer
   that does not verify is treated as a *failure* of that solver and
   the ranking moves on, so the portfolio never returns an unverified
   answer;
5. folds one :class:`~repro.portfolio.records.RunRecord` per attempt
   (winners, losers, timeouts, oracle mismatches) into the
   process-local :class:`PortfolioState`'s model *and* ships the same
   records in the result's ``stats["portfolio"]["records"]`` — the
   batch engine folds them into the parent state when the solve ran in
   a worker process.

The learned state is process-wide (:func:`default_state`), mirroring
:func:`~repro.engine.registry.default_registry`; tests swap it with
:func:`set_default_state` / :func:`reset_default_state`.  What it
persists is the model's arms (:meth:`PortfolioState.save`), so a saved
state stays bounded by buckets × solvers however long it learns.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.sync_cost import sync_switch_cost
from repro.portfolio.features import FEATURE_PREFIX_STEPS, multi_features
from repro.portfolio.model import PortfolioModel
from repro.portfolio.records import RunRecord
from repro.portfolio.strategy import Decision, Strategy, make_strategy
from repro.solvers.base import MTSolveResult

__all__ = [
    "PortfolioState",
    "default_state",
    "portfolio_candidates",
    "reset_default_state",
    "set_default_state",
    "solve_mt_portfolio",
]

#: Relative tolerance of the oracle check (costs are computed by the
#: same float formulas on both sides, so real answers match exactly;
#: the epsilon only absorbs benign summation-order noise).
ORACLE_RTOL = 1e-6

#: Format of :meth:`PortfolioState.save` files (1 was the run ledger).
STATE_VERSION = 2


class PortfolioState:
    """Model + decision counter, shared across requests.

    :meth:`save` writes the model's arms (version 2); :meth:`load`
    reads version 2, and version 1 run-ledger files by folding their
    rows into the arms.  A restarted process resumes with identical
    predictions either way.
    """

    def __init__(self, model: PortfolioModel | None = None):
        self.model = model if model is not None else PortfolioModel()
        self._lock = threading.Lock()
        self._decisions = 0

    def next_decision_index(self) -> int:
        with self._lock:
            index = self._decisions
            self._decisions += 1
            return index

    @property
    def decisions(self) -> int:
        with self._lock:
            return self._decisions

    def record(self, record: RunRecord) -> None:
        """Fold one observed run into the live model."""
        self.model.observe(record)

    def absorb(self, rows) -> int:
        """Fold record dicts (from a worker result's stats) in; returns
        how many rows were added."""
        count = 0
        for row in rows:
            self.record(RunRecord.from_dict(row))
            count += 1
        return count

    def save(self, path) -> Path:
        path = Path(path)
        wire = {"version": STATE_VERSION, **self.model.to_wire()}
        path.write_text(json.dumps(wire, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path) -> "PortfolioState":
        """Read a saved state; ``ValueError`` on any malformed file."""
        try:
            data = json.loads(Path(path).read_text())
            if not isinstance(data, dict):
                raise ValueError("state file is not a JSON object")
            version = data.get("version")
            if version == 1:  # a run ledger: fold its rows in
                model = PortfolioModel()
                for row in data["records"]:
                    model.observe(RunRecord.from_dict(row))
            elif version == STATE_VERSION:
                model = PortfolioModel.from_wire(data)
            else:
                raise ValueError(
                    f"unsupported state version {version!r} "
                    f"(expected 1 or {STATE_VERSION})"
                )
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise ValueError(
                f"malformed state: {type(exc).__name__}: {exc}"
            ) from None
        return cls(model)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PortfolioState({self.model!r}, {self._decisions} decisions)"


_default: PortfolioState | None = None
_default_lock = threading.Lock()


def default_state() -> PortfolioState:
    """The process-wide learned state (lazily created, shared)."""
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = PortfolioState()
    return _default


def set_default_state(state: PortfolioState) -> PortfolioState:
    """Swap the process-wide state (e.g. after loading a saved one)."""
    global _default
    with _default_lock:
        _default = state
    return state


def reset_default_state() -> PortfolioState:
    """Fresh empty process-wide state (test isolation)."""
    return set_default_state(PortfolioState())


def portfolio_candidates(registry) -> tuple[str, ...]:
    """Concrete multi-task solvers the portfolio may dispatch to.

    Meta solvers (including the portfolio itself), tiny-only
    enumerators and foreign cost models are excluded; the order is the
    registry's sorted-by-name guarantee.
    """
    from repro.engine.registry import TAG_META, TAG_TINY_ONLY

    specs = registry.select(
        kind="multi", without_tags=(TAG_META, TAG_TINY_ONLY)
    )
    return tuple(s.name for s in specs if s.cost_model == "switch")


def _is_stochastic(registry, name: str) -> bool:
    from repro.engine.registry import TAG_STOCHASTIC

    try:
        return TAG_STOCHASTIC in registry.get(name).tags
    except KeyError:
        return False


def _verify(system, seqs, model, result) -> tuple[bool, float]:
    """Scalar-oracle check of a solver answer; (verified, oracle cost)."""
    oracle = sync_switch_cost(system, seqs, result.schedule, model)
    ok = abs(oracle - result.cost) <= ORACLE_RTOL * max(1.0, abs(oracle))
    return ok, oracle


def _attempt(registry, name, system, seqs, model, *, timeout, solver_seed):
    """Run one candidate under an optional budget; never raises.

    Returns ``(value, error, timed_out, elapsed)`` like the batch
    engine's executor (which this reuses, SIGALRM budget included).
    """
    from repro.engine.batch import _execute
    from repro.engine.requests import SolveRequest

    params = {}
    if _is_stochastic(registry, name):
        params["seed"] = solver_seed
    request = SolveRequest.multi(
        system, seqs, model, solver=name, **params
    )
    return _execute(registry, request, timeout)


def _race_round(
    registry, chosen, system, seqs, model, *, budget, solver_seed, workers
):
    """One race round; returns name → (value, error, timed_out, elapsed).

    Parallel when asked for and allowed (daemonic multiprocessing
    workers cannot spawn a pool); the sequential path walks the rank
    order and stops at the first finisher, which selects the same
    winner the parallel race would (rank order decides, not wall-clock
    order).
    """
    outcomes = {}
    parallel = (
        workers > 1
        and len(chosen) > 1
        and not multiprocessing.current_process().daemon
    )
    if parallel:
        from repro.engine.batch import BatchEngine
        from repro.engine.requests import SolveRequest

        engine = BatchEngine(
            registry,
            cache_size=0,
            workers=min(workers, len(chosen)),
            timeout=budget,
            portfolio_learn=False,
        )
        requests = []
        for name in chosen:
            params = {}
            if _is_stochastic(registry, name):
                params["seed"] = solver_seed
            requests.append(
                SolveRequest.multi(system, seqs, model, solver=name, **params)
            )
        for name, res in zip(chosen, engine.solve_batch(requests)):
            if res.ok:
                outcomes[name] = (res.value, None, False, res.elapsed)
            else:
                outcomes[name] = (
                    None,
                    res.error,
                    bool(res.stats.get("timeout")),
                    res.elapsed,
                )
        return outcomes
    for name in chosen:
        outcome = _attempt(
            registry, name, system, seqs, model,
            timeout=budget, solver_seed=solver_seed,
        )
        outcomes[name] = outcome
        if outcome[1] is None:  # first finisher in rank order wins
            break
    return outcomes


def solve_mt_portfolio(
    system,
    seqs,
    model=None,
    *,
    seed=0,
    strategy="best",
    candidates=None,
    state: PortfolioState | None = None,
    registry=None,
    race_workers: int = 0,
    prefix: int = FEATURE_PREFIX_STEPS,
) -> MTSolveResult:
    """Adaptively pick (or race) a solver for one MT-Switch instance.

    ``strategy`` is a spec string (see
    :func:`~repro.portfolio.strategy.make_strategy`) or a
    :class:`~repro.portfolio.strategy.Strategy` instance.
    ``candidates`` restricts the solver pool (default: every concrete
    multi-task switch-cost solver in the registry).  ``race_workers``
    caps the process count of a :class:`DeadlineRace` round (0 = one
    process per raced solver).

    Raises ``RuntimeError`` only when every candidate failed; the
    returned answer is always oracle-verified.
    """
    if registry is None:
        from repro.engine.registry import default_registry

        registry = default_registry()
    if state is None:
        state = default_state()
    strat = strategy if isinstance(strategy, Strategy) else make_strategy(strategy)
    pool = tuple(candidates) if candidates else portfolio_candidates(registry)
    if not pool:
        raise ValueError("portfolio has no candidate solvers")

    start = time.perf_counter()
    features = multi_features(system, seqs, prefix=prefix)
    index = state.next_decision_index()
    rng = np.random.default_rng([int(seed) & 0x7FFFFFFF, index])
    solver_seed = int(rng.integers(2**31))
    decision: Decision = strat.decide(state.model, features, pool)

    records: list[RunRecord] = []

    def note(name, *, runtime, cost=0.0, ok, error=None):
        record = RunRecord(
            features=features,
            solver=name,
            runtime=runtime,
            cost=cost,
            ok=ok,
            error=error,
        )
        state.record(record)
        records.append(record)

    winner_name = None
    winner = None
    oracle_cost = 0.0
    attempts = 0
    failures: list[str] = []

    def consider(name, outcome) -> bool:
        """Verify one outcome; records it either way."""
        nonlocal winner_name, winner, oracle_cost, attempts
        attempts += 1
        value, error, timed_out, elapsed = outcome
        if error is not None:
            note(name, runtime=elapsed, ok=False,
                 error="timeout" if timed_out else error)
            failures.append(f"{name}: {error}")
            return False
        verified, oracle = _verify(system, seqs, model, value)
        if not verified:
            note(name, runtime=elapsed, ok=False,
                 error=f"oracle mismatch: {value.cost!r} != {oracle!r}")
            failures.append(f"{name}: oracle mismatch")
            return False
        note(name, runtime=elapsed, cost=oracle, ok=True)
        winner_name, winner, oracle_cost = name, value, oracle
        return True

    if decision.mode == "race":
        budget = decision.budget or 1.0
        workers = race_workers if race_workers > 0 else len(decision.chosen)
        for round_no in range(decision.restarts + 1):
            outcomes = _race_round(
                registry, decision.chosen, system, seqs, model,
                budget=budget * (2**round_no),
                solver_seed=solver_seed,
                workers=workers,
            )
            for name in decision.chosen:  # rank order decides
                if name in outcomes and consider(name, outcomes[name]):
                    break
            if winner is not None:
                break
        if winner is None:
            # Last resort: unbounded sequential walk over the full pool.
            for name in (*decision.chosen,
                         *(s for s in sorted(pool)
                           if s not in decision.chosen)):
                outcome = _attempt(
                    registry, name, system, seqs, model,
                    timeout=None, solver_seed=solver_seed,
                )
                if consider(name, outcome):
                    break
    else:
        for name in decision.chosen:
            outcome = _attempt(
                registry, name, system, seqs, model,
                timeout=None, solver_seed=solver_seed,
            )
            if consider(name, outcome):
                break

    if winner is None:
        raise RuntimeError(
            "portfolio: every candidate failed: " + "; ".join(failures)
        )

    elapsed = time.perf_counter() - start
    stats = dict(winner.stats)
    stats["portfolio"] = {
        "strategy": decision.strategy,
        "mode": decision.mode,
        "bucket": features.bucket(),
        "chosen": winner_name,
        "ranking": list(decision.chosen),
        "attempts": attempts,
        "verified": True,
        "decision_s": elapsed,
        "decision_index": index,
        "records": [r.to_dict() for r in records],
        "recorded_pid": os.getpid(),
    }
    return MTSolveResult(
        schedule=winner.schedule,
        cost=oracle_cost,
        optimal=winner.optimal,
        solver=f"portfolio[{winner_name}]",
        stats=stats,
    )
