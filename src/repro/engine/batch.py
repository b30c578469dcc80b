"""Batch execution: fan requests across processes, dedup via the cache.

:class:`BatchEngine` is the engine's front door.  One call takes a
list of :class:`~repro.engine.requests.SolveRequest`, and

1. canonicalizes every request (structural dedup — permuted task
   orders, renamed switches, repeated traces all collapse);
2. serves cache hits immediately;
3. compiles the lane-packed :class:`~repro.core.packed.PackedProblem`
   of each *unique problem* once (an LRU of compiles keyed on the
   problem structure, shared across solvers, parameters and batches)
   and hands it to every packed-capable solver;
4. solves each *unique* miss exactly once — inline, or chunked across
   ``workers`` :mod:`multiprocessing` processes with an optional
   per-request timeout.  Each chunk pickles its compiled problems into
   the payload (one copy per distinct problem per chunk); the bytes
   land in the metrics as bytes shipped;
5. stores results under canonical keys and materializes one
   :class:`~repro.engine.requests.EngineResult` per input request, in
   input order, with multi-task schedule rows permuted back to each
   request's own task order.

Workers enforce timeouts with ``SIGALRM`` (per-request, inside the
worker process); on platforms without it the timeout degrades to
"no limit" rather than failing.  All solver entry points come from the
:class:`~repro.engine.registry.SolverRegistry`, so workers only need
the solver *name* plus the request payload.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import signal
import threading
import time
from collections.abc import Sequence

from repro.core.packed import PackedProblem
from repro.engine.cache import MISS, ResultCache
from repro.engine.metrics import EngineMetrics
from repro.engine.registry import (
    TAG_META,
    TAG_PACKED,
    SolverRegistry,
    default_registry,
)
from repro.engine.requests import (
    EngineResult,
    SolveRequest,
    canonicalize,
    from_canonical_result,
    packed_problem_key,
    to_canonical_result,
)

__all__ = ["BatchEngine", "SolveTimeout"]


class SolveTimeout(Exception):
    """A request exceeded its per-request time budget."""


def _run_with_timeout(fn, args, kwargs, timeout: float | None):
    """Call ``fn`` under a SIGALRM deadline when the platform allows it.

    Only armed in a main thread on POSIX; elsewhere the call runs
    unbounded (documented degradation, never an error).
    """
    can_alarm = (
        timeout is not None
        and timeout > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not can_alarm:
        return fn(*args, **kwargs)

    def _on_alarm(_signum, _frame):
        raise SolveTimeout(f"solve exceeded {timeout} s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.monotonic()
    old_delay, old_interval = signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return fn(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if old_delay:
            # Re-arm the caller's own pending alarm (minus the time we
            # spent) instead of silently cancelling their watchdog.
            remaining = max(1e-3, old_delay - (time.monotonic() - start))
            signal.setitimer(signal.ITIMER_REAL, remaining, old_interval)


def _solve_one(registry: SolverRegistry, request: SolveRequest, packed=None):
    if request.kind == "single":
        return registry.solve_single(
            request.solver, request.seq, request.w, **request.kwargs
        )
    return registry.solve_multi(
        request.solver, request.system, request.seqs, request.model,
        packed=packed,
        **request.kwargs,
    )


def _execute(registry, request, timeout, packed=None):
    """(value, error, timed_out, elapsed) for one request, never raising."""
    start = time.perf_counter()
    try:
        value = _run_with_timeout(
            _solve_one, (registry, request, packed), {}, timeout
        )
        return value, None, False, time.perf_counter() - start
    except SolveTimeout as exc:
        return None, str(exc), True, time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - worker boundary
        error = f"{type(exc).__name__}: {exc}"
        return None, error, False, time.perf_counter() - start


def _solve_chunk(payload):
    """Worker entry: solve a chunk of (index, request, packed) triples.

    ``registry=None`` falls back to this worker process's default
    registry (kept for forward compatibility; the engine normally
    ships the registry it was built with).  ``packed`` is the parent's
    precompiled :class:`~repro.core.packed.PackedProblem` (or None),
    pickled with the chunk.
    """
    items, timeout, registry = payload
    if registry is None:
        registry = default_registry()
    return [
        (index, *_execute(registry, request, timeout, packed))
        for index, request, packed in items
    ]


class BatchEngine:
    """High-throughput front door to the solver zoo.

    Parameters
    ----------
    registry:
        Solver registry; defaults to the built-in zoo.
    cache:
        Shared :class:`ResultCache`; created from ``cache_size`` when
        omitted.  Pass ``cache_size=0`` for a cache-off engine with
        identical code paths (baseline measurements).
    workers:
        Process count for :meth:`solve_batch`; ``1`` solves inline.
    chunk_size:
        Requests per worker task; default balances ~4 chunks per
        worker.
    timeout:
        Per-request solve budget in seconds (enforced inside workers
        via SIGALRM where available).
    packed_cache_size:
        Capacity of the per-problem :class:`PackedProblem` compile
        cache (``0`` disables reuse; every request compiles afresh).
    tracer:
        Optional :class:`~repro.obs.trace.TraceRecorder`; one ``solve``
        span per solved request (solver name, latency, error flag).
    portfolio_learn:
        Feed the portfolio plane (see :mod:`repro.portfolio`): every
        finished concrete multi-task solve is folded into the learned
        model as one run (successes with their cost, errors/timeouts as
        failures), and ``portfolio`` results solved in worker processes
        have their decision records folded into the parent state.
        ``False`` for engines that must not touch the learned state
        (the portfolio's own race engine, baseline measurements).
    portfolio_state:
        Explicit :class:`~repro.portfolio.engine.PortfolioState` to
        learn into; ``None`` uses the process-wide default state.
    """

    def __init__(
        self,
        registry: SolverRegistry | None = None,
        *,
        cache: ResultCache | None = None,
        cache_size: int = 1024,
        workers: int = 1,
        chunk_size: int | None = None,
        timeout: float | None = None,
        metrics: EngineMetrics | None = None,
        packed_cache_size: int = 128,
        tracer=None,
        portfolio_learn: bool = True,
        portfolio_state=None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self.registry = registry if registry is not None else default_registry()
        self.cache = cache if cache is not None else ResultCache(cache_size)
        self.workers = workers
        self.chunk_size = chunk_size
        self.timeout = timeout
        self.metrics = metrics if metrics is not None else EngineMetrics()
        self.tracer = tracer
        self.portfolio_learn = portfolio_learn
        self.portfolio_state = portfolio_state
        # Lane-packed compiles, keyed on the problem structure (solver
        # and parameters excluded): one compile serves every solver and
        # every batch that asks about the same instance.
        self._packed_cache: ResultCache = ResultCache(packed_cache_size)

    # -- single request ----------------------------------------------------

    def solve(self, request: SolveRequest) -> EngineResult:
        """Solve one request inline (cache-aware)."""
        return self.solve_batch([request], workers=1)[0]

    # -- batches -----------------------------------------------------------

    def solve_batch(
        self,
        requests: Sequence[SolveRequest],
        *,
        workers: int | None = None,
    ) -> list[EngineResult]:
        """Solve many requests; results align with the input order."""
        requests = list(requests)
        workers = self.workers if workers is None else workers
        if workers < 1:
            raise ValueError("workers must be at least 1")
        results: list[EngineResult | None] = [None] * len(requests)
        with self.metrics.batch_timer():
            forms = [canonicalize(r) for r in requests]
            # One cache lookup per unique key; later duplicates are
            # resolved after the solve so they count as genuine hits.
            representative: dict[tuple, int] = {}
            to_solve: list[int] = []
            for i, form in enumerate(forms):
                if form.key in representative:
                    continue
                representative[form.key] = i
                hit = self.cache.get(form.key)
                if hit is not MISS:
                    results[i] = self._materialize(
                        requests[i], forms[i], hit, cached=True, elapsed=0.0
                    )
                else:
                    to_solve.append(i)

            solved = self._solve_unique(requests, to_solve, workers)

            for i in to_solve:
                value, error, timed_out, elapsed = solved[i]
                if self.tracer is not None:
                    self.tracer.record(
                        "solve",
                        duration=elapsed,
                        solver=requests[i].solver,
                        error=error is not None,
                    )
                if error is None:
                    self.metrics.record_solve(elapsed, solver=requests[i].solver)
                    solver_stats = getattr(value, "stats", None)
                    if solver_stats:
                        self.metrics.record_evaluator_stats(solver_stats)
                    self._learn_solve(requests[i], value, elapsed)
                    canonical_value = to_canonical_result(value, forms[i])
                    self.cache.put(forms[i].key, canonical_value)
                    results[i] = EngineResult(
                        request=requests[i],
                        value=value,
                        cached=False,
                        elapsed=elapsed,
                    )
                else:
                    self.metrics.record_error(timeout=timed_out)
                    self._learn_failure(
                        requests[i], error, timed_out, elapsed
                    )
                    results[i] = EngineResult(
                        request=requests[i],
                        error=error,
                        elapsed=elapsed,
                        stats={"timeout": timed_out},
                    )

            # Duplicates: serve from the cache (real hits) or replicate
            # the representative's failure.
            for i, form in enumerate(forms):
                if results[i] is not None:
                    continue
                rep = representative[form.key]
                rep_result = results[rep]
                if rep_result.ok:
                    hit = self.cache.get(form.key)
                    value = hit if hit is not MISS else to_canonical_result(
                        rep_result.value, forms[rep]
                    )
                    results[i] = self._materialize(
                        requests[i], form, value, cached=True, elapsed=0.0
                    )
                else:
                    # Failures are replicated, not served from the
                    # cache: no hit counters, but every failed request
                    # counts as an error (requests = solved + hits +
                    # errors must hold for the operator report).
                    self.metrics.record_error(
                        timeout=bool(rep_result.stats.get("timeout"))
                    )
                    results[i] = EngineResult(
                        request=requests[i],
                        error=rep_result.error,
                        cached=False,
                        elapsed=0.0,
                        stats=dict(rep_result.stats),
                    )

            for result in results:
                self.metrics.record_request(cached=result.cached)
        return results  # type: ignore[return-value]

    # -- internals ---------------------------------------------------------

    def _learning_target(self, request):
        """(state, spec) when this request should feed the portfolio.

        Only concrete (non-meta) multi-task switch-cost solvers produce
        directly attributable rows; ``portfolio`` requests contribute
        through their shipped decision records instead.
        """
        if not self.portfolio_learn or request.kind != "multi":
            return None
        try:
            spec = self.registry.get(request.solver)
        except KeyError:
            return None
        if TAG_META in spec.tags or spec.cost_model != "switch":
            return None
        return self._resolve_portfolio_state(), spec

    def _resolve_portfolio_state(self):
        if self.portfolio_state is not None:
            return self.portfolio_state
        from repro.portfolio.engine import default_state

        return default_state()

    def _learn_solve(self, request, value, elapsed):
        """Feed the portfolio plane from one successful solve.

        A ``portfolio`` result carries its own decision block: absorb
        the attempt records when the solve ran in another process (the
        solver already recorded them locally otherwise) and bump the
        decision counters.  Any other concrete multi-task solve becomes
        one warmup observation.
        """
        if not self.portfolio_learn or request.kind != "multi":
            return
        pstats = (getattr(value, "stats", None) or {}).get("portfolio")
        if pstats is not None:
            rows = pstats.get("records", ())
            if pstats.get("recorded_pid") != os.getpid():
                self._resolve_portfolio_state().absorb(rows)
            self.metrics.record_portfolio(
                solver=pstats.get("chosen", "?"),
                seconds=float(pstats.get("decision_s", elapsed)),
                raced=pstats.get("mode") == "race",
                records=len(rows),
            )
            return
        target = self._learning_target(request)
        if target is None:
            return
        from repro.portfolio.features import multi_features
        from repro.portfolio.records import RunRecord

        state, spec = target
        state.record(RunRecord(
            features=multi_features(request.system, request.seqs),
            solver=spec.name,
            runtime=elapsed,
            cost=value.cost,
            ok=True,
        ))
        self.metrics.record_portfolio_rows(1)

    def _learn_failure(self, request, error, timed_out, elapsed):
        """Record one failed concrete solve as a failed run."""
        target = self._learning_target(request)
        if target is None:
            return
        from repro.portfolio.features import multi_features
        from repro.portfolio.records import RunRecord

        state, spec = target
        state.record(RunRecord(
            features=multi_features(request.system, request.seqs),
            solver=spec.name,
            runtime=elapsed,
            ok=False,
            error="timeout" if timed_out else error,
        ))
        self.metrics.record_portfolio_rows(1)

    def _materialize(self, request, form, canonical_value, *, cached, elapsed):
        return EngineResult(
            request=request,
            value=from_canonical_result(canonical_value, form),
            cached=cached,
            elapsed=elapsed,
        )

    def _packed_for(self, request: SolveRequest) -> PackedProblem | None:
        """Get-or-compile the request's lane-packed problem.

        Returns None for single-task requests, for solvers that do not
        declare :data:`~repro.engine.registry.TAG_PACKED`, and for
        requests whose compile fails (the solver then surfaces the
        configuration error itself, with its own message).
        """
        if request.kind != "multi":
            return None
        try:
            spec = self.registry.get(request.solver)
        except KeyError:
            return None
        if TAG_PACKED not in spec.tags:
            return None
        key = packed_problem_key(request)
        hit = self._packed_cache.get(key)
        if hit is not MISS:
            self.metrics.record_packed(reused=True)
            return hit
        try:
            packed = PackedProblem.compile(
                request.system, request.seqs, request.model
            )
        except Exception:  # noqa: BLE001 - solver reports the real error
            return None
        self._packed_cache.put(key, packed)
        self.metrics.record_packed(reused=False)
        return packed

    def _solve_unique(self, requests, indices, workers):
        """Solve the deduplicated misses; returns index → outcome tuple."""
        if not indices:
            return {}
        packed = {i: self._packed_for(requests[i]) for i in indices}
        if workers == 1 or len(indices) == 1:
            return {
                i: _execute(self.registry, requests[i], self.timeout, packed[i])
                for i in indices
            }
        # Always ship the registry: under spawn-start platforms a worker
        # rebuilding default_registry() would miss solvers the caller
        # registered into it after import.  Registries pickle by spec
        # reference, so this is cheap for the built-in zoo.
        registry_arg = self.registry
        nproc = min(workers, len(indices))
        chunk = self.chunk_size or max(1, math.ceil(len(indices) / (nproc * 4)))
        payloads = []
        payload_sizes: dict[int, int] = {}  # id(obj) -> pickled bytes
        shipped_bytes = 0
        for lo in range(0, len(indices), chunk):
            items = [
                (i, requests[i], packed[i]) for i in indices[lo : lo + chunk]
            ]
            payloads.append((items, self.timeout, registry_arg))
            # Per-chunk serialization cost of the packed payloads: each
            # distinct object pickles once per chunk (pickle memoizes
            # repeats within one payload).
            seen: set[int] = set()
            for item in items:
                obj = item[2]
                if obj is None or id(obj) in seen:
                    continue
                seen.add(id(obj))
                if id(obj) not in payload_sizes:
                    payload_sizes[id(obj)] = len(
                        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
                    )
                shipped_bytes += payload_sizes[id(obj)]
        self.metrics.record_shipment(shipped=shipped_bytes)
        out = {}
        with multiprocessing.Pool(processes=nproc) as pool:
            for chunk_result in pool.imap_unordered(_solve_chunk, payloads):
                for index, value, error, timed_out, elapsed in chunk_result:
                    out[index] = (value, error, timed_out, elapsed)
        return out
