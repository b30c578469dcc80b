"""repro.engine — batch & streaming serving layer over the solver zoo.

The core library answers one question at a time; the engine turns it
into a service.  Components (each its own module):

* :mod:`repro.engine.registry` — declarative solver registry with
  capability tags; the single source of truth for "which solver can do
  what" (used by auto-dispatch, the CLI and the batch executor);
* :mod:`repro.engine.requests` — :class:`SolveRequest` /
  :class:`EngineResult` value types plus structural canonicalization
  (task permutations, renamed switches and repeated traces share one
  cache key);
* :mod:`repro.engine.cache` — LRU result cache with hit/miss stats;
* :mod:`repro.engine.batch` — :class:`BatchEngine`: dedup, cache,
  and fan-out across :mod:`multiprocessing` workers with per-request
  timeouts;
* :mod:`repro.engine.stream` — :class:`StreamSession` (step-by-step or
  chunked requirements into the online policies, incremental cost
  accounting on lane-packed cursor state) and :class:`StreamHub`
  (many concurrent sessions multiplexed under session ids, aggregate
  streaming metrics);
* :mod:`repro.engine.metrics` — throughput/latency/cache counters
  (surfaced by the ``repro batch`` CLI subcommand).

Quickstart::

    from repro.engine import BatchEngine, SolveRequest

    engine = BatchEngine(workers=2)
    requests = [SolveRequest.multi(system, seqs, solver="mt_greedy")
                for system, seqs in instances]
    for res in engine.solve_batch(requests):
        print(res.value.solver, res.cost, "cached" if res.cached else "")
    print(engine.metrics.format_report(engine.cache.stats))
"""

from repro.engine.batch import BatchEngine, SolveTimeout
from repro.engine.cache import MISS, CacheStats, ResultCache
from repro.engine.metrics import EngineMetrics, LatencyStats
from repro.engine.registry import (
    TAG_PACKED,
    SolverRegistry,
    SolverSpec,
    default_registry,
)
from repro.engine.requests import (
    CanonicalForm,
    EngineResult,
    SolveRequest,
    canonical_key,
    canonicalize,
    packed_problem_key,
)
from repro.engine.stream import (
    CloseResult,
    StreamBatch,
    StreamEvent,
    StreamHub,
    StreamSession,
)

__all__ = [
    "BatchEngine",
    "SolveTimeout",
    "MISS",
    "CacheStats",
    "ResultCache",
    "EngineMetrics",
    "LatencyStats",
    "SolverRegistry",
    "TAG_PACKED",
    "SolverSpec",
    "default_registry",
    "CanonicalForm",
    "EngineResult",
    "SolveRequest",
    "canonical_key",
    "packed_problem_key",
    "canonicalize",
    "CloseResult",
    "StreamBatch",
    "StreamEvent",
    "StreamHub",
    "StreamSession",
]
