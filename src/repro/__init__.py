"""repro — Multi-task hyperreconfigurable architectures.

A production-quality reproduction of

    S. Lange, M. Middendorf: *Models and Reconfiguration Problems for
    Multi Task Hyperreconfigurable Architectures*, IPPS/RAW 2004.

The library provides

* the paper's cost models for hyperreconfigurable machines — single-
  and multi-task, switch/DAG/general, synchronous and asynchronous,
  with the full resource/synchronization taxonomy (:mod:`repro.core`);
* exact and heuristic solvers for the optimal-(hyper)reconfiguration
  problems, including the polynomial single-task DP, an exact
  multi-task DP, and the paper's genetic algorithm
  (:mod:`repro.solvers`);
* a cycle-accurate simulator of SHyRA, the paper's example
  architecture, with a micro-assembler and the evaluation applications
  (:mod:`repro.shyra`);
* experiment drivers regenerating every figure and headline number of
  the evaluation section (:mod:`repro.analysis`);
* a batch & streaming serving engine (:mod:`repro.engine`): a
  declarative solver registry with capability tags, canonical solve
  requests with structural deduplication, an LRU result cache, a
  multiprocessing batch executor with per-request timeouts, streaming
  sessions for the online policies, and throughput/latency/cache
  metrics (also exposed as the ``repro batch`` CLI subcommand).

Quickstart (one instance)::

    from repro.shyra.apps import build_counter_program, counter_registers
    from repro.shyra import run_and_trace, shyra_task_system
    from repro.solvers import solve_single_switch

    trace = run_and_trace(build_counter_program(),
                          initial_registers=counter_registers(0, 10))
    result = solve_single_switch(trace.requirements, w=48)
    print(trace.n, result.cost)

Quickstart (serving many instances)::

    from repro.engine import BatchEngine, SolveRequest

    engine = BatchEngine(workers=2)
    requests = [SolveRequest.single(trace.requirements, w=48.0)
                for trace in traces]
    results = engine.solve_batch(requests)
    print(engine.metrics.format_report(engine.cache.stats))
"""

from repro.core import (
    MachineClass,
    MachineModel,
    MultiTaskSchedule,
    RequirementSequence,
    SingleTaskSchedule,
    SwitchSet,
    SwitchUniverse,
    SyncMode,
    Task,
    TaskSystem,
    UploadMode,
    no_hyper_cost,
    switch_cost,
    sync_switch_cost,
)
from repro.engine import (
    BatchEngine,
    SolveRequest,
    StreamHub,
    StreamSession,
    default_registry,
)
from repro.solvers import (
    GAParams,
    solve_mt_exact,
    solve_mt_genetic,
    solve_mt_greedy_merge,
    solve_single_switch,
)

# 2.0.0: the serving-engine release; breaking — WindowScheduler lost
# its unused ``w`` parameter and now predicts from the previous window.
# 2.1.0: the streaming release — lane-packed online cursors, whose
# batched contract is now the one classmethod sweep_many (stacks of at
# most 8 cursors run the per-cursor galloping kernel inside it),
# StreamSession.feed_many, StreamHub multiplexing, and shared-memory
# lane fan-out in BatchEngine.
__version__ = "2.1.0"

__all__ = [
    "MachineClass",
    "MachineModel",
    "MultiTaskSchedule",
    "RequirementSequence",
    "SingleTaskSchedule",
    "SwitchSet",
    "SwitchUniverse",
    "SyncMode",
    "Task",
    "TaskSystem",
    "UploadMode",
    "no_hyper_cost",
    "switch_cost",
    "sync_switch_cost",
    "GAParams",
    "solve_mt_exact",
    "solve_mt_genetic",
    "solve_mt_greedy_merge",
    "solve_single_switch",
    "BatchEngine",
    "SolveRequest",
    "StreamHub",
    "StreamSession",
    "default_registry",
    "__version__",
]
