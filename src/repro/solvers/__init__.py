"""Solvers for the reconfiguration problems of the paper.

* :mod:`repro.solvers.single_dp` — optimal O(n²) dynamic program for the
  single-task switch model (Partition into Hypercontexts, cmp. [9]);
* :mod:`repro.solvers.mt_exact` — exact DP with Pareto pruning for the
  fully synchronized MT-Switch problem (reference implementation of the
  Theorem 1 algorithm; exact for small task counts);
* :mod:`repro.solvers.mt_genetic` — the genetic algorithm used for the
  paper's m = 4 experiments;
* :mod:`repro.solvers.mt_greedy` — greedy constructions and local search;
* :mod:`repro.solvers.exhaustive` — brute-force enumeration (validation);
* :mod:`repro.solvers.dag_dp` — DP for the coarse-grained DAG model;
* :mod:`repro.solvers.general_bb` — branch & bound for the NP-hard
  general model;
* :mod:`repro.solvers.changeover` — solvers for the changeover-cost
  variant;
* :mod:`repro.solvers.private_global` — two-level optimizer with private
  global resources;
* :mod:`repro.solvers.lower_bounds` — admissible lower bounds shared by
  the exact solvers and the tests.
"""

from repro.solvers.base import SolveResult, MTSolveResult
from repro.solvers.single_dp import solve_single_switch
from repro.solvers.exhaustive import (
    enumerate_single_schedules,
    solve_single_exhaustive,
    solve_mt_exhaustive,
)
from repro.solvers.mt_greedy import (
    solve_mt_greedy_merge,
    solve_mt_independent,
    solve_mt_from_single,
    local_search,
)
from repro.solvers.mt_exact import solve_mt_exact
from repro.solvers.mt_genetic import GAParams, solve_mt_genetic
from repro.solvers.dag_dp import solve_dag
from repro.solvers.general_bb import solve_general_bb, solve_general_greedy
from repro.solvers.changeover import (
    solve_changeover_exact,
    solve_changeover_heuristic,
)
from repro.solvers.private_global import solve_private_global
from repro.solvers.mt_async import solve_mt_async, async_vs_sync_gap
from repro.solvers.mt_annealing import AnnealParams, solve_mt_annealing
from repro.solvers.mt_branch_bound import solve_mt_branch_bound
from repro.solvers.online import (
    RentOrBuyScheduler,
    WindowScheduler,
    run_online,
    competitive_report,
)
from repro.solvers.lower_bounds import (
    switch_lower_bound,
    sync_mt_lower_bound,
)

__all__ = [
    "SolveResult",
    "MTSolveResult",
    "solve_single_switch",
    "enumerate_single_schedules",
    "solve_single_exhaustive",
    "solve_mt_exhaustive",
    "solve_mt_greedy_merge",
    "solve_mt_independent",
    "solve_mt_from_single",
    "local_search",
    "solve_mt_exact",
    "GAParams",
    "solve_mt_genetic",
    "solve_dag",
    "solve_general_bb",
    "solve_general_greedy",
    "solve_changeover_exact",
    "solve_changeover_heuristic",
    "solve_private_global",
    "solve_mt_async",
    "async_vs_sync_gap",
    "AnnealParams",
    "solve_mt_annealing",
    "solve_mt_branch_bound",
    "RentOrBuyScheduler",
    "WindowScheduler",
    "run_online",
    "competitive_report",
    "switch_lower_bound",
    "sync_mt_lower_bound",
]
