"""Adaptive algorithm-portfolio engine (Borg-style solver selection).

The solver registry knows what each solver *can* do; this package
learns what each solver actually *does* on the traffic a deployment
sees, and uses that to pick (or race) solvers per request:

* :mod:`repro.portfolio.features` — a cheap :class:`WorkloadFeatures`
  vector per request (shape, demand sparsity, periodicity, phase
  structure via :mod:`repro.analysis.trace_stats`);
* :mod:`repro.portfolio.records` — the :class:`RunRecord` one solver
  run contributes (features, solver, runtime, cost, ok/error): a
  message folded into the model, never stored;
* :mod:`repro.portfolio.model` — per-(bucket, solver) arms of
  runtime/cost histograms from :mod:`repro.obs.histogram`; the arms
  are the learned state and its saved form, bounded by buckets ×
  solvers;
* :mod:`repro.portfolio.strategy` — selection policies
  (:class:`BestPredicted`, :class:`DeadlineRace`);
* :mod:`repro.portfolio.engine` — the ``portfolio`` meta-solver entry
  point plus the process-wide learned state.

Every decision is reproducible under a seed, and every answer the
portfolio returns is re-verified against the scalar cost oracle before
it is surfaced — the portfolio can only change *which* verified answer
a request pays for, never hand back an unverified one.
"""

from repro.portfolio.engine import (
    PortfolioState,
    default_state,
    portfolio_candidates,
    reset_default_state,
    set_default_state,
    solve_mt_portfolio,
)
from repro.portfolio.features import WorkloadFeatures, features_of, multi_features
from repro.portfolio.model import PortfolioModel, Prediction
from repro.portfolio.records import RunRecord
from repro.portfolio.strategy import (
    BestPredicted,
    DeadlineRace,
    Decision,
    make_strategy,
    rank_candidates,
)

__all__ = [
    "BestPredicted",
    "DeadlineRace",
    "Decision",
    "PortfolioModel",
    "PortfolioState",
    "Prediction",
    "RunRecord",
    "WorkloadFeatures",
    "default_state",
    "features_of",
    "make_strategy",
    "multi_features",
    "portfolio_candidates",
    "rank_candidates",
    "reset_default_state",
    "set_default_state",
    "solve_mt_portfolio",
]
