"""Selection policies over the learned portfolio model.

Every strategy answers one question deterministically: given the model,
a feature vector and the candidate solver names, in which order should
solvers be tried?  The returned :class:`Decision` carries the full
ranking — execution (``repro.portfolio.engine``) walks it front to
back, so a failing or unverifiable front-runner falls back to the next
candidate instead of failing the request.

Determinism is a contract: candidates are always considered in sorted
name order and ties break by name.  Two calls with equal model state,
features and candidates return identical decisions — replayable
offline via ``repro portfolio replay``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.portfolio.features import WorkloadFeatures
from repro.portfolio.model import PortfolioModel

__all__ = [
    "BestPredicted",
    "DeadlineRace",
    "Decision",
    "Strategy",
    "make_strategy",
    "rank_candidates",
]


@dataclass(frozen=True)
class Decision:
    """One strategy verdict.

    ``chosen`` is the full candidate ranking (front runner first);
    ``mode`` is ``"pick"`` (run front to back, first verified answer
    wins) or ``"race"`` (run the whole ``chosen`` tuple under
    ``budget`` seconds, best-ranked verified finisher wins, up to
    ``restarts`` extra rounds with a doubled budget).
    """

    strategy: str
    chosen: tuple[str, ...]
    mode: str = "pick"
    reason: str = ""
    budget: float | None = None
    restarts: int = 0


def rank_candidates(
    model: PortfolioModel,
    features: WorkloadFeatures,
    candidates,
    *,
    cost_tolerance: float = 0.05,
    max_failure_rate: float = 0.5,
) -> tuple[str, ...]:
    """Deterministic candidate ranking, best bet first.

    Solvers with a known cost and an acceptable failure rate come
    first — those within ``cost_tolerance`` of the best predicted cost
    ordered by predicted runtime (the latency win the portfolio is
    after), costlier ones after by predicted cost.  Cold solvers (no
    observations at any bucket resolution) follow in name order, and
    known-flaky solvers (failure rate above ``max_failure_rate``) go
    last.  Ties always break by name.
    """
    names = sorted(candidates)
    if not names:
        raise ValueError("no candidate solvers to rank")
    known: list[tuple[str, float, float]] = []  # (name, cost, runtime)
    cold: list[str] = []
    flaky: list[tuple[float, str]] = []
    for name in names:
        failure = model.failure_rate(name, features)
        cost = model.predict_cost(name, features)
        runtime = model.predict_runtime(name, features)
        if runtime.support == 0 and cost.support == 0:
            cold.append(name)
        elif failure > max_failure_rate or cost.support == 0:
            flaky.append((failure, name))
        else:
            known.append((name, cost.value, runtime.value))
    ordered: list[str] = []
    if known:
        best_cost = min(cost for _n, cost, _r in known)
        bar = best_cost * (1.0 + cost_tolerance) + 1e-9
        acceptable = [row for row in known if row[1] <= bar]
        rest = [row for row in known if row[1] > bar]
        acceptable.sort(key=lambda row: (row[2], row[0]))
        rest.sort(key=lambda row: (row[1], row[2], row[0]))
        ordered.extend(name for name, _c, _r in acceptable + rest)
    ordered.extend(cold)
    ordered.extend(name for _f, name in sorted(flaky))
    return tuple(ordered)


class Strategy:
    """Base: subclasses implement :meth:`decide`."""

    name = "strategy"

    def decide(
        self,
        model: PortfolioModel,
        features: WorkloadFeatures,
        candidates,
    ) -> Decision:
        raise NotImplementedError


@dataclass(frozen=True)
class BestPredicted(Strategy):
    """Pure exploitation: run the ranking front to back."""

    cost_tolerance: float = 0.05
    max_failure_rate: float = 0.5
    name: str = field(default="best", init=False)

    def decide(self, model, features, candidates) -> Decision:
        ranking = rank_candidates(
            model,
            features,
            candidates,
            cost_tolerance=self.cost_tolerance,
            max_failure_rate=self.max_failure_rate,
        )
        return Decision(
            strategy=self.name,
            chosen=ranking,
            reason=f"best predicted in {features.bucket()}",
        )


@dataclass(frozen=True)
class DeadlineRace(Strategy):
    """Race the top-k ranked solvers under a wall-clock budget.

    Execution runs all ``top_k`` front-runners with a per-solver
    ``budget``-second timeout (in parallel via
    :class:`~repro.engine.batch.BatchEngine` workers where the platform
    allows, sequentially with early exit otherwise); the best-*ranked*
    verified finisher wins — rank order, not wall-clock order, decides,
    so the outcome is reproducible.  If nobody finishes, the budget
    doubles for up to ``restarts`` extra rounds, and a final unbounded
    run of the full ranking guarantees an answer.
    """

    budget: float = 1.0
    top_k: int = 2
    restarts: int = 1
    cost_tolerance: float = 0.05
    max_failure_rate: float = 0.5
    name: str = field(default="race", init=False)

    def __post_init__(self):
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        if self.restarts < 0:
            raise ValueError("restarts must be non-negative")

    def decide(self, model, features, candidates) -> Decision:
        ranking = rank_candidates(
            model,
            features,
            candidates,
            cost_tolerance=self.cost_tolerance,
            max_failure_rate=self.max_failure_rate,
        )
        return Decision(
            strategy=self.name,
            chosen=ranking[: self.top_k],
            mode="race",
            budget=self.budget,
            restarts=self.restarts,
            reason=f"race top-{min(self.top_k, len(ranking))} "
                   f"under {self.budget:g}s",
        )


def make_strategy(spec: str) -> Strategy:
    """Parse a strategy spec string.

    Formats (the bare value names the strategy's primary parameter)::

        best            best:tol=0.1
        race            race:0.5           race:budget=0.5,k=3,restarts=2
    """
    name, _, argtext = str(spec).partition(":")
    name = name.strip().lower()
    args: dict[str, str] = {}
    primary: str | None = None
    if argtext.strip():
        for part in argtext.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" in part:
                key, _, value = part.partition("=")
                args[key.strip()] = value.strip()
            elif primary is None:
                primary = part
            else:
                raise ValueError(f"bad strategy spec {spec!r}")
    try:
        if name == "best":
            tol = float(primary if primary is not None else args.pop("tol", 0.05))
            strategy: Strategy = BestPredicted(cost_tolerance=tol)
        elif name == "race":
            budget = float(
                primary if primary is not None else args.pop("budget", 1.0)
            )
            strategy = DeadlineRace(
                budget=budget,
                top_k=int(args.pop("k", args.pop("top_k", 2))),
                restarts=int(args.pop("restarts", 1)),
            )
        else:
            raise ValueError(
                f"unknown strategy {name!r}; "
                "choose from best, race"
            )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad strategy spec {spec!r}: {exc}") from None
    if args:
        raise ValueError(
            f"bad strategy spec {spec!r}: unknown options {sorted(args)}"
        )
    return strategy
