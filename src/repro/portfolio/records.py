"""Run records: the observation one solver run contributes.

One :class:`RunRecord` per solver invocation the engine witnessed —
successes with their measured runtime and verified cost, failures
(errors, timeouts, oracle mismatches) with the time they wasted.  A
record is a message, not stored state: the model folds it into its
per-(bucket, solver) arms, and a forked worker ships its few records
to the parent as dicts (:meth:`RunRecord.to_dict`) in the result's
``stats["portfolio"]["records"]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.portfolio.features import WorkloadFeatures

__all__ = ["RunRecord"]


@dataclass(frozen=True)
class RunRecord:
    """One observed solver run; ``cost`` is meaningful only when
    ``ok`` is true."""

    features: WorkloadFeatures
    solver: str
    runtime: float = 0.0
    cost: float = 0.0
    ok: bool = True
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "features": self.features.to_dict(),
            "solver": self.solver,
            "runtime": self.runtime,
            "cost": self.cost,
            "ok": self.ok,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        return cls(
            features=WorkloadFeatures.from_dict(data["features"]),
            solver=str(data["solver"]),
            runtime=float(data.get("runtime", 0.0)),
            cost=float(data.get("cost", 0.0)),
            ok=bool(data.get("ok", True)),
            error=data.get("error"),
        )
