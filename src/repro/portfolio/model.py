"""Per-solver runtime/quality predictors over feature buckets.

No learning framework: every (bucket, solver) arm keeps two mergeable
log-bucketed histograms from :mod:`repro.obs.histogram` — runtime on
the time scheme, verified cost on the value scheme — plus run/failure
counts.  Predictions are median (p50) quantile estimates, which is all
the selection strategies need: they compare solvers *within one
bucket*, where costs refer to structurally similar instances.

Observations are recorded under the full fallback-bucket chain of
their features (see
:meth:`~repro.portfolio.features.WorkloadFeatures.fallback_buckets`),
and predictions walk the same chain finest-first, so an unseen fine
bucket inherits the coarser prior instead of returning nothing.

The arms are the model's sufficient statistics and its persisted
form (:meth:`PortfolioModel.to_wire`): the saved state is bounded by
buckets × solvers however many runs were observed, and loading it
reproduces every prediction.  Next to the arms the model keeps the
first-seen features of each finest bucket, which offline decision
replay (``repro portfolio replay``) needs to re-ask the strategy.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

from repro.obs.histogram import TIME_SCHEME, VALUE_SCHEME, Histogram
from repro.portfolio.features import WorkloadFeatures
from repro.portfolio.records import RunRecord

__all__ = ["PortfolioModel", "Prediction"]


class Prediction(NamedTuple):
    """A point estimate plus how many observations back it.

    ``support == 0`` means the model has never seen this (bucket,
    solver) pair at any fallback resolution; ``value`` is then
    ``inf`` so unknown arms never win a comparison by accident.
    """

    value: float
    support: int


class _Arm:
    """Statistics of one (bucket, solver) pair."""

    __slots__ = ("runtime", "cost", "runs", "failures")

    def __init__(self):
        self.runtime = Histogram(TIME_SCHEME)
        self.cost = Histogram(VALUE_SCHEME)
        self.runs = 0
        self.failures = 0

    def observe(self, record: RunRecord) -> None:
        self.runs += 1
        self.runtime.observe(max(0.0, record.runtime))
        if record.ok:
            self.cost.observe(record.cost)
        else:
            self.failures += 1

    @property
    def successes(self) -> int:
        return self.runs - self.failures

    def to_wire(self) -> dict:
        return {
            "runs": self.runs,
            "failures": self.failures,
            "runtime": self.runtime.to_wire(),
            "cost": self.cost.to_wire(),
        }

    @classmethod
    def from_wire(cls, wire) -> "_Arm":
        """Inverse of :meth:`to_wire`; ``ValueError`` on counts that
        disagree with each other."""
        arm = cls()
        arm.runs = int(wire["runs"])
        arm.failures = int(wire["failures"])
        arm.runtime = _histogram(wire["runtime"], TIME_SCHEME)
        arm.cost = _histogram(wire["cost"], VALUE_SCHEME)
        if not (
            0 <= arm.failures <= arm.runs
            and arm.runtime.count == arm.runs
            and arm.cost.count == arm.successes
        ):
            raise ValueError(
                f"arm counts disagree: {arm.runs} runs, {arm.failures} "
                f"failures, {arm.runtime.count} runtimes, "
                f"{arm.cost.count} costs"
            )
        return arm


def _histogram(wire, scheme) -> Histogram:
    """A histogram off the wire, checked against its expected scheme."""
    if wire["scheme"] != scheme.name:
        raise ValueError(
            f"histogram scheme {wire['scheme']!r}, expected {scheme.name!r}"
        )
    for index, _count in wire["buckets"]:
        if not 0 <= int(index) < len(scheme):
            raise ValueError(f"histogram bucket {index} out of range")
    hist = Histogram.from_wire(wire)
    if sum(hist.counts) != hist.count:
        raise ValueError(
            f"histogram buckets hold {sum(hist.counts)} observations, "
            f"count says {hist.count}"
        )
    return hist


class PortfolioModel:
    """Learned per-solver performance statistics; all methods thread-safe."""

    def __init__(self):
        self._lock = threading.Lock()
        self._arms: dict[tuple[str, str], _Arm] = {}
        self._representatives: dict[str, WorkloadFeatures] = {}

    def observe(self, record: RunRecord) -> None:
        with self._lock:
            self._representatives.setdefault(
                record.features.bucket(), record.features
            )
            for bucket in record.features.fallback_buckets():
                key = (bucket, record.solver)
                arm = self._arms.get(key)
                if arm is None:
                    arm = self._arms[key] = _Arm()
                arm.observe(record)

    # -- queries -----------------------------------------------------------

    def _walk(self, solver: str, features: WorkloadFeatures):
        """Arms along the fallback chain, finest-first."""
        for bucket in features.fallback_buckets():
            arm = self._arms.get((bucket, solver))
            if arm is not None:
                yield arm

    def predict_runtime(
        self, solver: str, features: WorkloadFeatures
    ) -> Prediction:
        """Median observed runtime (seconds) at the finest known bucket."""
        with self._lock:
            for arm in self._walk(solver, features):
                if arm.runs:
                    return Prediction(arm.runtime.p50, arm.runs)
        return Prediction(float("inf"), 0)

    def predict_cost(
        self, solver: str, features: WorkloadFeatures
    ) -> Prediction:
        """Median verified cost at the finest bucket with a success."""
        with self._lock:
            for arm in self._walk(solver, features):
                if arm.successes:
                    return Prediction(arm.cost.p50, arm.successes)
        return Prediction(float("inf"), 0)

    def failure_rate(self, solver: str, features: WorkloadFeatures) -> float:
        """Failure fraction at the finest bucket with any runs (0.0 cold)."""
        with self._lock:
            for arm in self._walk(solver, features):
                if arm.runs:
                    return arm.failures / arm.runs
        return 0.0

    def runs(self, solver: str, features: WorkloadFeatures) -> int:
        """Runs recorded at the *finest* bucket of these features."""
        with self._lock:
            arm = self._arms.get((features.bucket(), solver))
            return arm.runs if arm is not None else 0

    def snapshot(self) -> dict:
        """JSON-safe dump: bucket → solver → summary row.

        The ``repro portfolio model`` CLI renders this; buckets include
        the fallback levels (they are separate arms by design).
        """
        out: dict[str, dict[str, dict]] = {}
        with self._lock:
            for (bucket, solver), arm in sorted(self._arms.items()):
                out.setdefault(bucket, {})[solver] = {
                    "runs": arm.runs,
                    "failures": arm.failures,
                    "runtime_p50_s": arm.runtime.p50 if arm.runs else 0.0,
                    "cost_p50": arm.cost.p50 if arm.successes else None,
                }
        return out

    def solver_totals(self) -> dict[str, dict]:
        """Per-solver totals over the kind-level arms, the coarsest
        fallback bucket, which sees every observation exactly once:
        solver → ``runs``, ``failures``, ``runtime_s`` and ``cost``
        (sums of the runtimes and of the verified costs)."""
        out: dict[str, dict] = {}
        with self._lock:
            for (bucket, solver), arm in sorted(self._arms.items()):
                if "/" in bucket:
                    continue
                row = out.setdefault(solver, {
                    "runs": 0, "failures": 0, "runtime_s": 0.0, "cost": 0.0,
                })
                row["runs"] += arm.runs
                row["failures"] += arm.failures
                row["runtime_s"] += arm.runtime.total
                row["cost"] += arm.cost.total
        return dict(sorted(out.items()))

    def representatives(self) -> dict[str, WorkloadFeatures]:
        """First-seen features of every finest bucket, sorted by bucket."""
        with self._lock:
            return dict(sorted(self._representatives.items()))

    # -- persistence -------------------------------------------------------

    def to_wire(self) -> dict:
        """JSON-safe state: every arm plus the bucket representatives."""
        with self._lock:
            return {
                "arms": [
                    {"bucket": bucket, "solver": solver, **arm.to_wire()}
                    for (bucket, solver), arm in sorted(self._arms.items())
                ],
                "representatives": {
                    bucket: features.to_dict()
                    for bucket, features in sorted(
                        self._representatives.items()
                    )
                },
            }

    @classmethod
    def from_wire(cls, wire) -> "PortfolioModel":
        """Inverse of :meth:`to_wire` (malformed input raises
        ``KeyError``/``TypeError``/``ValueError``)."""
        model = cls()
        for row in wire["arms"]:
            key = (str(row["bucket"]), str(row["solver"]))
            if key in model._arms:
                raise ValueError(f"duplicate arm {key}")
            model._arms[key] = _Arm.from_wire(row)
        for bucket, data in wire["representatives"].items():
            model._representatives[str(bucket)] = (
                WorkloadFeatures.from_dict(data)
            )
        return model

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return f"PortfolioModel({len(self._arms)} arms)"
