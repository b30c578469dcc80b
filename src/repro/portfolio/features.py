"""Workload features: the portfolio's view of a solve request.

The portfolio learns a mapping *workload shape → solver performance*,
so every request is first reduced to a small numeric vector — instance
dimensions plus the structural statistics of
:mod:`repro.analysis.trace_stats` (demand sparsity, periodicity, phase
segmentation) that the paper identifies as what makes a workload
hyperreconfiguration-friendly.

Extraction runs on the dispatch hot path, so all trace analysis is
bounded: only the first :data:`FEATURE_PREFIX_STEPS` steps feed
``detect_period``/``segment_phases`` (``detect_period`` is O(k²) in
the analyzed length).  Learned statistics are keyed by a coarse
*bucket* of the feature vector — log₂ size bins plus a sparsity decile
— with a fixed fallback chain toward coarser buckets so predictions
degrade gracefully on shapes the model has not seen at full
resolution.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import reduce

from repro.analysis.trace_stats import (
    demand_profile,
    detect_period,
    segment_phases,
)
from repro.core.context import RequirementSequence

__all__ = [
    "FEATURE_PREFIX_STEPS",
    "WorkloadFeatures",
    "features_of",
    "multi_features",
    "single_features",
]

#: Trace-analysis window: period/phase detection (and the demand
#: profile) look at this many leading steps at most, keeping feature
#: extraction O(prefix²) worst-case regardless of trace length.
FEATURE_PREFIX_STEPS = 256


def _ilog2(x: int) -> int:
    """Coarse log₂ bin of a non-negative count (0 → 0, 1 → 1, ...)."""
    return int(x).bit_length()


@dataclass(frozen=True)
class WorkloadFeatures:
    """Feature vector of one solve request.

    ``period == 0`` means no period was detected within the analyzed
    prefix; ``phases``/``mean_phase_len`` come from the greedy
    working-set segmentation of the combined demand trace.
    """

    kind: str
    m: int
    n: int
    universe_size: int
    lane_width: int
    mean_demand: float
    max_demand: int
    union_size: int
    sparsity: float
    period: int
    phases: int
    mean_phase_len: float

    def bucket(self) -> str:
        """Finest learned-statistics key: coarse bins, stable string."""
        return (
            f"{self.kind}/m{self.m}/n{_ilog2(self.n)}"
            f"/u{_ilog2(self.universe_size)}"
            f"/s{min(9, int(self.sparsity * 10))}"
            f"/p{1 if self.period else 0}"
            f"/f{_ilog2(self.phases)}"
        )

    def fallback_buckets(self) -> tuple[str, ...]:
        """Bucket keys from finest to coarsest.

        The model records every observation under all of these, and
        predictions walk the same chain: exact shape first, then shape
        without the structural bins, then (kind, m), then kind alone —
        so a cold fine bucket still inherits a usable prior.
        """
        return (
            self.bucket(),
            f"{self.kind}/m{self.m}/n{_ilog2(self.n)}"
            f"/u{_ilog2(self.universe_size)}",
            f"{self.kind}/m{self.m}",
            self.kind,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadFeatures":
        fields = {
            "kind": str(data["kind"]),
            "m": int(data["m"]),
            "n": int(data["n"]),
            "universe_size": int(data["universe_size"]),
            "lane_width": int(data["lane_width"]),
            "mean_demand": float(data["mean_demand"]),
            "max_demand": int(data["max_demand"]),
            "union_size": int(data["union_size"]),
            "sparsity": float(data["sparsity"]),
            "period": int(data["period"]),
            "phases": int(data["phases"]),
            "mean_phase_len": float(data["mean_phase_len"]),
        }
        return cls(**fields)


def _trace_features(
    seq: RequirementSequence, *, prefix: int
) -> tuple[float, int, int, float, int, int, float]:
    """(mean_demand, max_demand, union, sparsity, period, phases, len)."""
    bounded = (
        seq
        if len(seq) <= prefix
        else RequirementSequence(seq.universe, seq.masks[:prefix])
    )
    profile = demand_profile(bounded)
    period = detect_period(bounded) or 0
    segments = segment_phases(bounded)
    phases = len(segments)
    mean_phase = (len(bounded) / phases) if phases else 0.0
    return (
        profile.mean_demand,
        profile.max_demand,
        profile.total_union_size,
        profile.sparsity,
        period,
        phases,
        mean_phase,
    )


def single_features(
    seq: RequirementSequence, *, prefix: int = FEATURE_PREFIX_STEPS
) -> WorkloadFeatures:
    """Features of a single-task requirement sequence."""
    mean_d, max_d, union, sparsity, period, phases, mean_phase = (
        _trace_features(seq, prefix=prefix)
    )
    size = seq.universe.size
    return WorkloadFeatures(
        kind="single",
        m=1,
        n=len(seq),
        universe_size=size,
        lane_width=(size + 63) // 64,
        mean_demand=mean_d,
        max_demand=max_d,
        union_size=union,
        sparsity=sparsity,
        period=period,
        phases=phases,
        mean_phase_len=mean_phase,
    )


def multi_features(
    system, seqs, *, prefix: int = FEATURE_PREFIX_STEPS
) -> WorkloadFeatures:
    """Features of a multi-task instance.

    The structural statistics are computed on the *combined* demand
    trace (per-step OR over tasks): that is the load the machine
    actually reconfigures for, and it keeps extraction O(n) in the
    task count.
    """
    seqs = tuple(seqs)
    universe = system.universe
    if seqs:
        n = len(seqs[0])
        steps = min(n, prefix)
        combined_masks = [
            reduce(lambda a, b: a | b, (seq.masks[i] for seq in seqs), 0)
            for i in range(steps)
        ]
    else:
        n = 0
        combined_masks = []
    combined = RequirementSequence(universe, combined_masks)
    mean_d, max_d, union, sparsity, period, phases, mean_phase = (
        _trace_features(combined, prefix=prefix)
    )
    return WorkloadFeatures(
        kind="multi",
        m=system.m,
        n=n,
        universe_size=universe.size,
        lane_width=(universe.size + 63) // 64,
        mean_demand=mean_d,
        max_demand=max_d,
        union_size=union,
        sparsity=sparsity,
        period=period,
        phases=phases,
        mean_phase_len=mean_phase,
    )


def features_of(request, *, prefix: int = FEATURE_PREFIX_STEPS):
    """Features of a :class:`~repro.engine.requests.SolveRequest`."""
    if request.kind == "single":
        return single_features(request.seq, prefix=prefix)
    if request.kind == "multi":
        return multi_features(request.system, request.seqs, prefix=prefix)
    raise ValueError(f"unknown request kind {request.kind!r}")
