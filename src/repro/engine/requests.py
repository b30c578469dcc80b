"""Canonical solve requests and engine-level results.

The engine treats every solver invocation as a value: a
:class:`SolveRequest` names the problem (single- or multi-task), the
data, the solver, and its parameters.  Requests are *canonicalized*
into a structural cache key so that

* universes that differ only in switch names,
* task systems that differ only in task names, and
* multi-task requests that list the same (task, sequence) pairs in a
  different order

all map to the same key.  Schedules carry no universe or task-name
references, so a result computed for one member of such an equivalence
class is valid for every member — the only fix-up needed on a cache hit
is permuting multi-task schedule rows back into the request's task
order, which :func:`permute_mt_result` performs.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.core.context import RequirementSequence
from repro.core.machine import MachineModel
from repro.core.schedule import MultiTaskSchedule
from repro.core.task import TaskSystem
from repro.solvers.base import MTSolveResult, SolveResult

__all__ = [
    "SolveRequest",
    "CanonicalForm",
    "EngineResult",
    "canonicalize",
    "canonical_key",
    "model_signature",
    "packed_problem_key",
    "permute_mt_result",
    "to_canonical_result",
    "from_canonical_result",
]


def _freeze_params(params: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
    """Deterministic, hashable view of a solver-parameter mapping.

    Values must themselves be hashable (ints, floats, strings, frozen
    dataclasses like ``GAParams``); unhashable values fail loudly here
    rather than deep in the cache.
    """
    items = tuple(sorted(params.items()))
    for k, v in items:
        try:
            hash(v)
        except TypeError as exc:
            raise TypeError(
                f"solver parameter {k!r} is not hashable: {v!r}"
            ) from exc
    return items


def model_signature(model: MachineModel | None):
    """Hashable structural view of a machine model (None stays None)."""
    if model is None:
        return None
    return (
        model.machine_class.value,
        model.sync_mode.value,
        model.hyper_upload.value,
        model.reconfig_upload.value,
        model.allow_public_global,
    )


_model_signature = model_signature


def packed_problem_key(request: "SolveRequest") -> tuple:
    """Structural key of the *problem* behind a multi-task request.

    Unlike :func:`canonicalize`, the solver name and its parameters are
    excluded: two requests asking different solvers (or the same solver
    with different hyper-parameters) about the same instance share one
    lane-packed compile.  Task order is kept as-is — a
    :class:`~repro.core.packed.PackedProblem` is row-order sensitive.
    """
    if request.kind != "multi":
        raise ValueError("packed problems exist for multi-task requests only")
    system = request.system
    return (
        system.universe.size,
        tuple((task.local_mask, task.v) for task in system.tasks),
        tuple(seq.masks for seq in request.seqs),
        system.private_global_mask,
        system.public_global_mask,
        model_signature(request.model),
    )


@dataclass(frozen=True)
class SolveRequest:
    """One solver invocation as data.

    Use the :meth:`single` / :meth:`multi` constructors; the raw
    constructor exists for dataclass plumbing only.

    Attributes
    ----------
    kind:
        ``"single"`` or ``"multi"``.
    solver:
        Registry name of the solver to run (e.g. ``"single_dp"``,
        ``"mt_greedy"``).  :meth:`multi` defaults to ``"portfolio"``,
        which picks a solver per instance: the exact DP while it is
        affordable, the GA above that, and learned choices once the
        portfolio has seen similar instances.
    seq, w:
        Single-task payload (requirement sequence and hyper cost).
    system, seqs, model:
        Multi-task payload (task system, per-task sequences, machine
        model).
    params:
        Frozen solver keyword arguments, part of the cache key.
    """

    kind: str
    solver: str
    seq: RequirementSequence | None = None
    w: float | None = None
    system: TaskSystem | None = None
    seqs: tuple[RequirementSequence, ...] | None = None
    model: MachineModel | None = None
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def single(
        cls,
        seq: RequirementSequence,
        w: float,
        *,
        solver: str = "single_dp",
        **params,
    ) -> "SolveRequest":
        if w <= 0:
            raise ValueError("hyperreconfiguration cost w must be positive")
        return cls(
            kind="single",
            solver=solver,
            seq=seq,
            w=float(w),
            params=_freeze_params(params),
        )

    @classmethod
    def multi(
        cls,
        system: TaskSystem,
        seqs: Sequence[RequirementSequence],
        model: MachineModel | None = None,
        *,
        solver: str = "portfolio",
        **params,
    ) -> "SolveRequest":
        seqs = tuple(seqs)
        if len(seqs) != system.m:
            raise ValueError(
                f"need one sequence per task: got {len(seqs)} for m={system.m}"
            )
        return cls(
            kind="multi",
            solver=solver,
            system=system,
            seqs=seqs,
            model=model,
            params=_freeze_params(params),
        )

    @property
    def kwargs(self) -> dict[str, Any]:
        """Solver keyword arguments as a plain dict."""
        return dict(self.params)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == "single":
            n = len(self.seq) if self.seq is not None else 0
            return f"SolveRequest(single, solver={self.solver!r}, n={n})"
        m = self.system.m if self.system is not None else 0
        n = len(self.seqs[0]) if self.seqs else 0
        return f"SolveRequest(multi, solver={self.solver!r}, m={m}, n={n})"


@dataclass(frozen=True)
class CanonicalForm:
    """Structural cache key plus the task permutation that produced it.

    ``perm[c]`` is the request-order index of the task placed at
    canonical position ``c``; single-task requests use the identity.
    """

    key: tuple
    perm: tuple[int, ...] = ()


def canonicalize(request: SolveRequest) -> CanonicalForm:
    """Reduce a request to its structural equivalence class.

    Switch and task *names* never appear in the key — only universe
    size, masks, per-task costs, the machine model, the solver name and
    its parameters.  Multi-task (task, sequence) pairs are sorted by a
    structural sort key, so permuting the task list leaves the key
    unchanged.
    """
    if request.kind == "single":
        seq = request.seq
        key = (
            "single",
            request.solver,
            request.params,
            request.w,
            seq.universe.size,
            seq.masks,
        )
        return CanonicalForm(key=key)
    if request.kind != "multi":
        raise ValueError(f"unknown request kind {request.kind!r}")
    system = request.system
    rows = []
    for j, (task, seq) in enumerate(zip(system.tasks, request.seqs)):
        rows.append(((task.local_mask, task.v, seq.masks), j))
    rows.sort(key=lambda item: item[0])
    perm = tuple(j for _row, j in rows)
    key = (
        "multi",
        request.solver,
        request.params,
        system.universe.size,
        tuple(row for row, _j in rows),
        system.private_global_mask,
        system.public_global_mask,
        _model_signature(request.model),
    )
    return CanonicalForm(key=key, perm=perm)


def canonical_key(request: SolveRequest) -> tuple:
    """Shorthand for ``canonicalize(request).key``."""
    return canonicalize(request).key


def permute_mt_result(
    result: MTSolveResult, order: Sequence[int]
) -> MTSolveResult:
    """Reorder a multi-task result's schedule rows.

    ``order[k]`` names the source row placed at output position ``k``.
    Fully synchronized costs are invariant under task permutation (the
    per-step terms are maxima/sums over tasks), so only the schedule
    changes.
    """
    schedule = result.schedule
    indicators = schedule.indicators
    permuted = MultiTaskSchedule([indicators[k] for k in order])
    return MTSolveResult(
        schedule=permuted,
        cost=result.cost,
        optimal=result.optimal,
        solver=result.solver,
        stats=result.stats,
    )


def to_canonical_result(
    result: SolveResult | MTSolveResult, form: CanonicalForm
):
    """Rewrite a request-order result into canonical task order."""
    if not form.perm or not isinstance(result, MTSolveResult):
        return result
    # perm[c] = request index at canonical slot c → gather rows by perm.
    return permute_mt_result(result, form.perm)


def from_canonical_result(
    result: SolveResult | MTSolveResult, form: CanonicalForm
):
    """Rewrite a canonical-order result into this request's task order."""
    if not form.perm or not isinstance(result, MTSolveResult):
        return result
    inverse = [0] * len(form.perm)
    for c, j in enumerate(form.perm):
        inverse[j] = c
    return permute_mt_result(result, inverse)


@dataclass(frozen=True)
class EngineResult:
    """Outcome of one request through the engine.

    Attributes
    ----------
    request:
        The originating request.
    value:
        The solver result (``None`` on error/timeout).
    error:
        Human-readable failure description, ``None`` on success.
    cached:
        True when the value was served from the result cache (including
        duplicates deduplicated within one batch).
    elapsed:
        Solve wall time in seconds (0.0 for cache hits).
    """

    request: SolveRequest
    value: SolveResult | MTSolveResult | None = None
    error: str | None = None
    cached: bool = False
    elapsed: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None and self.value is not None

    @property
    def cost(self) -> float:
        if not self.ok:
            raise ValueError(f"request failed: {self.error}")
        return self.value.cost
