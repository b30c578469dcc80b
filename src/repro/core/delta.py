"""Incremental (delta) evaluation of the synchronized MT-Switch cost.

The metaheuristics in :mod:`repro.solvers` explore the ``m × n``
indicator matrix one small move at a time — toggle one bit, align one
column, shift one hyperreconfiguration — yet the reference objective
:func:`repro.core.sync_cost.sync_switch_cost` re-derives every block
union and every per-step term from scratch, O(m·n) per evaluation.
This module provides the bookkeeping that makes a move cost only what
it perturbs:

* :class:`DeltaEvaluator` — holds the per-step cost decomposition plus
  per-task block-union state for one schedule and supports
  ``apply(move) -> new_cost`` / ``revert()`` in
  O(affected steps × m) union/popcount work plus one O(n) float
  re-sum of the cached per-step totals (the re-sum is what keeps the
  running cost bit-identical to the reference instead of drifting).
  A flip/align/shift only invalidates the block(s) of the touched
  task(s), i.e. the window between the enclosing hyperreconfiguration
  steps; everything outside that window is reused.  The window is
  re-swept in one pass with one popcount per block, its steps are
  recomputed without looking at changeover/public terms that are not
  configured, and the undo record is the window's old slices, so a
  single-task move (a flip or shift) builds no dict, set or sorted
  list.  ``apply`` decodes a :class:`Move` into ``(task, step,
  new_value)`` bit changes; callers that decode their own moves (the
  annealing loop) hand those to ``apply_changes`` directly.
  Changeover hyper costs and the public-global pseudo-row are
  supported; an arbitrary whole-matrix replacement
  (:class:`SetRowsMove`) falls back to a full re-evaluation and is
  counted as such.
* :class:`FullEvaluator` — the same interface backed by the reference
  cost function on every ``apply``.  Used when incremental evaluation
  is disabled (``use_delta=False``) and by benchmarks as the
  full-evaluation baseline; every apply counts as a fallback.
* :class:`PopulationEvaluator` — the batched arm of the engine: scores
  a whole GA offspring population at once through the lane-packed
  representation of :mod:`repro.core.packed`.  Since the packed kernel
  expresses changeover symmetric differences and the public-global
  pseudo-row directly, *every* configuration is served batched — the
  per-chromosome reference fallback of earlier revisions is gone.

The evaluators no longer own a private vectorized kernel: whole-matrix
(re)initialization and batched evaluation delegate to
:class:`repro.core.packed.PackedProblem` (the lane-packed fast path),
while the per-move incremental updates keep the scalar int-mask
arithmetic, which is the right tool for single-move deltas.  Both arms
reproduce the reference arithmetic *operation by operation* (same
float-summation order, same ``max``/``sum`` choices), so evaluated
trajectories are bit-identical to full-evaluation trajectories — the
solver-exit cross-checks against :func:`sync_switch_cost` stay exact,
not approximate.  All evaluators expose uniform ``stats`` counters
(``delta_applies``, ``delta_full_evals``, ``delta_hit_rate``, …) that
the solvers surface through their result ``stats`` and the serving
engine aggregates into its metrics report.

``pack_mask_lanes`` and ``population_switch_cost`` are kept as thin
aliases over :mod:`repro.core.packed` for PR-2 callers.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.context import RequirementSequence
from repro.core.machine import MachineModel
from repro.core.packed import (
    PackedProblem,
    PackedPublic,
    pack_mask_lanes,
    population_switch_cost,
)
from repro.core.schedule import MultiTaskSchedule, ScheduleError
from repro.core.sync_cost import PublicGlobalPlan
from repro.core.task import TaskSystem

__all__ = [
    "FlipMove",
    "AlignMove",
    "ColumnFlipMove",
    "ShiftMove",
    "SetRowsMove",
    "DeltaEvaluator",
    "FullEvaluator",
    "make_evaluator",
    "PopulationEvaluator",
    "pack_mask_lanes",
    "population_switch_cost",
    "merge_evaluator_stats",
]


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlipMove:
    """Toggle the indicator of ``task`` at ``step`` (step ≥ 1)."""

    task: int
    step: int


@dataclass(frozen=True)
class AlignMove:
    """Copy ``source``'s indicator at ``step`` to every task."""

    step: int
    source: int


@dataclass(frozen=True)
class ColumnFlipMove:
    """Toggle the indicators of *all* tasks at ``step``.

    The only legal move shape on machines that hyperreconfigure all
    tasks at a time (``allows_partial_hyper == False``).
    """

    step: int


@dataclass(frozen=True)
class ShiftMove:
    """Move ``task``'s hyperreconfiguration from ``src`` to ``dst``."""

    task: int
    src: int
    dst: int


@dataclass(frozen=True)
class SetRowsMove:
    """Replace the whole indicator matrix (full re-evaluation fallback)."""

    rows: tuple[tuple[bool, ...], ...]

    @classmethod
    def of(cls, rows: Sequence[Sequence[bool]]) -> "SetRowsMove":
        return cls(tuple(tuple(bool(x) for x in row) for row in rows))


Move = FlipMove | AlignMove | ColumnFlipMove | ShiftMove | SetRowsMove


def _coerce_rows(rows_or_schedule) -> list[list[bool]]:
    if isinstance(rows_or_schedule, MultiTaskSchedule):
        return [list(r) for r in rows_or_schedule.indicators]
    return [[bool(x) for x in row] for row in rows_or_schedule]


def _resweep(row, masks, unions, sizes, lo: int, hi: int) -> None:
    """Recompute one task's block unions and sizes over steps ``[lo, hi)``.

    ``lo`` is a hyperreconfiguration step of the task and ``hi`` the
    next one after the edited region (or ``n``), so the window is
    self-contained.  One forward pass ORs each block's masks together
    and writes the block's union and its one popcount over the block.
    """
    start = lo
    union = masks[lo]
    for i in range(lo + 1, hi):
        if row[i]:
            span = i - start
            unions[start:i] = [union] * span
            sizes[start:i] = [union.bit_count()] * span
            start = i
            union = masks[i]
        else:
            union |= masks[i]
    span = hi - start
    unions[start:hi] = [union] * span
    sizes[start:hi] = [union.bit_count()] * span


class _EvaluatorBase:
    """Shared move decoding and validation for both evaluator kinds."""

    _rows: list[list[bool]]
    _m: int
    _n: int

    @property
    def rows(self) -> list[list[bool]]:
        """The current indicator matrix.  Treat as read-only: mutate
        only through :meth:`apply` / :meth:`revert` / :meth:`reset`."""
        return self._rows

    @property
    def m(self) -> int:
        return self._m

    @property
    def n(self) -> int:
        return self._n

    def schedule(self) -> MultiTaskSchedule:
        return MultiTaskSchedule(self._rows)

    # -- move decoding -----------------------------------------------------

    def _move_changes(self, move: Move) -> list[tuple[int, int, bool]]:
        """Decode ``move`` into effective ``(task, step, new_value)`` bit
        changes against the current rows (no-change entries dropped)."""
        rows, m, n = self._rows, self._m, self._n
        if isinstance(move, FlipMove):
            changes = [(move.task, move.step, not rows[move.task][move.step])]
        elif isinstance(move, AlignMove):
            value = rows[move.source][move.step]
            changes = [(k, move.step, value) for k in range(m)]
        elif isinstance(move, ColumnFlipMove):
            changes = [(k, move.step, not rows[k][move.step]) for k in range(m)]
        elif isinstance(move, ShiftMove):
            if not rows[move.task][move.src]:
                raise ScheduleError(
                    f"shift source ({move.task}, {move.src}) has no "
                    "hyperreconfiguration to move"
                )
            if rows[move.task][move.dst]:
                raise ScheduleError(
                    f"shift target ({move.task}, {move.dst}) is occupied"
                )
            changes = [
                (move.task, move.src, False),
                (move.task, move.dst, True),
            ]
        else:
            raise TypeError(f"unsupported move: {move!r}")
        for j, i, _ in changes:
            if not 0 <= j < m:
                raise ScheduleError(f"task index {j} out of range")
            if not 1 <= i < n:
                raise ScheduleError(
                    f"step {i} is not movable (step 0 is pinned, n={n})"
                )
        return [(j, i, val) for j, i, val in changes if rows[j][i] != val]

    def _check_column_uniformity(
        self, changes: Sequence[tuple[int, int, bool]]
    ) -> None:
        """Machines without partial hyperreconfigurability keep all rows
        identical; only whole-column changes to one value are legal."""
        per_step: dict[int, list[tuple[int, bool]]] = {}
        for j, i, val in changes:
            per_step.setdefault(i, []).append((j, val))
        for i, entries in per_step.items():
            values = {val for _, val in entries}
            if len(entries) != self._m or len(values) != 1:
                raise ScheduleError(
                    "this machine hyperreconfigures all tasks at a time; "
                    f"the move changes only a task subset at step {i}"
                )

    # -- applying ----------------------------------------------------------

    def apply(self, move: Move) -> float:
        """Apply ``move`` and return the new cost.

        The previous pending move (if any) is committed.  A
        :class:`SetRowsMove` replaces the matrix through a counted full
        re-evaluation (still revertible); every other move is decoded
        and validated into bit changes for :meth:`apply_changes`.
        """
        if isinstance(move, SetRowsMove):
            return self._apply_set_rows(move)
        return self.apply_changes(self._move_changes(move))

    def apply_changes(self, changes: Sequence[tuple[int, int, bool]]) -> float:
        """Apply decoded ``(task, step, new_value)`` bit changes.

        The entry point for callers that decode their own moves against
        :attr:`rows` (the annealing loop): each change must flip its
        bit, name a task in range and a step in ``[1, n)``, and no bit
        may appear twice — :meth:`apply` checks all of that for a
        :class:`Move`, this method does not.  An empty list is a counted
        no-op.  Revertible like :meth:`apply`.
        """
        if not changes:
            self._n_noops += 1
            self._undo = ("noop", self._cost)
            return self._cost
        if not self._partial_hyper_ok:
            self._check_column_uniformity(changes)
        return self._apply_changes(changes)


# ---------------------------------------------------------------------------
# Incremental evaluator
# ---------------------------------------------------------------------------


class DeltaEvaluator(_EvaluatorBase):
    """Incremental synchronized MT-Switch cost of one evolving schedule.

    Parameters mirror :func:`repro.core.sync_cost.sync_switch_cost`;
    construction compiles (or reuses a caller-supplied) lane-packed
    :class:`~repro.core.packed.PackedProblem` and seeds the per-step
    state from one vectorized full evaluation — bit-identical to the
    reference, which also validates the configuration.  After that,
    :meth:`apply` updates the per-task block unions and per-step cost
    terms only inside the window delimited by the enclosing
    hyperreconfiguration steps of each touched task, using scalar
    int-mask arithmetic (the right tool for single-move deltas).

    One move may be pending at a time: ``apply`` commits any previous
    move and remembers how to undo the new one; ``revert`` undoes the
    last applied move.  The running total is re-summed over the cached
    per-step totals in the reference's summation order, so the reported
    cost is always bit-identical to a from-scratch evaluation of the
    current rows.
    """

    def __init__(
        self,
        system: TaskSystem,
        seqs: Sequence[RequirementSequence],
        rows: MultiTaskSchedule | Sequence[Sequence[bool]],
        model: MachineModel | None = None,
        *,
        w: float = 0.0,
        public: PublicGlobalPlan | None = None,
        changeover: bool = False,
        changeover_fixed: Sequence[float] | None = None,
        packed: PackedProblem | None = None,
    ):
        if model is None:
            model = MachineModel.paper_experimental()
        self._system = system
        self._seqs = list(seqs)
        self._model = model
        self._w = float(w)
        self._public = public
        self._changeover = bool(changeover)
        self._changeover_fixed = (
            tuple(changeover_fixed) if changeover_fixed is not None else None
        )
        self._m = system.m
        self._masks = [seq.masks for seq in self._seqs]
        self._v = system.v
        if packed is not None and packed.matches(system, self._seqs, model):
            self._packed = packed
        else:
            self._packed = PackedProblem.compile(system, self._seqs, model)
        self._hyper_parallel = self._packed.hyper_parallel
        self._reconf_parallel = self._packed.reconf_parallel
        self._partial_hyper_ok = self._packed.partial_hyper_ok
        if public is not None:
            self._pub_packed = PackedPublic.compile(public, self._packed.n)
            self._pub_sizes = self._pub_packed.sizes.tolist()
            self._pub_hyper = {
                i for i, flag in enumerate(self._pub_packed.hyper) if flag
            }
            self._pub_v = self._pub_packed.v
        else:
            self._pub_packed = None
            self._pub_sizes = None
            self._pub_hyper = None
            self._pub_v = 0.0
        self._n_applies = 0
        self._n_full = 0
        self._n_noops = 0
        self._n_reverts = 0
        self._n_resets = 0
        self._steps_recomputed = 0
        self._undo = None
        self._init_state(_coerce_rows(rows))

    # -- (re)initialization ------------------------------------------------

    def _init_state(self, rows: list[list[bool]]) -> None:
        evaluation = self._packed.evaluate_rows(
            rows,
            w=self._w,
            public=self._pub_packed,
            changeover=self._changeover,
            changeover_fixed=self._changeover_fixed,
        )
        self._rows = rows
        self._n = self._packed.n
        self._unions = evaluation.union_masks()
        self._sizes = evaluation.sizes.tolist()
        self._step_hyper = evaluation.step_hyper.tolist()
        self._step_reconf = evaluation.step_reconf.tolist()
        self._step_total = [
            h + r for h, r in zip(self._step_hyper, self._step_reconf)
        ]
        self._cost = evaluation.cost
        self._undo = None

    def reset(self, rows: MultiTaskSchedule | Sequence[Sequence[bool]]) -> float:
        """Replace the schedule wholesale (full re-evaluation)."""
        self._n_resets += 1
        self._init_state(_coerce_rows(rows))
        return self._cost

    # -- evaluation --------------------------------------------------------

    @property
    def cost(self) -> float:
        """Cost of the current rows (bit-identical to the reference)."""
        return self._cost

    def reference_cost(self) -> float:
        """From-scratch oracle evaluation of the current rows."""
        from repro.core.sync_cost import sync_switch_cost

        return sync_switch_cost(
            self._system,
            self._seqs,
            MultiTaskSchedule(self._rows),
            self._model,
            w=self._w,
            public=self._public,
            changeover=self._changeover,
            changeover_fixed=self._changeover_fixed,
        )

    def _apply_set_rows(self, move: SetRowsMove) -> float:
        old = (
            self._rows,
            self._unions,
            self._sizes,
            self._step_hyper,
            self._step_reconf,
            self._step_total,
            self._cost,
            self._n,
        )
        self._n_full += 1
        self._init_state(_coerce_rows(move.rows))
        self._undo = ("full", old)
        return self._cost

    def _apply_changes(self, changes: Sequence[tuple[int, int, bool]]) -> float:
        rows, n = self._rows, self._n
        j0 = changes[0][0]
        if len(changes) == 1 or all(change[0] == j0 for change in changes):
            groups = ((j0, changes),)
        else:
            per_task: dict[int, list[tuple[int, int, bool]]] = {}
            for change in changes:
                per_task.setdefault(change[0], []).append(change)
            groups = per_task.items()

        union_undo = []
        windows = []
        for j, edits in groups:
            row = rows[j]
            if len(edits) == 1:
                first = last = edits[0][1]
            else:
                steps = [i for _, i, _ in edits]
                first, last = min(steps), max(steps)
            # The window runs from the task's hyperreconfiguration before
            # the first edit to its next one after the last edit (or n):
            # block unions outside it are unaffected.
            lo = first - 1
            while not row[lo]:
                lo -= 1
            hi = last + 1
            while hi < n and not row[hi]:
                hi += 1
            unions, sizes = self._unions[j], self._sizes[j]
            union_undo.append(
                (row, edits, unions, sizes, lo, hi, unions[lo:hi], sizes[lo:hi])
            )
            for _, i, val in edits:
                row[i] = val
            _resweep(row, self._masks[j], unions, sizes, lo, hi)
            # Under changeover the hyper cost at the next hyper step
            # depends on the union of the step before it, which just
            # changed.
            windows.append((lo, hi + 1 if self._changeover and hi < n else hi))

        if len(windows) == 1:
            runs = windows
            recomputed = windows[0][1] - windows[0][0]
        else:
            affected = sorted(
                set().union(*(range(lo, hi) for lo, hi in windows))
            )
            recomputed = len(affected)
            runs = []
            for i in affected:
                if runs and runs[-1][1] == i:
                    runs[-1] = (runs[-1][0], i + 1)
                else:
                    runs.append((i, i + 1))
        hyper, reconf, total = (
            self._step_hyper, self._step_reconf, self._step_total
        )
        step_undo = []
        for lo, hi in runs:
            step_undo.append(
                (lo, hi, hyper[lo:hi], reconf[lo:hi], total[lo:hi])
            )
            self._recompute_steps(lo, hi)
        old_cost = self._cost
        self._cost = float(self._w + sum(total))
        self._n_applies += 1
        self._steps_recomputed += recomputed
        self._undo = ("delta", union_undo, step_undo, old_cost)
        return self._cost

    def revert(self) -> float:
        """Undo the last applied move and return the restored cost."""
        if self._undo is None:
            raise RuntimeError("no applied move to revert")
        undo, self._undo = self._undo, None
        self._n_reverts += 1
        if undo[0] == "noop":
            self._cost = undo[1]
            return self._cost
        if undo[0] == "full":
            (
                self._rows,
                self._unions,
                self._sizes,
                self._step_hyper,
                self._step_reconf,
                self._step_total,
                self._cost,
                self._n,
            ) = undo[1]
            return self._cost
        _, union_undo, step_undo, old_cost = undo
        hyper, reconf, total = (
            self._step_hyper, self._step_reconf, self._step_total
        )
        for lo, hi, old_hyper, old_reconf, old_total in step_undo:
            hyper[lo:hi] = old_hyper
            reconf[lo:hi] = old_reconf
            total[lo:hi] = old_total
        for row, edits, unions, sizes, lo, hi, old_unions, old_sizes in (
            union_undo
        ):
            for _, i, val in edits:
                row[i] = not val
            unions[lo:hi] = old_unions
            sizes[lo:hi] = old_sizes
        self._cost = old_cost
        return self._cost

    # -- internals ---------------------------------------------------------

    def _recompute_steps(self, lo: int, hi: int) -> None:
        """Recompute the cost terms of steps ``[lo, hi)``, mirroring the
        reference arithmetic (same task order, same float-summation
        order).  The changeover and public-row terms are only looked at
        when they are configured."""
        rows = self._rows
        sizes = self._sizes
        step_hyper = self._step_hyper
        step_reconf = self._step_reconf
        step_total = self._step_total
        hyper_of = max if self._hyper_parallel else sum
        reconf_of = max if self._reconf_parallel else sum
        if not self._changeover and self._pub_sizes is None:
            task_v = list(zip(self._v, rows))
            for i in range(lo, hi):
                costs = [v for v, row in task_v if row[i]]
                hyper = float(hyper_of(costs)) if costs else 0.0
                reconf = float(reconf_of([size[i] for size in sizes]))
                step_hyper[i] = hyper
                step_reconf[i] = reconf
                step_total[i] = hyper + reconf
            return
        m = self._m
        unions = self._unions
        cfix = self._changeover_fixed
        pub_hyper, pub_sizes = self._pub_hyper, self._pub_sizes
        for i in range(lo, hi):
            if self._changeover:
                costs = []
                for j in range(m):
                    if rows[j][i]:
                        fixed = cfix[j] if cfix else 0.0
                        prev = unions[j][i - 1] if i > 0 else 0
                        costs.append(fixed + (unions[j][i] ^ prev).bit_count())
            else:
                costs = [self._v[j] for j in range(m) if rows[j][i]]
            if pub_hyper is not None and i in pub_hyper:
                costs.append(self._pub_v)
            hyper = float(hyper_of(costs)) if costs else 0.0
            reconf = float(reconf_of([size[i] for size in sizes]))
            if pub_sizes is not None:
                if self._reconf_parallel:
                    reconf = max(reconf, float(pub_sizes[i]))
                else:
                    reconf += float(pub_sizes[i])
            step_hyper[i] = hyper
            step_reconf[i] = reconf
            step_total[i] = hyper + reconf

    # -- introspection -----------------------------------------------------

    @property
    def stats(self) -> dict:
        """Uniform evaluator counters (see module docstring)."""
        denom = self._n_applies + self._n_full
        return {
            "delta_applies": self._n_applies,
            "delta_full_evals": self._n_full,
            "delta_noops": self._n_noops,
            "delta_reverts": self._n_reverts,
            "delta_resets": self._n_resets,
            "delta_steps_recomputed": self._steps_recomputed,
            "delta_hit_rate": (self._n_applies / denom) if denom else 1.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaEvaluator(m={self._m}, n={self._n}, cost={self._cost}, "
            f"applies={self._n_applies})"
        )


# ---------------------------------------------------------------------------
# Full-evaluation fallback
# ---------------------------------------------------------------------------


class FullEvaluator(_EvaluatorBase):
    """Reference-backed evaluator with the :class:`DeltaEvaluator` API.

    Every ``apply`` performs a from-scratch
    :func:`~repro.core.sync_cost.sync_switch_cost` evaluation and is
    counted as a full (fallback) evaluation.  Serves as the baseline in
    benchmarks and as the safety net for ``use_delta=False``.
    """

    def __init__(
        self,
        system: TaskSystem,
        seqs: Sequence[RequirementSequence],
        rows: MultiTaskSchedule | Sequence[Sequence[bool]],
        model: MachineModel | None = None,
        *,
        w: float = 0.0,
        public: PublicGlobalPlan | None = None,
        changeover: bool = False,
        changeover_fixed: Sequence[float] | None = None,
    ):
        if model is None:
            model = MachineModel.paper_experimental()
        self._system = system
        self._seqs = list(seqs)
        self._model = model
        self._kwargs = dict(
            w=w,
            public=public,
            changeover=changeover,
            changeover_fixed=changeover_fixed,
        )
        self._m = system.m
        self._partial_hyper_ok = model.machine_class.allows_partial_hyper
        self._n_full = 0
        self._n_noops = 0
        self._n_reverts = 0
        self._n_resets = 0
        self._undo = None
        self._rows = _coerce_rows(rows)
        self._n = len(self._rows[0]) if self._rows else 0
        self._cost = self._evaluate()

    def _evaluate(self) -> float:
        from repro.core.sync_cost import sync_switch_cost

        return sync_switch_cost(
            self._system,
            self._seqs,
            MultiTaskSchedule(self._rows),
            self._model,
            **self._kwargs,
        )

    def reset(self, rows: MultiTaskSchedule | Sequence[Sequence[bool]]) -> float:
        self._n_resets += 1
        self._rows = _coerce_rows(rows)
        self._n = len(self._rows[0]) if self._rows else 0
        self._undo = None
        self._cost = self._evaluate()
        return self._cost

    @property
    def cost(self) -> float:
        return self._cost

    def reference_cost(self) -> float:
        return self._evaluate()

    def _apply_set_rows(self, move: SetRowsMove) -> float:
        old = (self._rows, self._cost, self._n)
        self._rows = _coerce_rows(move.rows)
        self._n = len(self._rows[0]) if self._rows else 0
        self._n_full += 1
        self._cost = self._evaluate()
        self._undo = ("full", old)
        return self._cost

    def _apply_changes(self, changes: Sequence[tuple[int, int, bool]]) -> float:
        old_bits = [(j, i, self._rows[j][i]) for j, i, _ in changes]
        for j, i, val in changes:
            self._rows[j][i] = val
        old_cost = self._cost
        self._n_full += 1
        self._cost = self._evaluate()
        self._undo = ("delta", old_bits, old_cost)
        return self._cost

    def revert(self) -> float:
        if self._undo is None:
            raise RuntimeError("no applied move to revert")
        undo, self._undo = self._undo, None
        self._n_reverts += 1
        if undo[0] == "noop":
            self._cost = undo[1]
            return self._cost
        if undo[0] == "full":
            self._rows, self._cost, self._n = undo[1]
            return self._cost
        _, old_bits, old_cost = undo
        for j, i, val in old_bits:
            self._rows[j][i] = val
        self._cost = old_cost
        return self._cost

    @property
    def stats(self) -> dict:
        return {
            "delta_applies": 0,
            "delta_full_evals": self._n_full,
            "delta_noops": self._n_noops,
            "delta_reverts": self._n_reverts,
            "delta_resets": self._n_resets,
            "delta_steps_recomputed": 0,
            "delta_hit_rate": 0.0 if self._n_full else 1.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FullEvaluator(m={self._m}, n={self._n}, cost={self._cost}, "
            f"full_evals={self._n_full})"
        )


def make_evaluator(
    system: TaskSystem,
    seqs: Sequence[RequirementSequence],
    rows: MultiTaskSchedule | Sequence[Sequence[bool]],
    model: MachineModel | None = None,
    *,
    w: float = 0.0,
    public: PublicGlobalPlan | None = None,
    changeover: bool = False,
    changeover_fixed: Sequence[float] | None = None,
    use_delta: bool = True,
    packed: PackedProblem | None = None,
) -> DeltaEvaluator | FullEvaluator:
    """Build the best evaluator for a configuration.

    Every machine model / changeover / public-global combination the
    reference cost function accepts is delta-evaluable today, so this
    returns a :class:`DeltaEvaluator` unless ``use_delta`` is False
    (benchmark baselines, paranoia switches); the factory exists so
    future configurations that cannot be delta-evaluated can degrade to
    :class:`FullEvaluator` without touching the solvers.

    ``packed`` optionally reuses an already-compiled
    :class:`~repro.core.packed.PackedProblem` for this instance (the
    batch engine compiles one per structurally-deduped request).  The
    :class:`FullEvaluator` deliberately ignores it: it exists to be the
    scalar-reference baseline, not a fast path.
    """
    if use_delta:
        return DeltaEvaluator(
            system,
            seqs,
            rows,
            model,
            w=w,
            public=public,
            changeover=changeover,
            changeover_fixed=changeover_fixed,
            packed=packed,
        )
    return FullEvaluator(
        system,
        seqs,
        rows,
        model,
        w=w,
        public=public,
        changeover=changeover,
        changeover_fixed=changeover_fixed,
    )


# ---------------------------------------------------------------------------
# Batched population evaluation (the GA's offspring arm)
# ---------------------------------------------------------------------------


class PopulationEvaluator:
    """Batched offspring evaluation for population metaheuristics.

    A thin counter-discipline wrapper over
    :meth:`repro.core.packed.PackedProblem.population_cost`: offspring
    evaluated through the lane-packed kernel count as ``delta_applies``.
    Because the packed representation expresses changeover symmetric
    differences and the public-global pseudo-row directly, *every*
    configuration is served batched — ``delta_full_evals`` stays 0 and
    remains only for the metrics layer's uniform aggregation.
    """

    def __init__(
        self,
        system: TaskSystem,
        seqs: Sequence[RequirementSequence],
        model: MachineModel | None = None,
        *,
        changeover: bool = False,
        changeover_fixed: Sequence[float] | None = None,
        public: PublicGlobalPlan | None = None,
        packed: PackedProblem | None = None,
    ):
        if model is None:
            model = MachineModel.paper_experimental()
        self._system = system
        self._seqs = list(seqs)
        self._model = model
        self._changeover = bool(changeover)
        self._changeover_fixed = (
            tuple(changeover_fixed) if changeover_fixed is not None else None
        )
        if packed is not None and packed.matches(system, self._seqs, model):
            self._packed = packed
        else:
            self._packed = PackedProblem.compile(system, self._seqs, model)
        self._public = (
            PackedPublic.compile(public, self._packed.n)
            if public is not None
            else None
        )
        self._n_batches = 0
        self._n_batched = 0
        self._n_full = 0

    @property
    def batched(self) -> bool:
        """True — the packed kernel serves every configuration."""
        return True

    @property
    def packed(self) -> PackedProblem:
        """The compiled representation behind this evaluator."""
        return self._packed

    def evaluate(self, pop: np.ndarray) -> np.ndarray:
        """Cost vector for a ``(P, m, n)`` boolean population."""
        self._n_batches += 1
        self._n_batched += len(pop)
        return self._packed.population_cost(
            pop,
            public=self._public,
            changeover=self._changeover,
            changeover_fixed=self._changeover_fixed,
        )

    @property
    def stats(self) -> dict:
        denom = self._n_batched + self._n_full
        return {
            "delta_applies": self._n_batched,
            "delta_full_evals": self._n_full,
            "delta_batches": self._n_batches,
            "delta_hit_rate": (self._n_batched / denom) if denom else 1.0,
        }


def merge_evaluator_stats(
    stats: dict, evaluator_stats: Mapping
) -> dict:
    """Fold evaluator counters into a solver ``stats`` dict (in place).

    Solvers call this right before returning so the serving engine's
    metrics layer can aggregate ``delta_applies`` / ``delta_full_evals``
    across requests without knowing which solver produced them.
    """
    for key in (
        "delta_applies",
        "delta_full_evals",
        "delta_hit_rate",
        "delta_steps_recomputed",
    ):
        if key in evaluator_stats:
            stats[key] = evaluator_stats[key]
    return stats
