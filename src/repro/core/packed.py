"""Lane-packed NumPy representation of switch-model problems.

Every cost in the paper's switch model is a popcount over window unions
of switch sets.  Historically the repo carried three disjoint encodings
of that data — arbitrary-precision int masks in
:mod:`repro.core.context`, a private uint64 kernel inside
:mod:`repro.core.delta`, and per-move Python loops in the
metaheuristics.  This module is the single vectorized representation
that replaces the private kernels:

* masks are packed into ``L = ceil(|U| / 64)`` uint64 **lanes**, so
  universes beyond 64 switches keep the vectorized path instead of
  silently degrading to scalar code;
* :class:`PackedProblem` compiles a :class:`~repro.core.task.TaskSystem`
  plus per-task requirement sequences into an ``(m, n, L)`` matrix and
  evaluates whole schedules — or whole populations of schedules — with
  one segmented OR (``bitwise_or.reduceat`` over the blocks of every
  chromosome at once, no loop over steps) and one popcount per block.
  Block unions, popcounts and the symmetric differences of the
  changeover variant are all expressible, which is what unlocks the
  GA's batched changeover and public-global paths;
* :class:`PackedSequence` is the single-task (m = 1) counterpart used
  by the Section 2 cost-model fast paths;
* :class:`PackedWindows` is an O(n log n) sparse table answering
  arbitrary half-open window-union queries in O(1) lane operations
  (the private-global segmentation DP issues O(n²) of them);
* :class:`PackedStream` is the *incremental* counterpart for online
  scheduling: requirements arrive one chunk at a time, and the state
  is the step count plus the last ``history`` rows — exactly what the
  online policy cursors (:mod:`repro.solvers.online`) read to form
  working-set windows that reach back across a chunk boundary.

**Bit-identity contract.**  The scalar int-mask implementations
(:func:`repro.core.sync_cost.sync_switch_cost` and friends) remain the
correctness oracle; every evaluator here reproduces their arithmetic
*operation by operation* — same float-summation order (task-sequential
sums accumulate task by task, the grand total re-sums per-step totals
left to right with a sequential ``cumsum``), same ``max``/``sum``
choices — so packed costs are
bit-identical to the reference, not approximately equal.  The
equivalence is enforced by a randomized property suite across universe
sizes that cross the 64/128-bit lane boundaries
(``tests/test_packed.py``) and re-measured by benchmark E15.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.machine import MachineModel, UploadMode
from repro.core.schedule import (
    MultiTaskSchedule,
    ScheduleError,
    SingleTaskSchedule,
)
from repro.util.bitset import popcount_u64

__all__ = [
    "LANE_BITS",
    "lane_count",
    "lanes_fit",
    "masks_to_lanes",
    "lanes_to_masks",
    "masks_to_u64",
    "u64_to_mask",
    "pack_requirements",
    "pack_mask_lanes",
    "population_switch_cost",
    "PackedEvaluation",
    "PackedProblem",
    "PackedPublic",
    "PackedSequence",
    "PackedStream",
    "PackedWindows",
]

#: Width of one packed lane.
LANE_BITS = 64
_LANE_MASK = (1 << LANE_BITS) - 1
_U64_ZERO = np.uint64(0)
_LE_U64 = np.dtype("<u8")


# ---------------------------------------------------------------------------
# Lane packing primitives
# ---------------------------------------------------------------------------


def lane_count(width: int) -> int:
    """Number of uint64 lanes needed for a ``width``-switch universe."""
    if width < 0:
        raise ValueError("universe width must be non-negative")
    return max(1, -(-width // LANE_BITS))


def lanes_fit(lanes: np.ndarray, width: int) -> bool:
    """Whether ``(..., L)`` lanes hold only switches of a ``width``-switch
    universe: ``L`` is its lane count and no row sets a bit at or above
    ``width``.  The one range check of every lane-packed ingest path
    (the wire decoders and :meth:`StreamSession.feed_many`)."""
    L = lane_count(width)
    if lanes.shape[-1] != L:
        return False
    # Some row sets a bit at or above ``width`` exactly when the OR of
    # the top lanes does at or above the top lane's share of the width.
    tail_bits = width - (L - 1) * LANE_BITS
    return tail_bits == LANE_BITS or not (
        int(np.bitwise_or.reduce(lanes[..., L - 1], axis=None)) >> tail_bits
    )


def masks_to_lanes(masks: Iterable[int], width: int) -> np.ndarray:
    """Pack int bitmasks of a ``width``-bit universe into ``(n, L)`` lanes."""
    masks = list(masks)
    L = lane_count(width)
    out = np.zeros((len(masks), L), dtype=np.uint64)
    for i, mask in enumerate(masks):
        if mask < 0:
            raise ValueError("bitmask must be non-negative")
        if mask >> (LANE_BITS * L):
            raise ValueError(
                f"mask {mask:#x} does not fit into {L} packed lane(s)"
            )
        for lane in range(L):
            out[i, lane] = (mask >> (LANE_BITS * lane)) & _LANE_MASK
    return out


def lanes_to_masks(lanes: np.ndarray):
    """Inverse of :func:`masks_to_lanes` over the trailing lane axis.

    Accepts any ``(..., L)`` array; returns nested lists of Python int
    masks matching the leading shape (a single int for 1-D input).
    One lane is a plain ``tolist``; wider rows are read as one
    little-endian integer each (``int.from_bytes`` over the row's
    bytes, lane 0 least significant).
    """
    arr = np.ascontiguousarray(lanes, dtype=_LE_U64)
    L = arr.shape[-1]
    if L == 1:
        return arr[..., 0].tolist()
    from_bytes = int.from_bytes
    if arr.ndim == 1:
        return from_bytes(arr.tobytes(), "little")
    masks = [
        from_bytes(row, "little")
        for row in arr.view(f"V{8 * L}").ravel().tolist()
    ]
    if arr.ndim == 2:
        return masks
    return np.array(masks, dtype=object).reshape(arr.shape[:-1]).tolist()


def masks_to_u64(masks: Iterable[int]) -> np.ndarray:
    """Pack Python-int masks (must fit in 64 bits) into a uint64 vector.

    The single-lane special case of :func:`masks_to_lanes`; kept as the
    canonical home of the PR-2-era :mod:`repro.util.bitset` helper.
    """
    out = []
    for m in masks:
        if m < 0 or m >= 1 << LANE_BITS:
            raise ValueError("mask does not fit into a uint64 lane")
        out.append(np.uint64(m))
    return np.asarray(out, dtype=np.uint64)


def u64_to_mask(x: np.uint64 | int) -> int:
    """Convert a uint64 lane back into a Python int mask."""
    return int(x)


def pack_requirements(seqs: Sequence) -> np.ndarray:
    """Pack per-task requirement sequences into an ``(m, n, L)`` matrix.

    ``seqs`` are :class:`~repro.core.context.RequirementSequence`-like
    objects (``.masks`` and ``.universe.size`` are all that is used).
    """
    if not seqs:
        raise ValueError("need at least one sequence")
    width = seqs[0].universe.size
    n = len(seqs[0])
    for seq in seqs:
        if seq.universe.size != width or len(seq) != n:
            raise ValueError("sequences must share universe and length")
    out = np.zeros((len(seqs), n, lane_count(width)), dtype=np.uint64)
    for j, seq in enumerate(seqs):
        out[j] = masks_to_lanes(seq.masks, width)
    return out


# ---------------------------------------------------------------------------
# Public-global pseudo-row
# ---------------------------------------------------------------------------


class PackedPublic:
    """Pre-packed public-global pseudo-row.

    Holds the per-step hypercontext sizes, the hyper-step indicator
    vector and the public hyperreconfiguration cost — everything the
    packed evaluators need, precomputed once so repeated evaluations
    (GA generations, delta resets) do not re-derive the row.
    """

    __slots__ = ("sizes", "sizes_f", "hyper", "v", "n")

    def __init__(self, sizes, hyper, v: float):
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.sizes_f = self.sizes.astype(np.float64)
        self.hyper = np.asarray(hyper, dtype=bool)
        self.v = float(v)
        self.n = len(self.sizes)
        if len(self.hyper) != self.n:
            raise ValueError("sizes and hyper must have equal length")

    @classmethod
    def compile(cls, public, n: int) -> "PackedPublic":
        """From a :class:`~repro.core.sync_cost.PublicGlobalPlan`
        (duck-typed: ``.seq``, ``.hyper_steps``, ``.v``,
        ``.step_masks()``) or an already-packed row."""
        if isinstance(public, cls):
            if public.n != n:
                raise ScheduleError("public sequence has wrong length")
            return public
        if len(public.seq) != n:
            raise ScheduleError("public sequence has wrong length")
        hyper = np.zeros(n, dtype=bool)
        for i in public.hyper_steps:
            hyper[i] = True
        sizes = [m.bit_count() for m in public.step_masks()]
        return cls(sizes, hyper, public.v)


# ---------------------------------------------------------------------------
# Multi-task packed problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PackedEvaluation:
    """Per-step cost decomposition of one schedule.

    Float entries are bit-identical to the corresponding
    :class:`~repro.core.sync_cost.StepCost` fields of the reference
    breakdown.
    """

    cost: float
    step_hyper: np.ndarray  # (n,) float64
    step_reconf: np.ndarray  # (n,) float64
    sizes: np.ndarray  # (m, n) int64 — per-task block-union popcounts
    union_lanes: np.ndarray  # (m, n, L) uint64 — per-task block unions

    def union_masks(self) -> list[list[int]]:
        """Block unions as int masks (the scalar oracle's encoding)."""
        return lanes_to_masks(self.union_lanes)


class PackedProblem:
    """One compiled switch-model instance: ``(m, n, L)`` uint64 lanes.

    Compile once per problem (the batch engine does so per
    structurally-deduped request), evaluate many times: single
    schedules via :meth:`cost` / :meth:`evaluate_rows`, whole
    populations via :meth:`population_cost`.  Objective *variants*
    (``w``, changeover, public-global) are evaluation-time parameters,
    so one compiled representation serves every cost variant of the
    same instance.
    """

    __slots__ = (
        "lanes",
        "m",
        "n",
        "width",
        "v",
        "hyper_parallel",
        "reconf_parallel",
        "partial_hyper_ok",
        "context_synced",
        "_masks_sig",
        "_v_sig",
    )

    def __init__(
        self,
        lanes: np.ndarray,
        v,
        *,
        width: int | None = None,
        hyper_parallel: bool = True,
        reconf_parallel: bool = True,
        partial_hyper_ok: bool = True,
        context_synced: bool = True,
    ):
        lanes = np.ascontiguousarray(lanes, dtype=np.uint64)
        if lanes.ndim != 3:
            raise ValueError("lanes must have shape (m, n, L)")
        self.lanes = lanes
        self.m, self.n, L = lanes.shape
        self.width = int(width) if width is not None else LANE_BITS * L
        self.v = np.asarray(v, dtype=np.float64)
        if self.v.shape != (self.m,):
            raise ValueError("need one hyperreconfiguration cost v_j per task")
        self.hyper_parallel = bool(hyper_parallel)
        self.reconf_parallel = bool(reconf_parallel)
        self.partial_hyper_ok = bool(partial_hyper_ok)
        self.context_synced = bool(context_synced)
        self._masks_sig = None
        self._v_sig = tuple(float(x) for x in self.v)

    @property
    def lane_count(self) -> int:
        return self.lanes.shape[2]

    @classmethod
    def compile(cls, system, seqs: Sequence, model=None) -> "PackedProblem":
        """Compile a task system + per-task requirement sequences.

        ``model`` defaults to the paper's experimental machine.  The
        compiled object is immutable and pickles cheaply, so it can be
        shipped to multiprocessing workers alongside a request.
        """
        if model is None:
            model = MachineModel.paper_experimental()
        if len(seqs) != system.m:
            raise ScheduleError("system and sequences disagree on m")
        n = len(seqs[0]) if seqs else 0
        for j, seq in enumerate(seqs):
            if len(seq) != n:
                raise ScheduleError(f"sequence for task {j} has wrong length")
            if seq.universe.size != system.universe.size:
                raise ScheduleError(
                    f"sequence for task {j} uses a different universe"
                )
        obj = cls(
            pack_requirements(seqs),
            system.v,
            width=system.universe.size,
            hyper_parallel=model.hyper_upload is UploadMode.TASK_PARALLEL,
            reconf_parallel=model.reconfig_upload is UploadMode.TASK_PARALLEL,
            partial_hyper_ok=model.machine_class.allows_partial_hyper,
            context_synced=model.sync_mode.context_synced,
        )
        obj._masks_sig = tuple(seq.masks for seq in seqs)
        return obj

    def matches(self, system, seqs: Sequence, model=None) -> bool:
        """Cheap structural check: was this compiled for that instance?

        Solvers use it to decide whether a caller-supplied compile can
        be trusted or a fresh one is needed.
        """
        if model is None:
            model = MachineModel.paper_experimental()
        n = len(seqs[0]) if seqs else 0
        if (
            system.m != self.m
            or len(seqs) != self.m
            or n != self.n
            or (seqs and seqs[0].universe.size != self.width)
        ):
            return False
        if (
            self.hyper_parallel
            is not (model.hyper_upload is UploadMode.TASK_PARALLEL)
            or self.reconf_parallel
            is not (model.reconfig_upload is UploadMode.TASK_PARALLEL)
            or self.partial_hyper_ok is not model.machine_class.allows_partial_hyper
            or self.context_synced is not model.sync_mode.context_synced
        ):
            return False
        if self._v_sig != tuple(float(x) for x in system.v):
            return False
        sig = tuple(seq.masks for seq in seqs)
        if self._masks_sig is not None:
            return self._masks_sig == sig
        return bool(np.array_equal(self.lanes, pack_requirements(seqs)))

    # -- population/schedule coercion ---------------------------------------

    def _coerce_population(self, pop) -> np.ndarray:
        if isinstance(pop, MultiTaskSchedule):
            pop = np.asarray(pop.indicators, dtype=bool)[None, :, :]
        else:
            try:
                pop = np.asarray(pop, dtype=bool)
            except ValueError as exc:  # ragged row lists
                raise ScheduleError(
                    "all task rows must have equal length"
                ) from exc
            if pop.ndim == 2:
                pop = pop[None, :, :]
        if pop.ndim != 3 or pop.shape[1] != self.m or pop.shape[2] != self.n:
            raise ScheduleError(
                f"population shape {pop.shape} does not match "
                f"(·, m={self.m}, n={self.n})"
            )
        return pop

    def _validate_population(self, pop: np.ndarray) -> None:
        if self.n == 0:
            return
        if not pop[:, :, 0].all():
            raise ScheduleError("every task must hyperreconfigure at step 0")
        if not self.partial_hyper_ok and (pop != pop[:, :1, :]).any():
            raise ScheduleError(
                "a partially reconfigurable machine hyperreconfigures all "
                "tasks at a time; indicator rows must be identical"
            )

    # -- sweeps --------------------------------------------------------------

    def _sweep(self, pop: np.ndarray, keep_unions: bool):
        """Block-union sweep: ``(sizes (P,m,n), unions (P,m,n,L)|None)``.

        One segmented OR over the whole population, the vectorized form
        of :meth:`~repro.core.schedule.MultiTaskSchedule.block_union_masks`:
        every set indicator starts a block of the flattened ``(P·m·n)``
        rows (step 0 of every row is pinned, so no block crosses a row),
        ``bitwise_or.reduceat`` unions each block's requirement lanes,
        one popcount sizes it, and ``cumsum(flat) - 1`` maps every step
        back to the block holding it.
        """
        P, m, n = pop.shape
        L = self.lane_count
        flat = pop.reshape(-1)
        if not flat.size:
            sizes = np.zeros((P, m, n), dtype=np.int64)
            unions = (
                np.zeros((P, m, n, L), dtype=np.uint64) if keep_unions else None
            )
            return sizes, unions
        starts = np.flatnonzero(flat)
        lanes = np.broadcast_to(self.lanes, (P, m, n, L)).reshape(-1, L)
        block_unions = np.bitwise_or.reduceat(lanes, starts, axis=0)
        block_sizes = popcount_u64(block_unions).sum(axis=1, dtype=np.int64)
        block = np.cumsum(flat) - 1
        sizes = block_sizes[block].reshape(P, m, n)
        unions = (
            block_unions[block].reshape(P, m, n, L) if keep_unions else None
        )
        return sizes, unions

    def block_union_lanes(self, pop) -> np.ndarray:
        """Per-task block unions of a ``(P, m, n)`` population (or one
        ``(m, n)`` schedule, returned with a leading axis of 1)."""
        pop = self._coerce_population(pop)
        self._validate_population(pop)
        _, unions = self._sweep(pop, keep_unions=True)
        return unions

    def block_union_masks(self, rows) -> list[list[int]]:
        """Int-mask block unions of one schedule (oracle encoding)."""
        return lanes_to_masks(self.block_union_lanes(rows)[0])

    # -- evaluation ----------------------------------------------------------

    def _evaluate(
        self,
        pop,
        *,
        w: float,
        public,
        changeover: bool,
        changeover_fixed,
        need_unions: bool,
    ):
        if w < 0:
            raise ValueError(
                "global hyperreconfiguration cost w must be non-negative"
            )
        pub = None
        if public is not None:
            if not self.context_synced:
                raise ScheduleError(
                    "public global resources require context synchronization"
                )
            pub = PackedPublic.compile(public, self.n)
        cfix = None
        if changeover_fixed is not None:
            cfix = np.asarray(changeover_fixed, dtype=np.float64)
            if cfix.shape != (self.m,):
                raise ScheduleError("changeover_fixed needs one entry per task")
        pop = self._coerce_population(pop)
        self._validate_population(pop)
        P, m, n = pop.shape
        keep_unions = need_unions or changeover
        sizes, unions = self._sweep(pop, keep_unions)

        # --- reconfiguration term (ints: any summation order is exact) ---
        if self.reconf_parallel:
            reconf = sizes.max(axis=1).astype(np.float64)
            if pub is not None:
                reconf = np.maximum(reconf, pub.sizes_f[None, :])
        else:
            reconf = sizes.sum(axis=1).astype(np.float64)
            if pub is not None:
                reconf = reconf + pub.sizes_f[None, :]

        # --- partial hyperreconfiguration term ---------------------------
        if changeover:
            prev = np.empty_like(unions)
            if n:
                prev[:, :, 0, :] = _U64_ZERO
                prev[:, :, 1:, :] = unions[:, :, :-1, :]
            diff = popcount_u64(unions ^ prev).sum(axis=3, dtype=np.int64)
            vals = diff.astype(np.float64)
            if cfix is not None:
                vals = cfix[None, :, None] + vals
        else:
            vals = np.broadcast_to(self.v[None, :, None], (P, m, n))
        if self.hyper_parallel:
            hyper = np.where(pop, vals, -np.inf).max(axis=1)
            participates = pop.any(axis=1)
            if pub is not None:
                hyper = np.where(
                    pub.hyper[None, :], np.maximum(hyper, pub.v), hyper
                )
                participates = participates | pub.hyper[None, :]
            hyper = np.where(participates, hyper, 0.0)
        else:
            # Mirror the reference's task-order Python sum: accumulate
            # task by task (absent tasks add 0.0, which is bit-neutral
            # for the model's non-negative costs), public row last.
            hyper = np.zeros((P, n), dtype=np.float64)
            for j in range(m):
                hyper = hyper + np.where(pop[:, j, :], vals[:, j, :], 0.0)
            if pub is not None:
                hyper = hyper + np.where(pub.hyper[None, :], pub.v, 0.0)

        step_total = hyper + reconf
        # Grand total in the reference's order: left-to-right over steps
        # (``cumsum`` accumulates sequentially), then w added on the
        # left — bit-identical to ``float(w + sum(s.total for s in steps))``.
        if n:
            totals = float(w) + np.cumsum(step_total, axis=1)[:, -1]
        else:
            totals = float(w) + np.zeros(P, dtype=np.float64)
        return totals, hyper, reconf, sizes, unions

    def population_cost(
        self,
        pop,
        *,
        w: float = 0.0,
        public=None,
        changeover: bool = False,
        changeover_fixed=None,
    ) -> np.ndarray:
        """Cost vector of a ``(P, m, n)`` boolean population."""
        totals, _, _, _, _ = self._evaluate(
            pop,
            w=w,
            public=public,
            changeover=changeover,
            changeover_fixed=changeover_fixed,
            need_unions=False,
        )
        return totals

    def cost(
        self,
        rows,
        *,
        w: float = 0.0,
        public=None,
        changeover: bool = False,
        changeover_fixed=None,
    ) -> float:
        """Cost of one schedule (``MultiTaskSchedule`` or ``(m, n)`` rows)."""
        totals, _, _, _, _ = self._evaluate(
            rows,
            w=w,
            public=public,
            changeover=changeover,
            changeover_fixed=changeover_fixed,
            need_unions=False,
        )
        return float(totals[0])

    def evaluate_rows(
        self,
        rows,
        *,
        w: float = 0.0,
        public=None,
        changeover: bool = False,
        changeover_fixed=None,
    ) -> PackedEvaluation:
        """Full per-step decomposition of one schedule.

        This is what :class:`~repro.core.delta.DeltaEvaluator` seeds its
        incremental state from on construction and on every reset.
        """
        totals, hyper, reconf, sizes, unions = self._evaluate(
            rows,
            w=w,
            public=public,
            changeover=changeover,
            changeover_fixed=changeover_fixed,
            need_unions=True,
        )
        return PackedEvaluation(
            cost=float(totals[0]),
            step_hyper=hyper[0],
            step_reconf=reconf[0],
            sizes=sizes[0],
            union_lanes=unions[0],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedProblem(m={self.m}, n={self.n}, width={self.width}, "
            f"lanes={self.lane_count})"
        )


# ---------------------------------------------------------------------------
# Single-task packed sequence (Section 2 cost-model fast paths)
# ---------------------------------------------------------------------------


class PackedSequence:
    """One lane-packed requirement sequence (the m = 1 view).

    Provides vectorized, bit-identical fast paths for the single-task
    cost models (:mod:`repro.core.cost_single`) and the per-task terms
    of the asynchronous MT models (:mod:`repro.core.mt_cost`).  Block
    unions come from one :func:`numpy.bitwise_or.reduceat` over the
    lanes instead of per-step Python int unions.
    """

    __slots__ = ("lanes", "n", "width")

    def __init__(self, lanes: np.ndarray, *, width: int | None = None):
        lanes = np.ascontiguousarray(lanes, dtype=np.uint64)
        if lanes.ndim != 2:
            raise ValueError("lanes must have shape (n, L)")
        self.lanes = lanes
        self.n = lanes.shape[0]
        self.width = int(width) if width is not None else LANE_BITS * lanes.shape[1]

    @classmethod
    def compile(cls, seq) -> "PackedSequence":
        return cls(
            masks_to_lanes(seq.masks, seq.universe.size),
            width=seq.universe.size,
        )

    def _block_unions(self, schedule: SingleTaskSchedule):
        """Minimal-union hypercontext lanes per block + the blocks."""
        if schedule.n != self.n:
            raise ScheduleError(
                f"sequence length {self.n} does not match schedule "
                f"n={schedule.n}"
            )
        blocks = schedule.blocks()
        if not blocks:
            return np.zeros((0, self.lanes.shape[1]), dtype=np.uint64), blocks
        starts = np.asarray(schedule.hyper_steps, dtype=np.intp)
        unions = np.bitwise_or.reduceat(self.lanes, starts, axis=0)
        return unions, blocks

    def block_union_sizes(self, schedule: SingleTaskSchedule) -> list[int]:
        unions, _ = self._block_unions(schedule)
        return popcount_u64(unions).sum(axis=1, dtype=np.int64).tolist()

    def switch_cost(self, schedule: SingleTaskSchedule, w: float) -> float:
        """Switch-model cost ``r·w + Σ_i |h_i|·|S_i|`` (minimal unions)."""
        if w <= 0:
            raise ValueError("hyperreconfiguration cost w must be positive")
        unions, blocks = self._block_unions(schedule)
        counts = popcount_u64(unions).sum(axis=1, dtype=np.int64).tolist()
        total = schedule.r * w
        for count, (start, stop) in zip(counts, blocks):
            total += count * (stop - start)
        return float(total)

    def changeover_cost(
        self,
        schedule: SingleTaskSchedule,
        w: float,
        initial_mask: int = 0,
    ) -> float:
        """Changeover variant ``Σ_i (w + |h_i Δ h_{i-1}| + |h_i|·|S_i|)``."""
        if w < 0:
            raise ValueError(
                "fixed hyperreconfiguration cost w must be non-negative"
            )
        unions, blocks = self._block_unions(schedule)
        counts = popcount_u64(unions).sum(axis=1, dtype=np.int64).tolist()
        prev = np.empty_like(unions)
        if len(blocks):
            prev[0] = masks_to_lanes([initial_mask], self.width)[0]
            prev[1:] = unions[:-1]
        diffs = popcount_u64(unions ^ prev).sum(axis=1, dtype=np.int64).tolist()
        total = 0.0
        for diff, count, (start, stop) in zip(diffs, counts, blocks):
            total += w + diff
            total += count * (stop - start)
        return float(total)

    def async_task_total(self, schedule: SingleTaskSchedule, v: float) -> float:
        """One task's MT-Switch term ``Σ_i (v_j + |h_ij|·|S_ji|)``."""
        if v <= 0:
            raise ValueError(
                "local hyperreconfiguration cost v_j must be positive"
            )
        unions, blocks = self._block_unions(schedule)
        counts = popcount_u64(unions).sum(axis=1, dtype=np.int64).tolist()
        total = 0.0
        for count, (start, stop) in zip(counts, blocks):
            total += v + count * (stop - start)
        return float(total)

    def window_union_sizes(self) -> list[list[int]]:
        """``sizes[i][j] = |c_i ∪ … ∪ c_{i+j}|`` triangular table.

        Lane-accumulated rows; bit-identical to
        :meth:`repro.core.context.RequirementSequence.window_union_sizes`.
        """
        out: list[list[int]] = []
        for i in range(self.n):
            acc = np.bitwise_or.accumulate(self.lanes[i:], axis=0)
            out.append(popcount_u64(acc).sum(axis=1, dtype=np.int64).tolist())
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedSequence(n={self.n}, width={self.width}, "
            f"lanes={self.lanes.shape[1]})"
        )


# ---------------------------------------------------------------------------
# Window-union sparse table
# ---------------------------------------------------------------------------


class PackedWindows:
    """Sparse table of half-open window unions over packed requirements.

    Build is O(m·n·log n) lane operations; :meth:`union_lanes` answers
    any ``[start, stop)`` query with two ORs per task (overlapping
    power-of-two windows — idempotent for union).  The private-global
    segmentation DP issues O(n²) window-demand queries, which this
    collapses from O(n) each to O(1).
    """

    __slots__ = ("m", "n", "_levels")

    def __init__(self, lanes: np.ndarray):
        lanes = np.ascontiguousarray(lanes, dtype=np.uint64)
        if lanes.ndim != 3:
            raise ValueError("lanes must have shape (m, n, L)")
        self.m, self.n, _ = lanes.shape
        levels = [lanes]
        k = 1
        while (1 << k) <= self.n:
            prev = levels[-1]
            half = 1 << (k - 1)
            count = self.n - (1 << k) + 1
            levels.append(prev[:, :count] | prev[:, half : half + count])
            k += 1
        self._levels = levels

    @classmethod
    def from_sequences(cls, seqs: Sequence) -> "PackedWindows":
        return cls(pack_requirements(seqs))

    def union_lanes(self, start: int, stop: int) -> np.ndarray:
        """Per-task union lanes of the window ``[start, stop)``: (m, L)."""
        if not 0 <= start <= stop <= self.n:
            raise IndexError(f"invalid window [{start}, {stop})")
        if stop == start:
            return np.zeros(
                (self.m, self._levels[0].shape[2]), dtype=np.uint64
            )
        k = (stop - start).bit_length() - 1
        table = self._levels[k]
        span = 1 << k
        return table[:, start] | table[:, stop - span]

    def union_masks(self, start: int, stop: int) -> list[int]:
        """Per-task int-mask unions of the window ``[start, stop)``."""
        return lanes_to_masks(self.union_lanes(start, stop))


# ---------------------------------------------------------------------------
# Incremental stream state (online scheduling)
# ---------------------------------------------------------------------------


class PackedStream:
    """Incremental lane-packed state of an online requirement stream.

    The offline structures above see the whole sequence; an online
    policy sees requirements one chunk at a time and only ever looks a
    bounded distance back.  The stream therefore keeps two things: the
    step count :attr:`n` and the last ``history`` rows, oldest first,
    as one ``(history, L)`` array with zero rows in front while the
    stream is younger than ``history``.  A zero row is the identity
    for OR, so a window union over those rows clamps at the stream
    start exactly as the scalar cursors' deques do.

    * :meth:`extend` commits one ``(C, L)`` chunk;
    * :meth:`push` returns the chunk prefixed with the retained rows
      (what a per-session cursor needs to form working-set windows
      that cross the chunk boundary) and commits it;
    * :meth:`extend_many` commits one chunk per stream off the fused
      sweep's history-prefixed block in one gather.

    The rows are never written in place: every commit installs a new
    read-only array, so a fused sweep can recognize history that
    :meth:`extend_many` left behind and reuse it without restacking.
    """

    __slots__ = ("width", "history", "n", "_L", "_hist")

    def __init__(self, width: int, *, history: int = 0):
        if width < 1:
            raise ValueError("universe width must be positive")
        if history < 0:
            raise ValueError("history must be non-negative")
        self.width = int(width)
        self.history = int(history)
        self.n = 0
        self._L = lane_count(width)
        self._hist = np.zeros((history, self._L), dtype=np.uint64)
        self._hist.setflags(write=False)

    # -- introspection -----------------------------------------------------

    @property
    def lane_width(self) -> int:
        return self._L

    @property
    def history_rows(self) -> np.ndarray:
        """The last ``history`` rows, oldest first, zero rows in front
        while ``n < history`` (read-only ``(history, L)``)."""
        return self._hist

    def tail_rows(self, count: int) -> np.ndarray:
        """The last ``min(count, n, history)`` rows, oldest first."""
        if count < 0:
            raise ValueError("count must be non-negative")
        count = min(count, self.n, self.history)
        return self._hist[self.history - count :]

    # -- appending ---------------------------------------------------------

    def extend(self, lanes: np.ndarray) -> None:
        """Append a ``(C, L)`` chunk."""
        lanes = np.asarray(lanes, dtype=np.uint64)
        if lanes.ndim != 2 or lanes.shape[1] != self._L:
            raise ValueError(f"chunk must have shape (C, {self._L})")
        C = lanes.shape[0]
        self.n += C
        h = self.history
        if not h or not C:
            return
        if C >= h:
            hist = lanes[C - h :].copy()
        else:
            hist = np.concatenate([self._hist[C:], lanes])
        hist.setflags(write=False)
        self._hist = hist

    @classmethod
    def extend_many(cls, streams, block: np.ndarray, lengths=None) -> None:
        """Commit one chunk per stream off a history-prefixed block.

        ``block`` is ``(S, history + Cmax, L)``: stream ``s``'s
        :attr:`history_rows` followed by its chunk, zero-padded on the
        right to ``Cmax`` rows — the block the fused sweep reads its
        working-set windows from (this is the stream half of the fused
        multi-session sweep; ``sweep_many`` in
        :mod:`repro.solvers.online` is the policy half).  Stream ``s``
        takes a chunk of ``lengths[s]`` rows (every stream ``Cmax``
        when ``lengths`` is ``None``); every stream must share the lane
        width and ``history``.

        Each stream's new history is rows ``lengths[s] .. lengths[s] +
        history`` of its block row, and all of them are gathered in one
        pass into one ``(S, history, L)`` array that the streams keep
        as row views.  Observably identical to :meth:`extend` per
        stream.
        """
        S = block.shape[0]
        if len(streams) != S:
            raise ValueError("one chunk per stream required")
        if S == 0:
            return
        h = streams[0].history
        L = block.shape[2]
        Cmax = block.shape[1] - h
        if Cmax < 0:
            raise ValueError("block must hold history + chunk rows")
        if lengths is None:
            counts = [Cmax] * S
        else:
            lengths = np.asarray(lengths, dtype=np.int64)
            if lengths.shape != (S,) or (lengths < 0).any() or (
                lengths > Cmax
            ).any():
                raise ValueError(
                    "lengths must hold one value in [0, Cmax] per stream"
                )
            counts = lengths.tolist()
        for st in streams:
            if st._L != L or st.history != h:
                raise ValueError(
                    "fused extend requires equal lane width and history"
                )
        if not h:
            for st, n_s in zip(streams, counts):
                st.n += n_s
            return
        if lengths is None:
            hist = block[:, Cmax:].copy()
        else:
            hist = block[
                np.arange(S)[:, None], lengths[:, None] + np.arange(h)
            ]
        hist.setflags(write=False)
        for s, (st, n_s) in enumerate(zip(streams, counts)):
            st.n += n_s
            st._hist = hist[s]

    def push(self, lanes: np.ndarray) -> tuple[np.ndarray, int]:
        """Commit a chunk; return ``(ext, off)`` for batched cursors.

        ``ext`` stacks the retained history rows (the state *before*
        this chunk) above the chunk itself and ``off`` is the chunk's
        row offset into ``ext`` — window unions ending at chunk row
        ``t`` are ORs over ``ext[max(0, off + t - k + 1) : off + t + 1]``
        even when the window crosses the chunk boundary.
        """
        lanes = np.ascontiguousarray(lanes, dtype=np.uint64)
        if lanes.ndim != 2 or lanes.shape[1] != self._L:
            raise ValueError(f"chunk must have shape (C, {self._L})")
        tail = self.tail_rows(self.history)
        if tail.shape[0]:
            ext = np.concatenate([tail, lanes], axis=0)
        else:
            ext = lanes
        self.extend(lanes)
        return ext, tail.shape[0]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedStream(n={self.n}, width={self.width}, "
            f"history={self.history})"
        )


# ---------------------------------------------------------------------------
# Legacy kernel entry points (PR 2 public names)
# ---------------------------------------------------------------------------


def pack_mask_lanes(seqs: Sequence) -> np.ndarray:
    """Legacy ``(L, m, n)`` lane layout of :func:`pack_requirements`.

    Kept for PR-2 callers (``repro.core.delta`` re-exports it); new code
    should use :class:`PackedProblem` / :func:`pack_requirements`.
    """
    return np.ascontiguousarray(np.moveaxis(pack_requirements(seqs), 2, 0))


def population_switch_cost(
    pop: np.ndarray,
    lanes: np.ndarray,
    v: np.ndarray,
    *,
    hyper_parallel: bool = True,
    reconf_parallel: bool = True,
) -> np.ndarray:
    """Legacy batched-kernel entry point over ``(L, m, n)`` lanes.

    Delegates to :class:`PackedProblem`; in the move it *gained* strict
    bit-identity with the reference cost (the old private kernel summed
    per-step terms in a different float order and was only equal up to
    rounding).
    """
    req = np.ascontiguousarray(
        np.moveaxis(np.asarray(lanes, dtype=np.uint64), 0, 2)
    )
    problem = PackedProblem(
        req,
        np.asarray(v, dtype=np.float64),
        hyper_parallel=hyper_parallel,
        reconf_parallel=reconf_parallel,
    )
    return problem.population_cost(np.asarray(pop, dtype=bool))
