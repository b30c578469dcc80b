"""Online (run-time) hyperreconfiguration scheduling.

The offline solvers see the whole requirement sequence; a machine
deciding *at run time* when to hyperreconfigure sees only the past.
The paper's outlook — architectures that "adapt their reconfiguration
abilities during run time" — raises exactly this question, so the
library ships two classic online policies plus a competitive-ratio
harness against the offline optimum (experiment E11):

* :class:`RentOrBuyScheduler` — ski-rental reasoning per switch set:
  keep the current hypercontext while the *regret* (cost paid above
  what a fresh minimal hypercontext would have paid for the same
  steps) is below ``alpha · w``, then hyperreconfigure to the recent
  working set.  With ``alpha = 1`` this is the classic rent-or-buy
  rule that is 2-competitive for the one-switch case.
* :class:`WindowScheduler` — hyperreconfigure every ``k`` steps to the
  coming block's needs as *estimated by the previous window* (the
  union of the last ``k`` requirements).  A requirement that does not
  fit the estimate forces an immediate corrective
  hyperreconfiguration — the policy pays for its mispredictions,
  which is what makes it an honest straw-man baseline.

Both policies expose two entry points over the same decision logic:

* :meth:`plan` — feed a whole sequence, get a valid
  :class:`~repro.core.schedule.SingleTaskSchedule` with explicit
  hypercontext masks (the online hypercontext is generally *not* the
  minimal block union — the scheduler did not know the future);
* :meth:`cursor` — a stateful step-by-step cursor for streaming use
  (see :mod:`repro.engine.stream`).  A cursor's ``step(i, mask)``
  returns the newly installed hypercontext mask when the policy
  hyperreconfigures at step ``i`` and ``None`` when it keeps the
  current one; after the call, ``cursor.current`` always covers
  ``mask`` (cursors hyperreconfigure rather than serve a requirement
  they cannot satisfy).

Both policies additionally expose :meth:`batched_cursor` — the
lane-packed contract for high-rate streaming.  A batched cursor's
``step_many(lanes)`` advances a whole ``(C, L)`` uint64 chunk of
requirement rows in vectorized NumPy over a
:class:`~repro.core.packed.PackedStream` and returns a
:class:`CursorBatch` of per-step hyper flags, hypercontext sizes and
installed hypercontexts.  The decisions are *bit-identical* to driving
the scalar cursor step by step (the scalar cursors stay as the
correctness oracle; ``tests/test_stream_packed.py`` enforces the
equivalence on randomized sequences across the 64-switch lane
boundary): inside a chunk the batched cursor solves for whole
*no-hyper segments* at a time — prefix unions and popcounts locate the
next trigger (misfit or regret/cadence), then the working-set window is
read off the packed history — so its cost is O(segments) NumPy sweeps
instead of O(steps) Python calls.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.core.context import RequirementSequence
from repro.core.cost_single import switch_cost
from repro.core.packed import (
    PackedStream,
    lanes_to_masks,
    masks_to_lanes,
)
from repro.core.schedule import SingleTaskSchedule
from repro.solvers.single_dp import solve_single_switch
from repro.util.bitset import popcount_u64

__all__ = [
    "CursorBatch",
    "FusedSweep",
    "OnlineRun",
    "RentOrBuyScheduler",
    "ScalarOnly",
    "WindowScheduler",
    "plan_with_cursor",
    "run_online",
    "competitive_report",
]


class ScalarOnly:
    """Wrap a policy to expose only the scalar cursor contract.

    A :class:`~repro.engine.stream.StreamSession` takes the batched
    lane-packed path whenever the policy offers ``batched_cursor``;
    wrapping the policy in this shim hides it, forcing the scalar
    oracle path — the baseline the equivalence tests, benchmark E16
    and the CLI's ``--scalar`` flag compare against.
    """

    def __init__(self, scheduler, *, name: str | None = None):
        self._scheduler = scheduler
        self.name = name if name is not None else getattr(
            scheduler, "name", type(scheduler).__name__
        )

    def cursor(self):
        return self._scheduler.cursor()


@dataclass(frozen=True)
class OnlineRun:
    """Outcome of feeding a sequence through an online scheduler."""

    schedule: SingleTaskSchedule
    cost: float
    solver: str


@dataclass(frozen=True)
class CursorBatch:
    """Result of advancing a batched cursor by one requirement chunk.

    Attributes
    ----------
    hyper:
        ``(C,)`` bool — True where the policy hyperreconfigured before
        serving the step.
    sizes:
        ``(C,)`` int64 — popcount of the hypercontext that served each
        step (``|h|``, the per-step switch-write charge).
    installed:
        ``(H, L)`` uint64 — the installed hypercontext lanes of the
        ``H`` flagged steps, in step order.
    """

    hyper: np.ndarray
    sizes: np.ndarray
    installed: np.ndarray

    @property
    def steps(self) -> int:
        return int(self.hyper.shape[0])

    @property
    def hyper_count(self) -> int:
        return int(self.installed.shape[0])


@dataclass(frozen=True)
class FusedSweep:
    """Result of a fused multi-cursor sweep over stacked chunks.

    ``sweep_many`` is an epoch-synchronous resumable kernel: *every*
    cursor in the stack completes its chunk here — quiet ones in the
    first epoch, triggering ones through as many trigger epochs as the
    densest chunk needs — so there is no per-session replay path left.
    Cursor and stream state are committed on return; the caller only
    books per-session accounting off the arrays below.

    Attributes
    ----------
    hyper:
        ``(S, Cmax)`` bool — True where a session hyperreconfigured
        before serving the step (read-only; rows are shared views).
    sizes:
        ``(S, Cmax)`` int64 — per-step hypercontext popcount ``|h|``
        serving each step (read-only; zero beyond a session's length).
    installed:
        ``(T, L)`` uint64 — installed hypercontext lanes of all
        ``T`` triggers, session-major and in step order within each
        session (matching ``np.nonzero(hyper)``; read-only).
    installed_counts:
        ``(S,)`` int64 — triggers per session; cumulative sums slice
        ``installed`` into per-session runs.
    lengths:
        ``(S,)`` int64 — per-session chunk lengths (ragged stacks are
        zero-padded to ``Cmax``; columns at or past a session's length
        are dead).
    epochs:
        Trigger-epoch iterations the kernel ran for this stack.
    """

    hyper: np.ndarray
    sizes: np.ndarray
    installed: np.ndarray
    installed_counts: np.ndarray
    lengths: np.ndarray
    epochs: int

    @property
    def sessions(self) -> int:
        return int(self.hyper.shape[0])

    @property
    def triggers(self) -> int:
        return int(self.installed.shape[0])


def _stack_rows(cursors, attr: str, shape: tuple) -> np.ndarray:
    """Stack one array per cursor (``attr`` is a dotted attribute
    path) into ``shape``, whose first axis counts the cursors.

    A sweep epilogue leaves each cursor's state — and its stream's
    history — as a row view of one struct-of-arrays (and stamps
    ``_row``); when the same group returns with every view intact —
    the steady serving state — the previous array IS the stack, so it
    is reused instead of rebuilt.  Any per-session step in between
    replaces the cursor's row with a fresh array, which defeats the
    aliasing check and falls back to a fresh ``np.stack``.
    """
    get = attrgetter(attr)
    base = get(cursors[0]).base
    if base is not None and base.shape == shape:
        for s, c in enumerate(cursors):
            if c._row != s or get(c).base is not base:
                break
        else:
            return base
    return np.stack([get(c) for c in cursors])


def _lane_popcount(x: np.ndarray) -> np.ndarray:
    """Popcount of each ``(..., L)`` lane row as int64 ``(...)``.

    Adds one lane slab at a time: NumPy reduces a short trailing axis
    one tiny inner loop per row, several times slower than ``L`` slab
    adds at the lane widths streams use.
    """
    counts = popcount_u64(x)
    total = counts[..., 0].astype(np.int64)
    for lane in range(1, x.shape[-1]):
        total += counts[..., lane]
    return total


def _escapes(acc: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """``(A, span)`` bool: the ``(A, span, L)`` rows have a bit outside
    each row's ``(A, L)`` hypercontext (lane by lane, see
    :func:`_lane_popcount`)."""
    out = acc[..., 0] & ~cur[:, None, 0]
    for lane in range(1, acc.shape[-1]):
        out |= acc[..., lane] & ~cur[:, None, lane]
    return out != 0


class _EpochSweep:
    """Struct-of-arrays state shared by both ``sweep_many`` kernels.

    Holds every session's frozen hypercontext (``cur``/``cur_size``),
    its resume offset ``pos`` into its chunk and the install records;
    the kernels only supply their policy's trigger test.  The chunks
    sit in one *history-prefixed* block ``ext`` of shape ``(S, H +
    Cmax, L)``: each session's last ``H`` stream rows, oldest first
    (zero rows in front for streams younger than ``H``), then its
    chunk.  Chunk step ``t`` is block row ``H + t``, so every
    working-set window ``t-H .. t`` lies inside the session's own
    block row.  Each epoch reads one window per live row, starting at
    the row's *own* offset — no row pays for another row's dead prefix
    — and the per-step ``sizes`` are filled once at the end, by
    forward-filling the install records, instead of scattered epoch by
    epoch.
    """

    def __init__(self, cursors, block: np.ndarray, lengths, history: int):
        S, Cmax, L = block.shape
        H = history
        self.cursors = cursors
        if H:
            # History that extend_many left behind is reused as it
            # stands when no per-session call replaced it.
            ext = np.empty((S, H + Cmax, L), dtype=np.uint64)
            ext[:, :H] = _stack_rows(
                cursors, "stream.history_rows", (S, H, L)
            )
            ext[:, H:] = block
        else:
            ext = block
        self.ext = ext
        self.row_len = H + Cmax
        self.flat = ext.reshape(S * self.row_len, L)
        self.lengths = _sweep_lengths(S, Cmax, lengths)
        self.H = H
        self.window = np.arange(H + 1)
        self.cur = _stack_rows(cursors, "_cur", (S, L))
        self.cur_size = np.fromiter(
            (c._cur_size for c in cursors), count=S, dtype=np.int64
        )
        self.size0 = self.cur_size.copy()
        self.n0 = np.fromiter(
            (c.stream.n for c in cursors), count=S, dtype=np.int64
        )
        self.pos = np.zeros(S, dtype=np.int64)
        self.active = self.pos < self.lengths
        self.installs: list[tuple] = []
        self.epochs = 0

    def next_epoch(self, scan: int):
        """Windows of the next epoch, or ``None`` once every chunk is
        served.

        Returns ``(a, pa, cols, sub, live, n)``: the live rows, their
        offsets, the absolute chunk column of every window cell, the
        ``(A, span, L)`` requirement windows, the live-cell mask
        (``None`` when every cell is live) and each row's live cell
        count.  ``span = min(scan, longest remainder)``; a row's dead
        cells sit only past its chunk end, so prefix passes over a
        window stay exact on its live cells and the kernels mask only
        their trigger tests.  When every row shares one offset and
        fills the window, ``sub`` is a view of the block.
        """
        a = np.flatnonzero(self.active)
        if a.size == 0:
            return None
        self.epochs += 1
        S = self.ext.shape[0]
        pa = self.pos[a]
        la = self.lengths[a]
        span = min(scan, int((la - pa).max()))
        n = np.minimum(la - pa, span)
        lo = int(pa[0])
        steps = np.arange(span)
        if bool((pa == lo).all()) and int(n.min()) == span:
            first = self.H + lo
            sub = (
                self.ext[:, first : first + span] if a.size == S
                else self.ext[a, first : first + span]
            )
            return a, pa, lo + steps, sub, None, n
        cols = pa[:, None] + steps
        live = steps < n[:, None]
        # Dead cells may run past a row's end (into the next row's
        # cells or off the block); clip so the gather stays in bounds.
        flat = np.minimum(
            (a * self.row_len + self.H)[:, None] + cols,
            S * self.row_len - 1,
        )
        return a, pa, cols, self.flat[flat], live, n

    def rows_at(self, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """``(A, L)`` requirement rows of ``rows`` at chunk steps ``t``."""
        return self.flat[rows * self.row_len + self.H + t]

    @staticmethod
    def split(trigger: np.ndarray):
        """(window rows with a trigger, their first trigger columns,
        window rows without one)."""
        hitcol = np.argmax(trigger, axis=1)
        has = trigger[np.arange(trigger.shape[0]), hitcol]
        tr = np.flatnonzero(has)
        return tr, hitcol[tr], np.flatnonzero(~has)

    def bank(self, rows: np.ndarray, n: np.ndarray) -> None:
        """Quiet rows served ``n`` more steps at their frozen size."""
        self.pos[rows] += n
        self.active[rows] = self.pos[rows] < self.lengths[rows]

    def install(self, rows: np.ndarray, t: np.ndarray) -> None:
        """Hyperreconfigure ``rows`` at chunk steps ``t``.

        The installed set is the OR over steps ``t-H .. t``, which are
        rows ``t .. t+H`` of the session's history-prefixed block row:
        one gather and one OR-reduce for every due trigger, wherever in
        the chunk it sits.  Streams younger than ``H`` read zero rows
        in front — the identity for OR — so they clamp exactly like
        the scalar cursors.
        """
        ws = np.bitwise_or.reduce(
            self.flat[(rows * self.row_len + t)[:, None] + self.window],
            axis=1,
        )
        self.cur[rows] = ws
        sizes = _lane_popcount(ws)
        self.cur_size[rows] = sizes
        self.installs.append((rows, t, ws, sizes))
        self.pos[rows] = t + 1
        self.active[rows] = self.pos[rows] < self.lengths[rows]

    def finish(self) -> FusedSweep:
        """Commit cursor and stream state; build the sweep's arrays.

        ``sizes`` is a forward fill: each step serves at the size of
        its row's latest install at or before it (the pre-chunk size
        before the first one), read through one index array.
        """
        lengths = self.lengths
        S, _, L = self.ext.shape
        Cmax = self.row_len - self.H
        streams = []
        cur_sizes = self.cur_size.tolist()
        for s, (c, size) in enumerate(zip(self.cursors, cur_sizes)):
            c._cur = self.cur[s]
            c._cur_size = size
            c._row = s
            streams.append(c.stream)
        ragged = int(lengths.min()) != Cmax
        PackedStream.extend_many(
            streams, self.ext, lengths=lengths if ragged else None
        )
        hyper = np.zeros((S, Cmax), dtype=bool)
        latest = np.zeros((S, Cmax), dtype=np.intp)
        latest[:, 0] = np.arange(S)
        if self.installs:
            sess, steps, lanes, sizes = (
                np.concatenate(part) for part in zip(*self.installs)
            )
            # Session-major, step order: install ids then rise along
            # each row, so a running max finds the latest one.
            order = np.lexsort((steps, sess))
            sess, steps = sess[order], steps[order]
            installed = lanes[order]
            hyper[sess, steps] = True
            latest[sess, steps] = S + np.arange(sess.size)
            values = np.concatenate([self.size0, sizes[order]])
            counts = np.bincount(sess, minlength=S).astype(np.int64)
        else:
            installed = np.zeros((0, L), dtype=np.uint64)
            values = self.size0
            counts = np.zeros(S, dtype=np.int64)
        sizes = values[np.maximum.accumulate(latest, axis=1)]
        if ragged:
            sizes[np.arange(Cmax) >= lengths[:, None]] = 0
        hyper.setflags(write=False)
        sizes.setflags(write=False)
        installed.setflags(write=False)
        return FusedSweep(
            hyper=hyper,
            sizes=sizes,
            installed=installed,
            installed_counts=counts,
            lengths=lengths,
            epochs=self.epochs,
        )


#: Stack-size crossover for ``sweep_many``: groups at or below this
#: many sessions are served by one scalar-batched ``step_many`` call
#: per cursor instead of the epoch kernel.  The kernel's win is
#: amortizing per-epoch NumPy spans over many rows.  E16's
#: ``kernel_crossover`` table (rent-or-buy, calm and hectic, 64- and
#: 256-step chunks) has the kernel at 0.6-0.8× of ``step_many`` at
#: S=4, at parity or better from S=8 (1.0-1.7× over two runs) and at
#: 1.7-2.3× by S=32, at both chunk lengths, so one threshold fits
#: every chunk length.  Decisions are bit-identical either way; the
#: equivalence suite pins the constant to 0 to keep the epoch kernel
#: under adversarial coverage at every fleet size.
SMALL_STACK_SESSIONS = 8


def _sweep_small(cursors, block: np.ndarray, lengths) -> FusedSweep:
    """Serve a small stack with one ``step_many`` call per cursor.

    Same decisions as the epoch kernel, repackaged as a
    :class:`FusedSweep`; installs are already session-major and in
    step order.  The densest cursor's install count stands in for the
    epoch count — exactly what the kernel would have iterated.
    """
    S, Cmax, L = block.shape
    lengths = _sweep_lengths(S, Cmax, lengths)
    hyper = np.zeros((S, Cmax), dtype=bool)
    sizes = np.zeros((S, Cmax), dtype=np.int64)
    counts = np.zeros(S, dtype=np.int64)
    installed = []
    epochs = 0
    for s, c in enumerate(cursors):
        n = int(lengths[s])
        batch = c.step_many(block[s, :n])
        hyper[s, :n] = batch.hyper
        sizes[s, :n] = batch.sizes
        counts[s] = batch.installed.shape[0]
        installed.append(batch.installed)
        epochs = max(epochs, int(counts[s]))
    installed = (
        np.concatenate(installed, axis=0) if installed
        else np.zeros((0, L), dtype=np.uint64)
    )
    for arr in (hyper, sizes, installed):
        arr.setflags(write=False)
    return FusedSweep(
        hyper=hyper,
        sizes=sizes,
        installed=installed,
        installed_counts=counts,
        lengths=lengths,
        epochs=epochs,
    )


def _sweep_lengths(S: int, Cmax: int, lengths) -> np.ndarray:
    if lengths is None:
        return np.full(S, Cmax, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (S,) or (lengths < 1).any() or (lengths > Cmax).any():
        raise ValueError("lengths must hold one value in [1, Cmax] per chunk")
    return lengths


def _empty_batch(L: int) -> CursorBatch:
    return CursorBatch(
        hyper=np.zeros(0, dtype=bool),
        sizes=np.zeros(0, dtype=np.int64),
        installed=np.zeros((0, L), dtype=np.uint64),
    )


def plan_with_cursor(cursor, seq: RequirementSequence) -> SingleTaskSchedule:
    """Drive a policy cursor over a whole sequence.

    Every cursor hyperreconfigures at step 0 and afterwards whenever a
    requirement does not fit, so the recorded masks already cover their
    blocks; they are still widened by the block unions as a safety net
    (a no-op for well-behaved cursors, and the cheapest way to keep the
    "explicit masks must cover" invariant unconditionally true).

    Cursors honoring the batched contract (``step_many``) are advanced
    in one vectorized call; scalar cursors step per requirement.  The
    block-union widening runs on packed lanes either way (one
    ``bitwise_or.reduceat`` instead of a per-step Python union loop).
    """
    masks = seq.masks
    n = len(masks)
    if n == 0:
        return SingleTaskSchedule(n=0, hyper_steps=())
    width = seq.universe.size
    lanes = masks_to_lanes(masks, width)
    if hasattr(cursor, "step_many"):
        batch = cursor.step_many(lanes)
        hyper_steps = [int(i) for i in np.flatnonzero(batch.hyper)]
        installed_lanes = batch.installed
    else:
        hyper_steps = []
        hyper_masks = []
        for i, req in enumerate(masks):
            installed = cursor.step(i, req)
            if installed is not None:
                hyper_steps.append(i)
                hyper_masks.append(installed)
        installed_lanes = masks_to_lanes(hyper_masks, width)
    if hyper_steps:
        starts = np.asarray(hyper_steps, dtype=np.intp)
        unions = np.bitwise_or.reduceat(lanes, starts, axis=0)
        widened = lanes_to_masks(installed_lanes | unions)
    else:  # a degenerate custom cursor that never installs
        widened = []
    return SingleTaskSchedule(
        n=n, hyper_steps=tuple(hyper_steps), explicit_masks=tuple(widened)
    )


class _RentOrBuyCursor:
    """State machine behind :class:`RentOrBuyScheduler`."""

    __slots__ = ("w", "alpha", "current", "served_union", "regret", "recent")

    def __init__(self, w: float, alpha: float, memory: int):
        self.w = w
        self.alpha = alpha
        self.current = 0
        self.served_union = 0
        self.regret = 0.0
        # Working-set estimate = new requirement ∪ last (memory-1) ones.
        self.recent = deque(maxlen=memory - 1) if memory > 1 else None

    def step(self, i: int, req: int) -> int | None:
        must = bool(req & ~self.current) or i == 0
        if not must:
            # Regret of serving this step under the old hypercontext.
            step_regret = (
                self.current.bit_count() - (self.served_union | req).bit_count()
            )
            if self.regret + step_regret > self.alpha * self.w:
                must = True
        installed = None
        if must:
            working_set = req
            if self.recent is not None:
                for m in self.recent:
                    working_set |= m
            self.current = working_set
            self.served_union = req
            self.regret = 0.0
            installed = working_set
        else:
            self.served_union |= req
            self.regret += self.current.bit_count() - self.served_union.bit_count()
        if self.recent is not None:
            self.recent.append(req)
        return installed


class _BatchedRentOrBuyCursor:
    """Lane-packed rent-or-buy cursor (:class:`_RentOrBuyCursor` is the
    scalar oracle; decisions here are bit-identical).

    ``step_many`` processes a chunk *segment by segment*: between two
    hyperreconfigurations the hypercontext is frozen, so the served
    union is a prefix union over the segment, the regret a cumulative
    sum of popcount differences, and the next trigger (misfit or
    regret overflow) is one ``argmax`` — all NumPy, no per-step Python.
    The regret arithmetic stays exact: every addend is an integer
    (representable in float64), so the vectorized cumulative sum equals
    the scalar's sequential float accumulation bit for bit.
    """

    __slots__ = (
        "w",
        "alpha",
        "memory",
        "stream",
        "scan_min",
        "scan_max",
        "multi_trigger_hits",
        "_cur",
        "_cur_size",
        "_served",
        "_regret",
        "_row",
    )

    #: Galloping sweep bounds: prefix unions are recomputed from each
    #: segment start, so an unbounded sweep would be O(chunk²) when
    #: hypers are frequent — and a large fixed window wastes compute
    #: past the trigger when they are.  Each segment starts with a
    #: small sweep that doubles while no trigger is found (total rows
    #: touched stay within ~2× the segment length either way).  State
    #: carries across sweep windows exactly as it does across chunks,
    #: so the bounds only shape the work, never the decisions.  The
    #: class attributes are defaults; per-scheduler tunables
    #: (``RentOrBuyScheduler(scan_min=..., scan_max=...)``) override
    #: them per cursor — bench E16 sweeps the grid.
    _SCAN_MIN = 128
    _SCAN_MAX = 4096

    def __init__(
        self,
        w: float,
        alpha: float,
        memory: int,
        width: int,
        *,
        scan_min: int | None = None,
        scan_max: int | None = None,
    ):
        self.w = w
        self.alpha = alpha
        self.memory = memory
        self.scan_max = self._SCAN_MAX if scan_max is None else int(scan_max)
        if scan_min is None:
            # A lone small scan_max implies the window ceiling; don't
            # make the caller restate the floor to satisfy min ≤ max.
            self.scan_min = min(self._SCAN_MIN, self.scan_max)
        else:
            self.scan_min = int(scan_min)
        if self.scan_min < 1:
            raise ValueError("scan_min must be at least 1")
        if self.scan_max < self.scan_min:
            raise ValueError("scan_max must be at least scan_min")
        self.stream = PackedStream(width, history=memory - 1)
        L = self.stream.lane_width
        self._cur = np.zeros(L, dtype=np.uint64)
        self._cur_size = 0
        self._served = np.zeros(L, dtype=np.uint64)
        self._regret = 0.0
        #: Row index this cursor held in the last fused sweep's
        #: struct-of-arrays (see ``_stack_rows``); -1 before any sweep.
        self._row = -1
        #: Triggers resolved by the multi-trigger fast path (hectic
        #: streams resolve several misfits per sweep window without
        #: recomputing the prefix-union/popcount/cumsum passes).
        self.multi_trigger_hits = 0

    @property
    def current(self) -> int:
        """Current hypercontext as an int mask (cursor contract)."""
        return lanes_to_masks(self._cur)

    def step_many(self, lanes: np.ndarray) -> CursorBatch:
        """Advance the cursor over a ``(C, L)`` uint64 requirement chunk."""
        lanes = np.ascontiguousarray(lanes, dtype=np.uint64)
        C = lanes.shape[0]
        L = self.stream.lane_width
        if C == 0:
            return _empty_batch(L)
        first_forced = self.stream.n == 0
        ext, off = self.stream.push(lanes)
        hyper = np.zeros(C, dtype=bool)
        sizes = np.empty(C, dtype=np.int64)
        installed: list[np.ndarray] = []
        threshold = self.alpha * self.w
        cur, cur_size = self._cur, self._cur_size
        served, regret = self._served, self._regret
        pos = 0
        scan = self.scan_min
        ncur = ~cur
        while pos < C:
            stop = min(C, pos + scan)
            rest = lanes[pos:stop]
            acc = np.bitwise_or.accumulate(rest, axis=0)
            np.bitwise_or(acc, served, out=acc)
            # served ⊆ cur, so the prefix union escapes cur exactly
            # where the first unservable requirement sits (monotone).
            misfit = (acc & ncur).any(axis=1)
            pc = popcount_u64(acc).sum(axis=1, dtype=np.int64)
            csum = np.cumsum(cur_size - pc, dtype=np.float64)
            if regret:  # exact either way; skips an add per quiet sweep
                csum = regret + csum
            trigger = misfit | (csum > threshold)
            if first_forced and pos == 0:
                trigger[0] = True
            hit = int(np.argmax(trigger))
            if not trigger[hit]:
                sizes[pos:stop] = cur_size
                served = acc[-1]
                regret = float(csum[-1])
                pos = stop
                scan = min(scan * 2, self.scan_max)
                continue
            t = pos + hit
            scan = self.scan_min
            sizes[pos:t] = cur_size
            # Working set = this requirement ∪ the last (memory-1) ones,
            # read off the history-prefixed chunk.
            lo = max(0, off + t - (self.memory - 1))
            ws = np.bitwise_or.reduce(ext[lo : off + t + 1], axis=0)
            cur = ws
            ncur = ~cur
            cur_size = int(popcount_u64(ws).sum(dtype=np.int64))
            served = lanes[t].copy()
            regret = 0.0
            hyper[t] = True
            installed.append(ws)
            sizes[t] = cur_size
            pos = t + 1
            # Multi-trigger sweep: on hectic streams the next trigger
            # is usually another *misfit* a handful of steps ahead, and
            # recomputing the three-pass prefix-union sweep over the
            # whole scan window per segment is what makes short
            # segments amortize poorly.  After an install the regret
            # restarts from zero, so the next misfit (one AND-any pass
            # over the remaining window) resolves immediately while the
            # regret term is *quiescent*: each post-install addend is
            # bounded by |cur| − |req[t]| (the served union only grows
            # from req[t]), so ``gap`` misfit-free steps accrue at most
            # gap·(|cur| − |req[t]|).  When that O(1) bound cannot rule
            # a regret trigger out, the regret is swept exactly — but
            # only over the ``gap`` rows, not the whole window.  Both
            # checks are exact-or-conservative, never optimistic, so
            # decisions stay bit-identical to the scalar oracle; only
            # the trailing no-misfit stretch of a window falls back to
            # the outer full sweep (which also carries served/regret
            # state across windows and chunks).
            while pos < stop:
                mis = (lanes[pos:stop] & ncur).any(axis=1)
                nh = int(mis.argmax())
                if not mis[nh]:
                    break  # no misfit left: the next trigger (if any)
                    # needs the full continuation sweep
                t = pos + nh
                # Quiescence ladder, cheapest first: gap·|cur| already
                # rules most regret triggers out for free; the tighter
                # gap·(|cur| − |served|) bound costs one popcount; only
                # when both fail is the regret swept exactly — over the
                # gap rows, not the window.
                if nh and nh * cur_size > threshold:
                    served_size = int(
                        popcount_u64(served).sum(dtype=np.int64)
                    )
                    if nh * (cur_size - served_size) > threshold:
                        # Exact regret over the gap: does it fire first?
                        acc = np.bitwise_or.accumulate(
                            lanes[pos:t], axis=0
                        )
                        np.bitwise_or(acc, served, out=acc)
                        pc = popcount_u64(acc).sum(axis=1, dtype=np.int64)
                        csum = np.cumsum(cur_size - pc, dtype=np.float64)
                        rtrig = csum > threshold
                        rh = int(rtrig.argmax())
                        if rtrig[rh]:
                            t = pos + rh
                sizes[pos:t] = cur_size
                lo = max(0, off + t - (self.memory - 1))
                ws = np.bitwise_or.reduce(ext[lo : off + t + 1], axis=0)
                cur = ws
                ncur = ~cur
                cur_size = int(popcount_u64(ws).sum(dtype=np.int64))
                served = lanes[t].copy()
                regret = 0.0
                hyper[t] = True
                installed.append(ws)
                sizes[t] = cur_size
                self.multi_trigger_hits += 1
                pos = t + 1
        self._cur, self._cur_size = cur, cur_size
        self._served, self._regret = served, regret
        if installed:
            installed_arr = np.asarray(installed, dtype=np.uint64)
        else:  # pragma: no cover - a chunk always installs on first feed
            installed_arr = np.zeros((0, L), dtype=np.uint64)
        return CursorBatch(hyper=hyper, sizes=sizes, installed=installed_arr)

    @classmethod
    def sweep_many(cls, cursors, block: np.ndarray, lengths=None) -> FusedSweep:
        """Advance every cursor over its whole chunk, epoch by epoch.

        ``block`` stacks one ``(C_s, L)`` chunk per cursor into
        ``(S, Cmax, L)`` (ragged chunks zero-padded on the right, their
        true lengths in ``lengths``); all cursors must share the lane
        width and ``memory`` — the hub's group key guarantees it, while
        ``w``/``alpha`` may vary and are gathered as vectors.

        The kernel is *resumable*: per-session offsets ``pos`` track
        how far each chunk has been served.  Each epoch reads one
        window per live session, starting at that session's own offset
        (:class:`_EpochSweep`), so one prefix accumulate from window
        column 0 resumes every session at once.  It locates every
        session's *next* trigger (misfit, regret overflow, or the
        forced first step) with one argmax, and resolves all due
        triggers in one batched install pass: working-set windows
        gathered off the sweep's history-prefixed block (each
        session's last ``memory - 1`` stream rows sit above its chunk,
        so a trigger at the chunk front reads its window like any
        other), popcounts, served resets, regret resets.  Sessions
        with no trigger in the window bank their served union and
        regret and resume next epoch.  The
        outer loop therefore runs once per *trigger epoch* (bounded by
        the densest chunk), never per session × step.

        Exactness mirrors ``step_many``: the regret cumsum adds only
        integers (exactly representable in float64) to the carried
        float regret, so any summation order reproduces the scalar
        sequential accumulation bit for bit.  Cells past a chunk's end
        sit only at the tail of a window, so they never feed a live
        cell's prefix; only their trigger tests are masked.  Cursor
        and stream state are committed on return — there is nothing
        left to replay.
        """
        S, _, L = block.shape
        if S <= SMALL_STACK_SESSIONS:
            return _sweep_small(cursors, block, lengths)
        sweep = _EpochSweep(cursors, block, lengths, cursors[0].memory - 1)
        cur, cur_size = sweep.cur, sweep.cur_size
        served = _stack_rows(cursors, "_served", (S, L))
        regret = np.fromiter(
            (c._regret for c in cursors), count=S, dtype=np.float64
        )
        threshold = np.fromiter(
            (c.alpha * c.w for c in cursors), count=S, dtype=np.float64
        )
        scan_min = cursors[0].scan_min
        scan_max = max(cursors[0].scan_max, scan_min)
        scan = scan_min
        while (epoch := sweep.next_epoch(scan)) is not None:
            a, pa, _cols, sub, live, n = epoch
            full = a.size == S
            acc = np.bitwise_or.accumulate(sub, axis=1)
            np.bitwise_or(
                acc,
                served[:, None, :] if full else served[a, None, :],
                out=acc,
            )
            misfit = _escapes(acc, cur if full else cur[a])
            pc = _lane_popcount(acc)
            csum = np.cumsum(cur_size[a, None] - pc, axis=1, dtype=np.float64)
            csum += regret[a, None]
            trigger = misfit | (csum > threshold[a, None])
            if live is not None:
                trigger &= live
            forced = (sweep.n0[a] == 0) & (pa == 0)
            if forced.any():
                # The first global step always installs.
                trigger[forced, 0] = True
            tr, tcol, nt = sweep.split(trigger)
            if nt.size:
                # No trigger in the window: bank served/regret at the
                # row's last live cell and resume past it.
                rows = a[nt]
                last = n[nt] - 1
                served[rows] = acc[nt, last]
                regret[rows] = csum[nt, last]
                sweep.bank(rows, n[nt])
            if tr.size:
                # One batched install: working set = the requirement
                # at the trigger ∪ the last (memory-1).
                rows = a[tr]
                t = pa[tr] + tcol
                sweep.install(rows, t)
                served[rows] = sweep.rows_at(rows, t)
                regret[rows] = 0.0
                scan = scan_min
            else:
                scan = min(scan * 2, scan_max)
        for s, (c, r) in enumerate(zip(cursors, regret.tolist())):
            c._served = served[s]
            c._regret = r
        return sweep.finish()


class RentOrBuyScheduler:
    """Regret-bounded online policy (ski rental generalization).

    State: the current hypercontext mask ``h`` and the accumulated
    *regret* — the extra switch-writes paid because ``h`` is larger
    than the union of the requirements actually served since the last
    hyperreconfiguration.  When serving the next requirement would
    either (a) not fit into ``h``, or (b) push the regret past
    ``alpha · w``, the scheduler hyperreconfigures to the union of the
    last ``memory`` requirements (its estimate of the new working set).
    """

    def __init__(
        self,
        w: float,
        *,
        alpha: float = 1.0,
        memory: int = 4,
        scan_min: int | None = None,
        scan_max: int | None = None,
    ):
        if w <= 0:
            raise ValueError("w must be positive")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if memory < 1:
            raise ValueError("memory must be at least 1")
        if scan_min is not None and scan_min < 1:
            raise ValueError("scan_min must be at least 1")
        if (
            scan_min is not None
            and scan_max is not None
            and scan_max < scan_min
        ):
            raise ValueError("scan_max must be at least scan_min")
        self.w = w
        self.alpha = alpha
        self.memory = memory
        #: Galloping sweep bounds for the batched cursor; ``None``
        #: defers to the cursor-class defaults.  Pure performance
        #: tunables — decisions never depend on them.
        self.scan_min = scan_min
        self.scan_max = scan_max
        self.name = f"rent_or_buy(alpha={alpha}, memory={memory})"

    def cursor(self) -> _RentOrBuyCursor:
        return _RentOrBuyCursor(self.w, self.alpha, self.memory)

    def batched_cursor(self, width: int) -> _BatchedRentOrBuyCursor:
        """Lane-packed cursor over a ``width``-switch universe."""
        return _BatchedRentOrBuyCursor(
            self.w,
            self.alpha,
            self.memory,
            width,
            scan_min=self.scan_min,
            scan_max=self.scan_max,
        )

    def plan(self, seq: RequirementSequence) -> SingleTaskSchedule:
        return plan_with_cursor(self.cursor(), seq)


class _WindowCursor:
    """State machine behind :class:`WindowScheduler`."""

    __slots__ = ("k", "current", "window")

    def __init__(self, k: int):
        self.k = k
        self.current = 0
        self.window = deque(maxlen=k)

    def step(self, i: int, req: int) -> int | None:
        installed = None
        if i % self.k == 0 or (req & ~self.current):
            estimate = req
            for m in self.window:
                estimate |= m
            self.current = estimate
            installed = estimate
        self.window.append(req)
        return installed


class _BatchedWindowCursor:
    """Lane-packed window cursor (:class:`_WindowCursor` is the scalar
    oracle; decisions here are bit-identical).

    Cadence triggers sit at known global step indices, so a chunk
    splits into spans of at most ``k`` steps; within a span the only
    possible trigger is a misfit, located with one vectorized AND-any.
    The installed estimate is the rolling ``k+1``-wide window union read
    off the history-prefixed chunk.
    """

    __slots__ = ("k", "stream", "_cur", "_cur_size", "_row")

    def __init__(self, k: int, width: int):
        self.k = k
        self.stream = PackedStream(width, history=k)
        self._cur = np.zeros(self.stream.lane_width, dtype=np.uint64)
        self._cur_size = 0
        self._row = -1

    @property
    def current(self) -> int:
        """Current hypercontext as an int mask (cursor contract)."""
        return lanes_to_masks(self._cur)

    def step_many(self, lanes: np.ndarray) -> CursorBatch:
        """Advance the cursor over a ``(C, L)`` uint64 requirement chunk."""
        lanes = np.ascontiguousarray(lanes, dtype=np.uint64)
        C = lanes.shape[0]
        L = self.stream.lane_width
        if C == 0:
            return _empty_batch(L)
        i0 = self.stream.n  # global index of the chunk's first step
        ext, off = self.stream.push(lanes)
        hyper = np.zeros(C, dtype=bool)
        sizes = np.empty(C, dtype=np.int64)
        installed: list[np.ndarray] = []
        cur, cur_size = self._cur, self._cur_size
        k = self.k
        pos = 0
        while pos < C:
            rem = (i0 + pos) % k
            next_cad = pos if rem == 0 else pos + (k - rem)
            if next_cad == pos:
                t = pos
            else:
                span = lanes[pos : min(next_cad, C)]
                misfit = (span & ~cur).any(axis=1)
                hit = int(np.argmax(misfit))
                if misfit[hit]:
                    t = pos + hit
                elif next_cad < C:
                    t = next_cad
                else:
                    sizes[pos:] = cur_size
                    break
            sizes[pos:t] = cur_size
            # Estimate = this requirement ∪ the previous window (the
            # last min(i, k) requirements), stale bits included.
            lo = max(0, off + t - k)
            estimate = np.bitwise_or.reduce(ext[lo : off + t + 1], axis=0)
            cur = estimate
            cur_size = int(popcount_u64(estimate).sum(dtype=np.int64))
            hyper[t] = True
            installed.append(estimate)
            sizes[t] = cur_size
            pos = t + 1
        self._cur, self._cur_size = cur, cur_size
        if installed:
            installed_arr = np.asarray(installed, dtype=np.uint64)
        else:  # pragma: no cover - a chunk always installs on first feed
            installed_arr = np.zeros((0, L), dtype=np.uint64)
        return CursorBatch(hyper=hyper, sizes=sizes, installed=installed_arr)

    @classmethod
    def sweep_many(cls, cursors, block: np.ndarray, lengths=None) -> FusedSweep:
        """Advance every cursor over its whole chunk, epoch by epoch.

        ``block`` is ``(S, Cmax, L)``, one zero-padded chunk per cursor
        (true lengths in ``lengths``); all cursors share the lane width
        and cadence ``k`` (hub group key pins both).  Same resumable
        shape as the rent-or-buy kernel, with the policy's two trigger
        kinds instead: cadence boundaries sit at known global indices
        (one modular arithmetic pass per window) and misfits are
        per-row AND-any tests against the frozen hypercontext — no
        prefix accumulate or regret state at all.  Every due trigger
        resolves in one batched install pass (rolling ``k+1``-wide
        window unions gathered off the history-prefixed block, whose
        last ``k`` stream rows per session cover triggers near the
        chunk front), and the sweep resumes from per-session offsets;
        a cadence ``k < C`` triggers every epoch and still never leaves
        the kernel.
        """
        S = block.shape[0]
        if S <= SMALL_STACK_SESSIONS:
            return _sweep_small(cursors, block, lengths)
        k = cursors[0].k
        sweep = _EpochSweep(cursors, block, lengths, k)
        cur = sweep.cur
        # Cadence boundaries are at most k apart, so a 2k window always
        # catches every session's next one regardless of phase; wider
        # scans would only touch columns a trigger resets anyway.
        scan = max(2 * k, 16)
        while (epoch := sweep.next_epoch(scan)) is not None:
            a, pa, cols, sub, live, n = epoch
            misfit = _escapes(sub, cur if a.size == S else cur[a])
            cadence = ((sweep.n0[a, None] + cols) % k) == 0
            trigger = misfit | cadence
            if live is not None:
                trigger &= live
            tr, tcol, nt = sweep.split(trigger)
            if nt.size:
                sweep.bank(a[nt], n[nt])
            if tr.size:
                # Estimate = this requirement ∪ the previous window
                # (the last min(i, k) requirements), stale bits and all.
                sweep.install(a[tr], pa[tr] + tcol)
        return sweep.finish()


class WindowScheduler:
    """Fixed-cadence policy with previous-window estimation.

    Every ``k`` steps the scheduler hyperreconfigures to its estimate
    of the coming block's needs: the union of the *previous* ``k``
    requirements (plus the step's own requirement, which it must serve
    either way).  Because the estimate is history, it can both carry
    stale switches the next block never touches *and* miss switches
    the next block needs; a miss forces an immediate corrective
    hyperreconfiguration mid-block.  Both failure modes cost real
    switch-writes, which is exactly the straw-man behavior the
    rent-or-buy comparison wants to beat.
    """

    def __init__(self, *, k: int = 8):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self.name = f"window(k={k})"

    def cursor(self) -> _WindowCursor:
        return _WindowCursor(self.k)

    def batched_cursor(self, width: int) -> _BatchedWindowCursor:
        """Lane-packed cursor over a ``width``-switch universe."""
        return _BatchedWindowCursor(self.k, width)

    def plan(self, seq: RequirementSequence) -> SingleTaskSchedule:
        return plan_with_cursor(self.cursor(), seq)


def run_online(scheduler, seq: RequirementSequence, w: float) -> OnlineRun:
    """Execute an online policy and evaluate its schedule."""
    schedule = scheduler.plan(seq)
    return OnlineRun(
        schedule=schedule,
        cost=switch_cost(seq, schedule, w=w),
        solver=getattr(scheduler, "name", type(scheduler).__name__),
    )


def competitive_report(
    seq: RequirementSequence, w: float, schedulers
) -> list[list]:
    """Rows of (policy, cost, competitive ratio vs offline optimum)."""
    optimum = solve_single_switch(seq, w=w)
    rows = []
    for scheduler in schedulers:
        run = run_online(scheduler, seq, w)
        ratio = run.cost / optimum.cost if optimum.cost else 1.0
        rows.append([run.solver, run.cost, round(ratio, 3)])
    rows.append(["offline optimum", optimum.cost, 1.0])
    return rows
