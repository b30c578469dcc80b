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
lane-packed contract for high-rate streaming.  A batched cursor class
has one entry point, the classmethod ``sweep_many(cursors, block,
lengths)``: it advances a stack of cursors over one ``(C, L)`` uint64
requirement chunk each and returns a :class:`FusedSweep` of per-step
hyper flags, hypercontext sizes and installed hypercontexts.  Stacks
of more than ``SMALL_STACK_SESSIONS`` (8) cursors run the
epoch-synchronous kernel; smaller ones run each cursor's galloping
per-cursor kernel over the same history-prefixed block, which is
faster below that size.  The decisions are *bit-identical* to driving
the scalar cursor step by step (the scalar cursors stay as the
correctness oracle; ``tests/test_stream_packed.py`` and
``tests/test_stream_fused.py`` enforce the equivalence on randomized
sequences across the 64-switch lane boundary): inside a chunk the
kernels solve for whole *no-hyper segments* at a time — prefix unions
and popcounts locate the next trigger (misfit or regret/cadence), then
the working-set window is read off the packed history — so their cost
is O(segments) NumPy sweeps instead of O(steps) Python calls.
"""

from __future__ import annotations

import math
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
class FusedSweep:
    """Result of one ``sweep_many`` call over stacked chunks.

    *Every* cursor in the stack completes its chunk in the call —
    through the epoch kernel's trigger epochs or, for a small stack,
    each cursor's galloping kernel — so there is no per-session replay
    path left.  Cursor and stream state are committed on return; the
    caller only books per-session accounting off the arrays below.

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
        Trigger-epoch iterations the kernel ran for this stack (for a
        small stack, the densest cursor's install count — what the
        epoch kernel would have iterated).
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

    The epoch kernel's epilogue leaves each cursor's state — and its
    stream's history — as a row view of one struct-of-arrays and
    stamps ``_row``; nothing else sets ``_row`` to a row index, and a
    small-stack sweep clears it.  When the same group returns in the
    same order with every view intact — the steady serving state —
    the previous array IS the stack, so it is reused instead of
    rebuilt; anything else falls back to a fresh copy.
    """
    get = attrgetter(attr)
    base = get(cursors[0]).base
    if base is not None and base.shape == shape:
        for s, c in enumerate(cursors):
            if c._row != s or get(c).base is not base:
                break
        else:
            return base
    return np.array([get(c) for c in cursors])


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
    """The block and commit shared by both ``sweep_many`` branches, and
    the epoch kernel's struct-of-arrays state.

    The chunks sit in one *history-prefixed* block ``ext`` of shape
    ``(S, H + Cmax, L)``: each session's last ``H`` stream rows, oldest
    first (zero rows in front for streams younger than ``H``), then its
    chunk.  Chunk step ``t`` is block row ``H + t``, so every
    working-set window ``t-H .. t`` is rows ``t .. t+H`` of the
    session's own block row — for the small-stack branch
    (:meth:`gallop`) and the epoch kernel alike — and
    :meth:`PackedStream.extend_many` commits every stream off it.

    For the epoch kernel, :meth:`start` adds every session's frozen
    hypercontext (``cur``/``cur_size``), its resume offset ``pos`` into
    its chunk and the install records; the kernels only supply their
    policy's trigger test.  Each epoch reads one window per live row,
    starting at the row's *own* offset — no row pays for another row's
    dead prefix — and the per-step ``sizes`` are filled once at the
    end, by forward-filling the install records, instead of scattered
    epoch by epoch.
    """

    def __init__(self, cursors, block: np.ndarray, lengths, history: int):
        S, Cmax, L = block.shape
        H = history
        self.cursors = cursors
        if H:
            # History that extend_many left behind is reused as it
            # stands when no other call replaced it.
            ext = np.empty((S, H + Cmax, L), dtype=np.uint64)
            ext[:, :H] = _stack_rows(
                cursors, "stream.history_rows", (S, H, L)
            )
            ext[:, H:] = block
        else:
            ext = block
        self.ext = ext
        self.H = H
        self.row_len = H + Cmax
        self.lengths = _sweep_lengths(S, Cmax, lengths)
        self.ragged = lengths is not None and int(self.lengths.min()) != Cmax

    def gallop(self) -> FusedSweep:
        """Serve a small stack one cursor at a time.

        Each cursor's galloping kernel (``step_many``) reads its
        windows off its row of the block and writes its row of the
        ``(S, Cmax)`` arrays; installs come back session-major and in
        step order.  The kernel leaves per-cursor state, not rows of
        one stack, so every cursor's ``_row`` is cleared: a later
        sweep restacks rather than trust a row this call did not
        stamp (its histories are rows of this call's commit, and a
        stale ``_row`` could match them in a different order).
        """
        S, _, L = self.ext.shape
        Cmax = self.row_len - self.H
        hyper = np.zeros((S, Cmax), dtype=bool)
        sizes = np.zeros((S, Cmax), dtype=np.int64)
        counts = []
        installed: list[np.ndarray] = []
        for s, (c, n) in enumerate(zip(self.cursors, self.lengths.tolist())):
            rows = c.step_many(self, s, n, hyper[s], sizes[s])
            c._row = -1
            counts.append(len(rows))
            installed += rows
        installed = (
            np.asarray(installed, dtype=np.uint64) if installed
            else np.zeros((0, L), dtype=np.uint64)
        )
        return self.commit(
            hyper, sizes, installed, np.array(counts, dtype=np.int64),
            max(counts),
        )

    def start(self) -> None:
        """Set up the epoch kernel's state."""
        cursors = self.cursors
        S, _, L = self.ext.shape
        self.flat = self.ext.reshape(S * self.row_len, L)
        self.window = np.arange(self.H + 1)
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
        """Commit the epoch kernel's cursor state; build its arrays.

        ``sizes`` is a forward fill: each step serves at the size of
        its row's latest install at or before it (the pre-chunk size
        before the first one), read through one index array.
        """
        lengths = self.lengths
        S, _, L = self.ext.shape
        Cmax = self.row_len - self.H
        for s, (c, size) in enumerate(
            zip(self.cursors, self.cur_size.tolist())
        ):
            c._cur = self.cur[s]
            c._cur_size = size
            c._row = s
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
        if self.ragged:
            sizes[np.arange(Cmax) >= lengths[:, None]] = 0
        return self.commit(hyper, sizes, installed, counts, self.epochs)

    def commit(self, hyper, sizes, installed, counts, epochs) -> FusedSweep:
        """Commit every stream off the block; freeze the arrays."""
        lengths = self.lengths
        PackedStream.extend_many(
            [c.stream for c in self.cursors], self.ext,
            lengths=lengths if self.ragged else None,
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


#: Stack-size crossover for ``sweep_many``: stacks of at most this many
#: sessions run each cursor's galloping kernel instead of the epoch
#: kernel, whose win is amortizing per-epoch NumPy spans over many
#: rows.  Epoch ÷ per-cursor speed through ``StreamHub.feed_many`` on
#: perfbench's ``fleet_lanes`` fleet (width 96, median of 5; both
#: policies, calm and hectic drift, 64- and 256-step chunks: eight
#: cells per stack size), lowest to highest cell:
#:
#:     S:      1     2     4     8     16    32
#:     low:  0.33  0.30  0.55  0.58  0.77  1.13
#:     high: 0.62  0.56  0.68  0.93  1.43  1.98
#:
#: The per-cursor kernel wins every cell up to 8 sessions, the epoch
#: kernel 5 of 8 cells at 16 and all of them at 32.  Decisions are
#: bit-identical either way; the equivalence suites run with the
#: constant at 0 and at its default.
SMALL_STACK_SESSIONS = 8


def _sweep_lengths(S: int, Cmax: int, lengths) -> np.ndarray:
    if lengths is None:
        # Cheaper than np.full at the stack sizes small chunks use.
        return np.array([Cmax] * S, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (S,) or (lengths < 1).any() or (lengths > Cmax).any():
        raise ValueError("lengths must hold one value in [1, Cmax] per chunk")
    return lengths


def plan_with_cursor(cursor, seq: RequirementSequence) -> SingleTaskSchedule:
    """Drive a scalar policy cursor over a whole sequence.

    Every cursor hyperreconfigures at step 0 and afterwards whenever a
    requirement does not fit, so the recorded masks already cover their
    blocks; they are still widened by the block unions as a safety net
    (a no-op for well-behaved cursors, and the cheapest way to keep the
    "explicit masks must cover" invariant unconditionally true).  The
    widening runs on packed lanes (one ``bitwise_or.reduceat`` instead
    of a per-step Python union loop).
    """
    masks = seq.masks
    n = len(masks)
    if n == 0:
        return SingleTaskSchedule(n=0, hyper_steps=())
    hyper_steps = []
    hyper_masks = []
    for i, req in enumerate(masks):
        installed = cursor.step(i, req)
        if installed is not None:
            hyper_steps.append(i)
            hyper_masks.append(installed)
    if hyper_steps:
        width = seq.universe.size
        unions = np.bitwise_or.reduceat(
            masks_to_lanes(masks, width),
            np.asarray(hyper_steps, dtype=np.intp),
            axis=0,
        )
        widened = lanes_to_masks(masks_to_lanes(hyper_masks, width) | unions)
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

    Its galloping kernel (``step_many``, run by ``sweep_many`` for
    small stacks) processes a chunk *segment by segment*: between two
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
        "multi_trigger_hits",
        "_cur",
        "_cur_size",
        "_served",
        "_regret",
        "_saturated",
        "_row",
    )

    #: Galloping sweep bounds of both kernels: prefix unions are
    #: recomputed from each segment start, so an unbounded sweep would
    #: be O(chunk²) when hypers are frequent — and a large fixed window
    #: wastes compute past the trigger when they are.  Each segment
    #: starts with a small sweep that doubles while no trigger is found
    #: (total rows touched stay within ~2× the segment length either
    #: way).  State carries across sweep windows exactly as it does
    #: across chunks, so the bounds only shape the work, never the
    #: decisions; tests shrink them to reach the continuation paths,
    #: and bench E16 sweeps the grid.
    _SCAN_MIN = 128
    _SCAN_MAX = 4096

    def __init__(self, w: float, alpha: float, memory: int, width: int):
        self.w = w
        self.alpha = alpha
        self.memory = memory
        self.stream = PackedStream(width, history=memory - 1)
        L = self.stream.lane_width
        self._cur = np.zeros(L, dtype=np.uint64)
        self._cur_size = 0
        self._served = np.zeros(L, dtype=np.uint64)
        self._regret = 0.0
        #: True only when the served union is known to equal the
        #: hypercontext (the galloping kernel finds out for free; the
        #: epoch kernel resets it to False, which is always safe).
        self._saturated = False
        #: Row index this cursor held in the last epoch sweep (see
        #: ``_stack_rows``); -1 before one and after a small-stack sweep.
        self._row = -1
        #: Triggers resolved by the multi-trigger fast path (hectic
        #: streams resolve several misfits per sweep window without
        #: recomputing the prefix-union/popcount/cumsum passes).
        self.multi_trigger_hits = 0

    @property
    def current(self) -> int:
        """Current hypercontext as an int mask (cursor contract)."""
        return lanes_to_masks(self._cur)

    def step_many(
        self, sweep: _EpochSweep, s: int, C: int, hyper, sizes
    ) -> list:
        """Galloping kernel: serve row ``s`` (``C`` steps) of a small
        stack.

        The private body of ``sweep_many``'s small-stack branch (named
        as ``perfbench/layers.py`` wraps it).  Reads the chunk and its
        working-set windows off ``sweep``'s history-prefixed block,
        writes the row's ``hyper``/``sizes`` and returns the installed
        lanes in step order; the stream is committed by the sweep.
        """
        H = sweep.H
        ext = sweep.ext[s]
        lanes = ext[H : H + C]
        installed: list[np.ndarray] = []
        threshold = self.alpha * self.w
        first_forced = self.stream.n == 0
        cur, cur_size = self._cur, self._cur_size
        served, regret = self._served, self._regret
        saturated = self._saturated
        scan_min = self._SCAN_MIN
        scan_max = self._SCAN_MAX
        pos = 0
        scan = scan_min
        ncur = ~cur
        while pos < C:
            stop = min(C, pos + scan)
            forced = first_forced and pos == 0
            if saturated and not forced and not np.count_nonzero(
                np.bitwise_or.reduce(lanes[pos:stop], axis=0) & ncur
            ):
                # served == cur: while nothing escapes cur every prefix
                # union is cur, so the regret holds still and one union
                # of the window decides it.
                sizes[pos:stop] = cur_size
                pos = stop
                scan = min(scan * 2, scan_max)
                continue
            acc = np.bitwise_or.accumulate(lanes[pos:stop], axis=0)
            np.bitwise_or(acc, served, out=acc)
            # served ⊆ cur, so the prefix union escapes cur exactly
            # where the first unservable requirement sits (monotone).
            # Without an escape every regret addend |cur| − |union| is
            # a non-negative integer: the regret peaks at the window's
            # last step, at the carried regret plus one exact integer
            # sum, so a quiet window needs no per-step pass.
            if not forced and not np.count_nonzero(acc[-1] & ncur):
                # The ufunc methods here and below skip the
                # ndarray.sum/np.cumsum wrappers: this loop runs once
                # per scan window, which a lone session's chunks feel.
                gain = (stop - pos) * cur_size - int(
                    np.add.reduce(popcount_u64(acc), axis=None)
                )
                peak = regret + float(gain)
                if peak <= threshold:
                    sizes[pos:stop] = cur_size
                    served = acc[-1]
                    regret = peak
                    # Every addend 0: each union, the last one included,
                    # is cur itself.
                    saturated = gain == 0
                    pos = stop
                    scan = min(scan * 2, scan_max)
                    continue
            saturated = False  # the trigger below resets served
            pc = np.add.reduce(popcount_u64(acc), axis=1, dtype=np.int64)
            csum = np.add.accumulate(cur_size - pc, dtype=np.float64)
            if regret:  # exact either way; skips an add per sweep
                csum = regret + csum
            trigger = (acc & ncur).any(axis=1) | (csum > threshold)
            if forced:
                trigger[0] = True
            t = pos + int(np.argmax(trigger))
            scan = scan_min
            sizes[pos:t] = cur_size
            # Working set = this requirement ∪ the last (memory-1) ones:
            # block rows t .. t+H.
            ws = np.bitwise_or.reduce(ext[t : t + H + 1], axis=0)
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
                ws = np.bitwise_or.reduce(ext[t : t + H + 1], axis=0)
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
        self._saturated = saturated
        return installed

    @classmethod
    def sweep_many(cls, cursors, block: np.ndarray, lengths=None) -> FusedSweep:
        """Advance every cursor over its whole chunk; the one entry
        point of the batched contract.

        ``block`` stacks one ``(C_s, L)`` chunk per cursor into
        ``(S, Cmax, L)`` (ragged chunks zero-padded on the right, their
        true lengths in ``lengths``); all cursors must share the lane
        width and ``memory`` — the hub's group key guarantees it, while
        ``w``/``alpha`` may vary and are gathered as vectors.  A stack
        of at most ``SMALL_STACK_SESSIONS`` cursors runs each cursor's
        galloping kernel (``step_many``) over the block instead of the
        epoch kernel below; the decisions are the same.

        The epoch kernel is *resumable*: per-session offsets ``pos`` track
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

        Exactness mirrors the galloping kernel: the regret cumsum adds only
        integers (exactly representable in float64) to the carried
        float regret, so any summation order reproduces the scalar
        sequential accumulation bit for bit.  Cells past a chunk's end
        sit only at the tail of a window, so they never feed a live
        cell's prefix; only their trigger tests are masked.  Cursor
        and stream state are committed on return — there is nothing
        left to replay.
        """
        S, _, L = block.shape
        sweep = _EpochSweep(cursors, block, lengths, cursors[0].memory - 1)
        if S <= SMALL_STACK_SESSIONS:
            return sweep.gallop()
        sweep.start()
        cur, cur_size = sweep.cur, sweep.cur_size
        served = _stack_rows(cursors, "_served", (S, L))
        regret = np.fromiter(
            (c._regret for c in cursors), count=S, dtype=np.float64
        )
        threshold = np.fromiter(
            (c.alpha * c.w for c in cursors), count=S, dtype=np.float64
        )
        scan_min = cls._SCAN_MIN
        scan_max = cls._SCAN_MAX
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
            c._saturated = False
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
    ):
        # NaN fails every comparison, so finiteness is checked first.
        if not math.isfinite(w) or w <= 0:
            raise ValueError("w must be positive and finite")
        if not math.isfinite(alpha) or alpha <= 0:
            raise ValueError("alpha must be positive and finite")
        if memory < 1:
            raise ValueError("memory must be at least 1")
        self.w = w
        self.alpha = alpha
        self.memory = memory
        self.name = f"rent_or_buy(alpha={alpha}, memory={memory})"

    def cursor(self) -> _RentOrBuyCursor:
        return _RentOrBuyCursor(self.w, self.alpha, self.memory)

    def batched_cursor(self, width: int) -> _BatchedRentOrBuyCursor:
        """Lane-packed cursor over a ``width``-switch universe."""
        return _BatchedRentOrBuyCursor(
            self.w, self.alpha, self.memory, width
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
    off the history-prefixed block.  ``step_many`` runs this for small
    stacks; ``sweep_many``'s epoch kernel batches it for larger ones.
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

    def step_many(
        self, sweep: _EpochSweep, s: int, C: int, hyper, sizes
    ) -> list:
        """Per-cursor kernel: serve row ``s`` (``C`` steps) of a small
        stack (see :meth:`_BatchedRentOrBuyCursor.step_many`)."""
        k = self.k
        ext = sweep.ext[s]
        lanes = ext[k : k + C]
        i0 = self.stream.n  # global index of the chunk's first step
        installed: list[np.ndarray] = []
        cur, cur_size = self._cur, self._cur_size
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
                    sizes[pos:C] = cur_size
                    break
            sizes[pos:t] = cur_size
            # Estimate = this requirement ∪ the previous window (the
            # last min(i, k) requirements, block rows t .. t+k), stale
            # bits included.
            estimate = np.bitwise_or.reduce(ext[t : t + k + 1], axis=0)
            cur = estimate
            cur_size = int(popcount_u64(estimate).sum(dtype=np.int64))
            hyper[t] = True
            installed.append(estimate)
            sizes[t] = cur_size
            pos = t + 1
        self._cur, self._cur_size = cur, cur_size
        return installed

    @classmethod
    def sweep_many(cls, cursors, block: np.ndarray, lengths=None) -> FusedSweep:
        """Advance every cursor over its whole chunk; the one entry
        point of the batched contract.

        ``block`` is ``(S, Cmax, L)``, one zero-padded chunk per cursor
        (true lengths in ``lengths``); all cursors share the lane width
        and cadence ``k`` (hub group key pins both).  Small stacks run
        ``step_many`` per cursor, as for rent-or-buy.  Same resumable
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
        k = cursors[0].k
        sweep = _EpochSweep(cursors, block, lengths, k)
        if S <= SMALL_STACK_SESSIONS:
            return sweep.gallop()
        sweep.start()
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
