"""Streaming sessions: step-by-step requirements, incremental cost.

A batch request needs the whole requirement sequence up front; a
machine scheduling *at run time* receives requirements one
reconfiguration step at a time.  Two serving APIs cover that mode:

* :class:`StreamSession` owns one online policy cursor (from
  :mod:`repro.solvers.online`), accepts requirements via :meth:`feed`
  (one step) or :meth:`feed_many` (a chunk), and does the cost
  accounting the offline evaluator would do — ``w`` per
  hyperreconfiguration plus ``|h|`` switch-writes per served step —
  incrementally, so a dashboard can read the running total at any
  point.  Policies exposing the *batched cursor* contract
  (``batched_cursor`` and the cursor class's ``sweep_many``, see
  :mod:`repro.solvers.online`) run on lane-packed NumPy state: a chunk
  of steps advances in a few vectorized sweeps, booked by the same
  function that books a hub's fused groups (benchmark E16 measures the
  speedup over the scalar cursor).  Schedulers without the batched
  contract fall back to the scalar ``cursor()`` path transparently.

* :class:`StreamHub` multiplexes many concurrent sessions — one per
  user/machine — under string session ids, with per-session policy,
  universe and ``w``.  ``feed_many`` takes a mapping of per-session
  chunks, validates every chunk before any session moves, advances
  each session on its packed state and returns a :class:`FeedRows`:
  the call's per-session counters as arrays, readable as a mapping of
  session id to :class:`StreamBatch` whose per-step arrays are built
  only when a row is read.  A fused group is booked as array
  bookkeeping — steps, hypers and costs come straight off the sweep's
  arrays and one seeded cost cumsum, with no per-session batch object.
  Aggregate counters (sessions, steps, hyperreconfigurations, wall
  time) flow into a shared :class:`~repro.engine.metrics.EngineMetrics`
  so the operator report shows streaming steps/sec and the fleet-wide
  hyper rate next to the batch counters.

A session is its policy cursor plus three counters — steps, hypers
and cost — which is all the switch model charges for, so its memory is
bounded by the policy's history, not by how long it has run.  It keeps
no requirement or install log: :meth:`StreamSession.finish` returns a
:class:`CloseResult` of the counters in O(1).  The incremental total is
accumulated in the exact order the scalar session used (a seeded
cumulative sum), so packed and scalar sessions agree bit for bit, not
approximately; the cost is checked against the offline evaluator by
the oracle test suites and by ``repro serve-bench --verify``, not at
close.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, replace
from itertools import chain, count

import numpy as np

from repro.core.context import RequirementSequence
from repro.core.packed import lanes_fit, lanes_to_masks, masks_to_lanes
from repro.core.switches import SwitchUniverse
from repro.engine.metrics import EngineMetrics

__all__ = [
    "CloseResult", "FeedRows", "StreamBatch", "StreamEvent", "StreamHub",
    "StreamSession",
]

_U64 = np.dtype(np.uint64)


@dataclass(frozen=True)
class CloseResult:
    """Accounting of one finished session — the switch-model counters.

    Attributes
    ----------
    solver:
        Name of the policy that served the session.
    steps:
        Requirements served.
    hypers:
        Hyperreconfigurations installed.
    cost:
        Total cost, ``w·hypers + Σ|h|`` over the served steps.
    session:
        The session's id where a hub, pool or server knows it
        (``None`` from a bare :meth:`StreamSession.finish`).
    """

    solver: str
    steps: int
    hypers: int
    cost: float
    session: str | None = None


@dataclass(frozen=True)
class StreamEvent:
    """One served requirement.

    Attributes
    ----------
    step:
        0-based reconfiguration step index.
    hyper:
        True when the policy hyperreconfigured before serving.
    hypercontext:
        Mask of the hypercontext that served the step.
    step_cost:
        Cost charged for this step (``w·hyper + |hypercontext|``).
    cumulative_cost:
        Session total including this step.
    """

    step: int
    hyper: bool
    hypercontext: int
    step_cost: float
    cumulative_cost: float


@dataclass(frozen=True)
class StreamBatch:
    """Aggregate accounting of one :meth:`StreamSession.feed_many` chunk.

    The hot path serves thousands of steps per call; this is the
    chunk-level view (no per-step event objects).  ``hyper_flags`` and
    ``sizes`` are the per-step arrays for callers that want them;
    they are ``None`` in a batch read off counters-only
    :class:`FeedRows` (a pickled or shard-pool result).

    Attributes
    ----------
    start:
        Step index of the chunk's first requirement.
    steps:
        Requirements served by this chunk.
    hypers:
        Hyperreconfigurations the chunk triggered.
    cost:
        Cost charged for the chunk.
    cumulative_cost:
        Session total including this chunk.
    hyper_flags:
        ``(steps,)`` bool — which steps hyperreconfigured.
    sizes:
        ``(steps,)`` int64 — ``|hypercontext|`` serving each step.
    """

    start: int
    steps: int
    hypers: int
    cost: float
    cumulative_cost: float
    hyper_flags: np.ndarray | None
    sizes: np.ndarray | None


class StreamSession:
    """Feed requirements to an online policy, one step or chunk at a time.

    Parameters
    ----------
    scheduler:
        An online policy (:class:`~repro.solvers.online.RentOrBuyScheduler`,
        :class:`~repro.solvers.online.WindowScheduler`, or anything
        honoring the cursor contract).  When the policy implements
        ``batched_cursor(width)`` the session runs on the lane-packed
        batched path; otherwise it steps the scalar ``cursor()``.
    universe:
        Switch universe the fed masks live in (validates mask range).
    w:
        Hyperreconfiguration cost charged per installed hypercontext.
    """

    def __init__(self, scheduler, universe: SwitchUniverse, w: float):
        # NaN fails every comparison, so finiteness is checked first.
        if not math.isfinite(w) or w <= 0:
            raise ValueError(
                "hyperreconfiguration cost w must be positive and finite"
            )
        self.scheduler = scheduler
        self.universe = universe
        self.w = float(w)
        self.solver = getattr(scheduler, "name", type(scheduler).__name__)
        if hasattr(scheduler, "batched_cursor"):
            self._batched = scheduler.batched_cursor(universe.size)
            self._cursor = None
        else:
            self._batched = None
            self._cursor = scheduler.cursor()
        # Session-invariant half of the fused group key, precomputed so
        # the hub's per-chunk eligibility test only inspects the chunk.
        if self._batched is not None:
            stream = self._batched.stream
            self._fuse_key = (
                type(self._batched), stream.lane_width, stream.history
            )
        else:
            self._fuse_key = None
        self._n = 0
        self._hypers = 0
        self._cost = 0.0
        self._finished = False

    # -- introspection -----------------------------------------------------

    @property
    def steps(self) -> int:
        """Requirements served so far."""
        return self._n

    @property
    def hyper_count(self) -> int:
        return self._hypers

    @property
    def cost(self) -> float:
        """Running total of the switch-model cost."""
        return self._cost

    @property
    def current_hypercontext(self) -> int:
        cursor = self._batched if self._batched is not None else self._cursor
        return cursor.current

    # -- serving -----------------------------------------------------------

    def _check_masks(self, masks: Iterable[int]) -> list[int]:
        masks = list(masks)
        full = self.universe.full_mask
        for mask in masks:
            if mask < 0 or mask > full:
                raise ValueError(
                    f"requirement {mask:#x} out of universe range "
                    f"(size {self.universe.size})"
                )
        return masks

    def feed(self, mask: int) -> StreamEvent:
        """Serve one requirement; returns the step's accounting event."""
        if self._finished:
            raise RuntimeError("session already finished")
        (mask,) = self._check_masks([mask])
        if self._batched is not None:
            batch = self._serve(masks_to_lanes([mask], self.universe.size))
            return StreamEvent(
                step=batch.start,
                hyper=bool(batch.hyper_flags[0]),
                hypercontext=self._batched.current,
                step_cost=batch.cost,
                cumulative_cost=batch.cumulative_cost,
            )
        return self._feed_scalar(mask)

    def _feed_scalar(self, mask: int) -> StreamEvent:
        i = self._n
        installed = self._cursor.step(i, mask)
        current = self._cursor.current
        if mask & ~current:
            raise RuntimeError(
                f"policy {self.solver!r} broke the cursor contract: "
                f"step {i} requirement {mask:#x} not covered by "
                f"hypercontext {current:#x}"
            )
        hyper = installed is not None
        step_cost = (self.w if hyper else 0.0) + current.bit_count()
        self._cost += step_cost
        self._n += 1
        if hyper:
            self._hypers += 1
        return StreamEvent(
            step=i,
            hyper=hyper,
            hypercontext=current,
            step_cost=step_cost,
            cumulative_cost=self._cost,
        )

    def feed_many(self, masks) -> StreamBatch:
        """Serve a chunk of requirements in one vectorized call.

        ``masks`` is an iterable of int masks, a
        :class:`~repro.core.context.RequirementSequence`, or an already
        lane-packed ``(C, L)`` uint64 array (fast path).  Either way the
        chunk is validated against the universe before any state
        changes.  The session keeps no reference to the chunk, so
        callers may reuse one preallocated buffer across feeds.
        """
        return self._serve(self._prepare(masks))

    def _prepare(self, masks):
        """Validate and convert a chunk without touching any state:
        ``(C, L)`` lanes for a batched cursor, a list of int masks for
        the scalar one."""
        if self._finished:
            raise RuntimeError("session already finished")
        if isinstance(masks, np.ndarray) and masks.ndim == 2:
            lanes = np.ascontiguousarray(masks, dtype=np.uint64)
            if not lanes_fit(lanes, self.universe.size):
                raise ValueError(
                    f"lane chunk of shape {lanes.shape} does not fit the "
                    f"{self.universe.size}-switch universe"
                )
            if self._batched is not None:
                return lanes
            return lanes_to_masks(lanes) if lanes.shape[0] else []
        if isinstance(masks, RequirementSequence):
            masks = masks.masks
        int_masks = self._check_masks(masks)
        if self._batched is not None:
            return masks_to_lanes(int_masks, self.universe.size)
        return int_masks

    def _serve(self, prepared) -> StreamBatch:
        """Serve a chunk :meth:`_prepare` returned.  An empty chunk
        books zero counters without a kernel call."""
        if self._batched is not None and len(prepared):
            sweep, (start,), (before,), (after,) = _sweep_group(
                [self], prepared[None], None
            )
            return StreamBatch(
                start=start,
                steps=len(prepared),
                hypers=sweep.triggers,
                cost=after - before,
                cumulative_cost=after,
                hyper_flags=sweep.hyper[0],
                sizes=sweep.sizes[0],
            )
        start = self._n
        cost_before = self._cost
        hypers_before = self._hypers
        hyper_flags = np.zeros(len(prepared), dtype=bool)
        sizes = np.zeros(len(prepared), dtype=np.int64)
        for j, mask in enumerate(prepared):
            event = self._feed_scalar(mask)
            hyper_flags[j] = event.hyper
            sizes[j] = event.hypercontext.bit_count()
        return StreamBatch(
            start=start,
            steps=len(prepared),
            hypers=self._hypers - hypers_before,
            cost=self._cost - cost_before,
            cumulative_cost=self._cost,
            hyper_flags=hyper_flags,
            sizes=sizes,
        )

    def feed_sequence(self, seq) -> list[StreamEvent]:
        """Feed a whole :class:`RequirementSequence` (or mask iterable).

        Returns one event per step (API kept from the scalar era; use
        :meth:`feed_many` when per-step events are not needed).
        """
        masks = seq.masks if isinstance(seq, RequirementSequence) else seq
        return [self.feed(m) for m in masks]

    # -- closing -----------------------------------------------------------

    def finish(self) -> CloseResult:
        """Close the session into its counters, in O(1).

        The session keeps no requirement or install log, so there is
        nothing to re-evaluate here: the oracle suites and
        ``repro serve-bench --verify`` check the accumulated cost
        against the scalar session and the offline evaluator instead.
        """
        self._finished = True
        return CloseResult(
            solver=self.solver, steps=self._n, hypers=self._hypers,
            cost=self._cost,
        )


_ROW_FIELDS = (
    ("start", np.int64),
    ("steps", np.int64),
    ("hypers", np.int64),
    ("cost", np.float64),
    ("cumulative_cost", np.float64),
)


class FeedRows(Mapping):
    """One :meth:`StreamHub.feed_many` call's accounting, as rows.

    A read-only mapping of session id to :class:`StreamBatch`, in the
    caller's order, so ``rows[sid].cost`` reads as it would off a
    dict.  The counters themselves are arrays with one row per
    session:

    ``ids``
        Session ids, in row order.
    ``start``, ``steps``, ``hypers``
        int64 — each session's first step index in the call, the
        steps served and the hyperreconfigurations installed.
    ``cost``, ``cumulative_cost``
        float64 — the cost the call charged and the session's total
        after it.

    ``rows[sid]`` builds its batch only when read, its per-step arrays
    row views of the fused group's sweep arrays (or of the arrays a
    plain-path chunk was served with).  :meth:`counters` and
    pickling keep the five arrays and drop the per-step sources, so a
    shard's reply carries no per-step array across a process pipe;
    batches read off such rows have ``hyper_flags`` and ``sizes``
    ``None``.
    """

    __slots__ = (
        "ids", "start", "steps", "hypers", "cost", "cumulative_cost",
        "_per_step", "_index",
    )

    def __init__(
        self, ids, start, steps, hypers, cost, cumulative_cost,
        per_step=None,
    ):
        """``per_step`` is ``(sources, source_of, member_of)``: a list
        of ``(S, C)`` ``(hyper, sizes)`` array pairs — one per fused
        group, one single-row pair per plain-path chunk — and each
        row's source and row within it; ``None`` keeps counters
        only."""
        self.ids = tuple(ids)
        for (name, _dtype), arr in zip(
            _ROW_FIELDS, (start, steps, hypers, cost, cumulative_cost)
        ):
            arr.setflags(write=False)
            setattr(self, name, arr)
        self._per_step = per_step
        self._index = None

    @classmethod
    def concat(cls, parts) -> "FeedRows":
        """The rows of ``parts`` in order, counters only (a single
        part is returned as it is)."""
        parts = tuple(parts)
        if len(parts) == 1:
            return parts[0]
        return cls(
            chain.from_iterable(part.ids for part in parts),
            *(
                np.concatenate(
                    [np.zeros(0, dtype)] + [getattr(p, name) for p in parts]
                )
                for name, dtype in _ROW_FIELDS
            ),
        )

    def counters(self) -> "FeedRows":
        """These rows without their per-step sources."""
        return FeedRows(self.ids, *self._arrays())

    def __reduce__(self):
        return FeedRows, (self.ids, *self._arrays())

    def _arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name, _dtype in _ROW_FIELDS]

    def _rows(self) -> dict[str, int]:
        if self._index is None:
            self._index = {sid: i for i, sid in enumerate(self.ids)}
        return self._index

    def __getitem__(self, sid: str) -> StreamBatch:
        i = self._rows()[sid]
        n = int(self.steps[i])
        hyper_flags = sizes = None
        if self._per_step is not None:
            sources, source_of, member_of = self._per_step
            hyper, step_sizes = sources[source_of[i]]
            member = member_of[i]
            hyper_flags, sizes = hyper[member, :n], step_sizes[member, :n]
        return StreamBatch(
            start=int(self.start[i]),
            steps=n,
            hypers=int(self.hypers[i]),
            cost=float(self.cost[i]),
            cumulative_cost=float(self.cumulative_cost[i]),
            hyper_flags=hyper_flags,
            sizes=sizes,
        )

    def __contains__(self, sid) -> bool:
        return sid in self._rows()

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def _sweep_group(group: list, block: np.ndarray, lengths):
    """Advance batched sessions of one group key through their cursor
    kind's ``sweep_many``, and book the accounting.

    ``block`` is the group's ``(S, Cmax, L)`` stack (``lengths`` as
    ``sweep_many`` takes it).  The accounting is arrays: one seeded
    cost cumsum, row-wise exactly the scalar session's step-by-step
    accumulation (padding columns add 0.0, so the final column is
    every ragged session's total); steps are the chunk lengths and
    hypers the sweep's install counts.  Returns ``(sweep, start,
    before, after)``: the sweep, then per session (as lists) its first
    step index and its total before and after the chunk.
    """
    sweep = group[0]._fuse_key[0].sweep_many(
        [session._batched for session in group], block, lengths=lengths
    )
    start = [session._n for session in group]
    before = [session._cost for session in group]
    costs = np.empty((len(group), block.shape[1] + 1), dtype=np.float64)
    costs[:, 0] = before
    # Built and accumulated in place: no temporaries per call, which
    # a lone session's small chunks feel.
    np.add(
        np.where(
            sweep.hyper, np.array([session.w for session in group])[:, None],
            0.0,
        ),
        sweep.sizes,
        out=costs[:, 1:],
    )
    np.add.accumulate(costs, axis=1, out=costs)
    after = costs[:, -1].tolist()
    for session, n_s, h_s, c_s in zip(
        group, sweep.lengths.tolist(), sweep.installed_counts.tolist(),
        after,
    ):
        session._n += n_s
        session._hypers += h_s
        session._cost = c_s
    return sweep, start, before, after


def _stack_group(
    ids: tuple[str, ...], rows: list[int], group: list, lanes: list,
    counts: list[int], L: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One fused group's ``(S, Cmax, L)`` block (ragged chunks
    zero-padded) and int64 chunk lengths.  The range check runs once
    on the block, against the narrowest member universe (the lane
    count, not the width, keys a group); only a failure is resolved
    member by member, so the error names the offending session."""
    S, Cmax = len(group), max(counts)
    if min(counts) == Cmax:
        block = np.concatenate(lanes).reshape(S, Cmax, L)
    else:
        block = np.zeros((S, Cmax, L), dtype=np.uint64)
        for s, chunk in enumerate(lanes):
            block[s, : counts[s]] = chunk
    narrowest = min(session.universe.size for session in group)
    if not lanes_fit(block, narrowest):
        for row, session, chunk in zip(rows, group, lanes):
            if not lanes_fit(chunk, session.universe.size):
                raise ValueError(
                    f"session {ids[row]!r}: lane chunk sets switches "
                    f"beyond its {session.universe.size}-switch universe"
                )
    return block, np.array(counts, dtype=np.int64)


class StreamHub:
    """Many concurrent streaming sessions under one metrics roof.

    The hub is the serving front door for the online mode: each
    user/machine opens a session (its own policy, universe and ``w``),
    requirements arrive per session — singly via :meth:`feed` or as
    per-session chunks via :meth:`feed_many` — and every session runs
    on its own lane-packed cursor state.  Aggregate counters stream
    into the shared :class:`~repro.engine.metrics.EngineMetrics`
    (sessions opened, steps served, hyperreconfigurations, wall time),
    which derives steps/sec and the fleet-wide hyper rate for the
    operator report.
    """

    def __init__(
        self,
        *,
        metrics: EngineMetrics | None = None,
        retain_runs: bool = True,
        tracer=None,
    ):
        """``retain_runs=False`` drops close records after handing them
        to the caller (and releases their session ids for reuse) — the
        long-running-service mode the shard pool uses, where reserving
        every closed id forever would grow without bound.
        ``tracer`` is an optional
        :class:`~repro.obs.trace.TraceRecorder`; the hub records
        open/feed/close spans into it."""
        self.metrics = metrics if metrics is not None else EngineMetrics()
        self.retain_runs = retain_runs
        self.tracer = tracer
        self._sessions: dict[str, StreamSession] = {}
        self._runs: dict[str, CloseResult] = {}
        self._auto_id = count()
        # O(1) fleet totals (satellite of the fused-sweep PR): steps
        # and hypers of live sessions and retained runs, maintained on
        # feed/close instead of re-summed per stats scrape.  Exact for
        # hub-routed traffic, which is the only kind there is — the
        # shard/serve layers never feed a session behind the hub's
        # back.
        self._live_steps = 0
        self._live_hypers = 0
        self._closed_steps = 0
        self._closed_hypers = 0
        #: (fused, fallback, group sizes, replay epochs, triggers) of
        #: the most recent :meth:`feed_many` — shard drain cycles ship
        #: this upstream so a pool's parent metrics see per-cycle fused
        #: counts and replay-epoch telemetry.
        self._last_fused: tuple[int, int, tuple[int, ...], int, int] = (
            0, 0, (), 0, 0,
        )

    # -- session management ------------------------------------------------

    def open(
        self,
        scheduler,
        universe: SwitchUniverse,
        w: float,
        *,
        session_id: str | None = None,
    ) -> str:
        """Open a session; returns its id (generated when omitted)."""
        if session_id is None:
            session_id = f"s{next(self._auto_id)}"
            while session_id in self._sessions or session_id in self._runs:
                session_id = f"s{next(self._auto_id)}"
        if session_id in self._sessions or session_id in self._runs:
            raise ValueError(f"session id {session_id!r} already in use")
        self._sessions[session_id] = StreamSession(scheduler, universe, w)
        self.metrics.record_stream_open()
        if self.tracer is not None:
            self.tracer.record("open", session=session_id)
        return session_id

    def session(self, session_id: str) -> StreamSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError(f"unknown session id {session_id!r}") from None

    def session_ids(self) -> tuple[str, ...]:
        return tuple(self._sessions)

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    # -- serving -----------------------------------------------------------

    def feed(self, session_id: str, mask: int) -> StreamEvent:
        """Serve one requirement on one session."""
        session = self.session(session_id)
        start = time.perf_counter()
        event = session.feed(mask)
        elapsed = time.perf_counter() - start
        self._live_steps += 1
        self._live_hypers += 1 if event.hyper else 0
        self.metrics.record_stream(
            steps=1,
            hypers=1 if event.hyper else 0,
            seconds=elapsed,
            chunk_steps=(1,),
        )
        if self.tracer is not None:
            self.tracer.record(
                "feed", duration=elapsed, session=session_id, steps=1
            )
        return event

    def feed_many(self, chunks: Mapping[str, object]) -> FeedRows:
        """Serve one chunk per session; returns the call's :class:`FeedRows`.

        ``chunks`` maps session ids to whatever
        :meth:`StreamSession.feed_many` accepts (mask iterables or
        lane-packed arrays).  Every chunk is converted and validated
        first: a bad one fails the call, naming its session, before
        any session moves.  The hub groups the non-empty chunks of
        batched sessions by cursor kind, lane width and history —
        chunk lengths may be ragged — and advances each group through
        the policy's ``sweep_many`` (bit-identical decisions to the
        scalar oracle).  A group is booked as arrays by the function
        that books a lone :class:`StreamSession` chunk — steps, hypers
        and one seeded cost cumsum straight off the sweep — and the
        returned rows build a session's
        :class:`StreamBatch` only when it is read.  The call's wall
        time, aggregate step/hyper counts, fused/fallback session
        counts and replay-epoch/trigger totals land in the hub metrics.
        """
        ids = tuple(chunks)
        sessions = [self.session(sid) for sid in ids]
        start_time = time.perf_counter()
        stacks, plain = self._validate(ids, sessions, chunks)
        n = len(ids)
        start, steps, hypers, cost, cumulative = (
            np.empty(n, dtype) for _name, dtype in _ROW_FIELDS
        )
        source_of = np.empty(n, dtype=np.intp)
        member_of = np.zeros(n, dtype=np.intp)
        sources: list[tuple[np.ndarray, np.ndarray]] = []
        for row, prepared in plain:
            batch = sessions[row]._serve(prepared)
            start[row], steps[row], hypers[row] = (
                batch.start, batch.steps, batch.hypers,
            )
            cost[row], cumulative[row] = batch.cost, batch.cumulative_cost
            source_of[row] = len(sources)
            sources.append((batch.hyper_flags[None], batch.sizes[None]))
        epochs = triggers = 0
        for rows, group, block, lengths in stacks:
            rows = np.array(rows, dtype=np.intp)
            sweep, start[rows], before, cumulative[rows] = _sweep_group(
                group, block, lengths
            )
            epochs += sweep.epochs
            triggers += sweep.triggers
            cost[rows] = cumulative[rows] - before
            steps[rows] = lengths
            hypers[rows] = sweep.installed_counts
            source_of[rows] = len(sources)
            member_of[rows] = np.arange(len(group))
            sources.append((sweep.hyper, sweep.sizes))
        out = FeedRows(
            ids, start, steps, hypers, cost, cumulative,
            per_step=(sources, source_of, member_of),
        )
        total_steps = int(steps.sum())
        total_hypers = int(hypers.sum())
        elapsed = time.perf_counter() - start_time
        self._live_steps += total_steps
        self._live_hypers += total_hypers
        fallback = len(plain)
        fused = n - fallback
        group_sizes = tuple(len(stack[1]) for stack in stacks)
        self._last_fused = (fused, fallback, group_sizes, epochs, triggers)
        self.metrics.record_stream(
            steps=total_steps,
            hypers=total_hypers,
            seconds=elapsed,
            chunk_steps=steps,
        )
        if fused or fallback:
            self.metrics.record_fused(
                sessions=fused,
                fallback=fallback,
                group_sizes=group_sizes,
                epochs=epochs,
                triggers=triggers,
            )
        if self.tracer is not None:
            self.tracer.record(
                "feed",
                duration=elapsed,
                steps=total_steps,
                sessions=n,
            )
        return out

    def _validate(
        self,
        ids: tuple[str, ...],
        sessions: list[StreamSession],
        chunks: Mapping[str, object],
    ) -> tuple[list[tuple], list[tuple[int, object]]]:
        """First pass of :meth:`feed_many`: convert and check every
        chunk, moving no session.

        Chunks of batched-cursor sessions are converted to lanes — a
        lane-packed ``uint64`` array as it stands, to be range-checked
        on its group's stacked block; mask iterables and
        :class:`~repro.core.context.RequirementSequence` chunks
        through :meth:`StreamSession._prepare` — and the non-empty ones
        are grouped by ``(cursor kind, lane width, history)``: ragged
        chunk lengths fuse into one zero-padded stack, history equality
        pins ``memory``/``k``, while ``w``/``alpha`` may vary inside a
        group (the sweep gathers them as vectors).  Chunks of scalar
        cursors and empty chunks are prepared for the per-session
        path.  Returns the stacks ``(rows, sessions, block, lengths)``
        and the plain ``(row, prepared chunk)`` pairs; rows index
        ``ids``.
        """
        groups: dict[tuple, tuple[list, list, list, list]] = {}
        plain: list[tuple[int, object]] = []
        for row, (session, chunk) in enumerate(
            zip(sessions, chunks.values())
        ):
            key = session._fuse_key
            # No ascontiguousarray for ready lanes: the stacked group
            # block copies the rows into owned storage anyway.
            if not (
                key is not None
                and not session._finished
                and isinstance(chunk, np.ndarray)
                and chunk.dtype == _U64
                and chunk.ndim == 2
                and chunk.shape[1] == key[1]
            ):
                try:
                    chunk = session._prepare(chunk)
                except ValueError as exc:
                    raise ValueError(f"session {ids[row]!r}: {exc}") from exc
                except RuntimeError as exc:
                    raise RuntimeError(
                        f"session {ids[row]!r}: {exc}"
                    ) from exc
            if key is None or not len(chunk):
                plain.append((row, chunk))
                continue
            members = groups.get(key)
            if members is None:
                members = groups[key] = ([], [], [], [])
            members[0].append(row)
            members[1].append(session)
            members[2].append(chunk)
            members[3].append(len(chunk))
        stacks = [
            (
                rows, group,
                *_stack_group(ids, rows, group, lanes, counts, key[1]),
            )
            for key, (rows, group, lanes, counts) in groups.items()
        ]
        return stacks, plain

    @property
    def last_fused(self) -> tuple[int, int, tuple[int, ...], int, int]:
        """(fused, fallback, group sizes, replay epochs, triggers) of
        the latest :meth:`feed_many`."""
        return self._last_fused

    # -- aggregate accounting ----------------------------------------------

    @property
    def total_steps(self) -> int:
        """Steps served by live and retained finished sessions.

        O(1): running counters updated on feed and close, not a
        re-sum over sessions per stats scrape."""
        return self._live_steps + self._closed_steps

    @property
    def total_hypers(self) -> int:
        return self._live_hypers + self._closed_hypers

    @property
    def total_cost(self) -> float:
        return sum(s.cost for s in self._sessions.values()) + sum(
            run.cost for run in self._runs.values()
        )

    @property
    def hyper_rate(self) -> float:
        """Fleet-wide hyperreconfigurations per served step."""
        steps = self.total_steps
        return self.total_hypers / steps if steps else 0.0

    # -- closing -----------------------------------------------------------

    def finish(self, session_id: str) -> CloseResult:
        """Close one session into its :class:`CloseResult`.

        With ``retain_runs`` (default) the record is kept in
        :meth:`runs` and the id stays reserved; otherwise the record
        goes only to the caller and the id is immediately reusable.
        """
        close = replace(self.session(session_id).finish(), session=session_id)
        self.metrics.record_session_close(
            solver=close.solver, cost=close.cost, steps=close.steps
        )
        if self.tracer is not None:
            self.tracer.record("close", session=session_id, steps=close.steps)
        self._live_steps -= close.steps
        self._live_hypers -= close.hypers
        if self.retain_runs:
            self._runs[session_id] = close
            self._closed_steps += close.steps
            self._closed_hypers += close.hypers
        del self._sessions[session_id]
        return close

    def finish_all(self) -> dict[str, CloseResult]:
        """Close every live session; returns id → close record."""
        return {sid: self.finish(sid) for sid in tuple(self._sessions)}

    def runs(self) -> dict[str, CloseResult]:
        """Close records of the sessions finished so far."""
        return dict(self._runs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamHub(live={len(self._sessions)}, "
            f"finished={len(self._runs)}, steps={self.total_steps})"
        )
