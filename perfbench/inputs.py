"""Seeded, vectorized input generators for the benchmark workloads.

Every input is a pure function of the workload seed, built before any
clock starts.  :func:`fleet_lanes` produces the same kind of stream
as ``repro.serve.loadgen.drifting_masks`` (a ~12-switch working set
that drifts every ``phase`` steps, a 70% subset of it each step, rare
noise bits), but draws a whole fleet at once with NumPy and emits
packed ``(n, L)`` uint64 lanes instead of building Python ints one
step at a time (about 1 s for a fleet instead of ~7 us per step).
:func:`digest` fingerprints the generated inputs so two runs (or two
commits) can be shown to have measured identical traffic.
"""

from __future__ import annotations

import hashlib

import numpy as np

WORKING_SET = 12
KEEP_PROB = 0.7


def _working_sets(
    rng: np.random.Generator, sessions: int, width: int, phases: int
) -> np.ndarray:
    """``(sessions, phases, WORKING_SET)`` switch indices: each phase
    drops 3-6 random members of the previous set and refills it with
    distinct switches from outside it (all sessions drawn at once)."""
    rows = np.arange(sessions)[:, None]
    sets = np.empty((sessions, phases, WORKING_SET), dtype=np.int64)
    sets[:, 0] = np.argsort(rng.random((sessions, width)), axis=1)[
        :, :WORKING_SET
    ]
    cols = np.arange(WORKING_SET)[None, :]
    for k in range(1, phases):
        prev = sets[:, k - 1]
        shuffled = np.take_along_axis(
            prev, np.argsort(rng.random(prev.shape), axis=1), axis=1
        )
        kept = WORKING_SET - rng.integers(3, 7, size=(sessions, 1))
        scores = rng.random((sessions, width))
        scores[rows, prev] = 2.0  # never re-draw a current member
        fresh = np.argsort(scores, axis=1)[:, :WORKING_SET]
        refill = np.take_along_axis(
            fresh, np.clip(cols - kept, 0, None), axis=1
        )
        sets[:, k] = np.where(cols < kept, shuffled, refill)
    return sets


def _pack(switches, kept, noise_bits, noisy, width: int) -> np.ndarray:
    """Lane-pack one session's per-step working sets + noise bits."""
    lanes = np.zeros((switches.shape[0], -(-width // 64)), dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), (switches % 64).astype(np.uint64))
    lane_of = switches // 64
    for lane in range(lanes.shape[1]):
        # Working-set members are distinct, so a sum is an OR.
        lanes[:, lane] = np.where(
            kept & (lane_of == lane), bits, np.uint64(0)
        ).sum(axis=1, dtype=np.uint64)
        hit = noisy & (noise_bits // 64 == lane)
        lanes[hit, lane] |= np.left_shift(
            np.uint64(1), (noise_bits[hit] % 64).astype(np.uint64)
        )
    return lanes


def fleet_lanes(
    seed: int,
    sessions: int,
    width: int,
    n: int,
    *,
    phase: int,
    noise: float,
    stagger: int = 0,
) -> list[np.ndarray]:
    """``sessions`` phased requirement streams of ``n`` steps each, as
    ``(n, L)`` uint64 lanes.

    Session ``s`` changes working set at every step ``i > 0`` with
    ``i % phase == (s * stagger) % phase``, so with a ``stagger`` the
    fleet is not phase-locked.  Each step requires a random
    ``KEEP_PROB`` subset of the working set plus, with probability
    ``noise``, one random switch.
    """
    rng = np.random.default_rng([seed, sessions, width, n, phase])
    sets = _working_sets(rng, sessions, width, n // phase + 2)
    steps = np.arange(n)
    out = []
    for s in range(sessions):
        first = (s * stagger) % phase
        which = np.where(steps >= first, (steps - first) // phase + 1, 0)
        out.append(_pack(
            sets[s, which],
            rng.random((n, WORKING_SET)) < KEEP_PROB,
            rng.integers(0, width, size=n),
            rng.random(n) < noise,
            width,
        ))
    return out


def single_context_cost(lanes: np.ndarray, w: float) -> float:
    """Cost of serving ``lanes`` from one hypercontext installed at
    the start (the union of every requirement): ``w + |union| * n``.
    The ``mean_cost`` metrics divide by it, so they compare schedules
    to a per-input reference instead of to the input's raw size."""
    union = np.bitwise_or.reduce(lanes, axis=0)
    return w + sum(int(x).bit_count() for x in union) * lanes.shape[0]


def digest(*parts) -> str:
    """Short SHA-256 over arrays, strings and numbers (input identity)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]
