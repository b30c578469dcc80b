"""Shared fixtures.

Expensive artifacts (the counter trace, solved schedules) are
session-scoped: they are deterministic, so sharing them across test
modules only saves time without coupling tests.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.context import RequirementSequence
from repro.core.switches import SwitchUniverse
from repro.engine.stream import StreamSession
from repro.shyra.apps.counter import build_counter_program, counter_registers
from repro.shyra.tasks import shyra_task_system, shyra_universe
from repro.shyra.trace import run_and_trace


@pytest.fixture(scope="session")
def small_universe() -> SwitchUniverse:
    return SwitchUniverse.of_size(8)


@pytest.fixture(scope="session")
def shyra_uni() -> SwitchUniverse:
    return shyra_universe()


@pytest.fixture(scope="session")
def counter_trace():
    """The paper's trace: counter 0000 → 1010, naive mapping (default
    of the headline experiment)."""
    program = build_counter_program(hold_unused=False)
    return run_and_trace(
        program, initial_registers=counter_registers(0, 10)
    )


@pytest.fixture(scope="session")
def counter_trace_hold():
    """Delta-optimized mapping variant of the counter trace."""
    program = build_counter_program(hold_unused=True)
    return run_and_trace(
        program, initial_registers=counter_registers(0, 10)
    )


@pytest.fixture(scope="session")
def mt_system():
    return shyra_task_system()


@pytest.fixture(scope="session")
def counter_task_seqs(mt_system, counter_trace):
    return mt_system.split_requirements(counter_trace.requirements)


def _check_stream(scheduler, universe, w, masks, close, batches=None):
    """Assert one served stream session against both of its oracles.

    ``close`` is the session's :class:`~repro.engine.stream.CloseResult`
    and ``batches`` the :class:`~repro.engine.stream.StreamBatch` of
    every chunk it was fed, in order (``None`` when the serving layer
    returns only per-chunk summaries).  Against the scalar-cursor
    session fed the same ``masks`` the close record and the per-step
    hyper flags and ``|h|`` must be bit-identical; against
    :func:`~repro.solvers.online.run_online` the hyper steps and
    per-step ``|h|`` must be equal and the cost within 1e-6.
    """
    from repro.solvers.online import ScalarOnly, run_online

    masks = list(masks)
    scalar = StreamSession(ScalarOnly(scheduler), universe, w)
    ref = scalar.feed_many(masks)
    assert replace(close, session=None) == scalar.finish()
    flags, sizes = ref.hyper_flags, ref.sizes
    if batches is not None:
        flags = np.concatenate([b.hyper_flags for b in batches] or [flags])
        sizes = np.concatenate([b.sizes for b in batches] or [sizes])
        assert np.array_equal(flags, ref.hyper_flags)
        assert np.array_equal(sizes, ref.sizes)
    if not masks:
        assert (close.steps, close.hypers, close.cost) == (0, 0, 0.0)
        return
    seq = RequirementSequence(universe, masks)
    offline = run_online(scheduler, seq, w)
    assert tuple(np.flatnonzero(flags).tolist()) == (
        offline.schedule.hyper_steps
    )
    assert sizes.tolist() == [
        h.bit_count() for h in offline.schedule.step_hypercontexts(seq)
    ]
    assert abs(close.cost - offline.cost) <= 1e-6


@pytest.fixture(scope="session")
def stream_oracle():
    """The served-session oracle check (:func:`_check_stream`)."""
    return _check_stream
