"""Shared fixtures.

Expensive artifacts (the counter trace, solved schedules) are
session-scoped: they are deterministic, so sharing them across test
modules only saves time without coupling tests.
"""

from __future__ import annotations

import pytest

from repro.core.switches import SwitchUniverse
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
