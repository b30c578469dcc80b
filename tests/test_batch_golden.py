"""Pinned solver trajectories on ``batch_mixed``-shaped instances.

``tests/data/batch_solver_golden.json`` records, for twelve m=3
instances of 3 x 6 switches over 16 steps solved with the parameters
the ``batch_mixed`` workload uses, what ``mt_annealing``,
``mt_genetic`` and ``mt_greedy`` returned: the cost as ``float.hex``,
the indicator rows and every ``stats`` counter.  The solvers are
deterministic for a fixed seed and every evaluator reproduces the
reference arithmetic operation by operation, so a faster kernel must
reproduce these records exactly, not approximately.

Regenerate the file (only when a trajectory is meant to change) with::

    PYTHONPATH=src python tests/test_batch_golden.py > tests/data/batch_solver_golden.json
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.analysis.sweeps import make_instance
from repro.solvers.mt_annealing import AnnealParams, solve_mt_annealing
from repro.solvers.mt_genetic import GAParams, solve_mt_genetic
from repro.solvers.mt_greedy import solve_mt_greedy_merge

GOLDEN = pathlib.Path(__file__).parent / "data" / "batch_solver_golden.json"

#: The multi-task shape and solver parameters of the ``batch_mixed``
#: workload (``perfbench/batch_mixed.py``).
TASKS, SWITCHES_PER_TASK, STEPS = 3, 6, 16
INSTANCES = 12
ANNEAL = dict(iterations=2000)
GENETIC = dict(population_size=32, generations=60, stall_generations=60)


def _instances():
    """``(instance seed, solver seed)`` pairs, drawn the way the
    workload draws them."""
    rng = np.random.default_rng([1, 0xBA7C])
    return [
        (int(rng.integers(2**31)), int(rng.integers(2**31)))
        for _ in range(INSTANCES)
    ]


def _cases():
    cases = []
    for k, (inst, seed) in enumerate(_instances()):
        cases.append((f"{k}:mt_annealing", inst, seed, "mt_annealing", {}))
        cases.append((f"{k}:mt_genetic", inst, seed, "mt_genetic", {}))
        cases.append((f"{k}:mt_greedy", inst, seed, "mt_greedy", {}))
    inst, seed = _instances()[0]
    cases.append(
        ("0:mt_annealing:restarts=2", inst, seed, "mt_annealing",
         {"restarts": 2})
    )
    return cases


def _solve(inst, seed, solver, extra, **anneal):
    system, seqs = make_instance(TASKS, STEPS, SWITCHES_PER_TASK, seed=inst)
    if solver == "mt_annealing":
        params = AnnealParams(**ANNEAL, **extra, **anneal)
        return solve_mt_annealing(system, seqs, None, params, seed=seed)
    if solver == "mt_genetic":
        return solve_mt_genetic(
            system, seqs, None, GAParams(**GENETIC), seed=seed
        )
    return solve_mt_greedy_merge(system, seqs)


def _plain(value):
    """JSON form of a stats value: floats as ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_plain(x) for x in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in sorted(value.items())}
    return value


def _rows(schedule) -> list[str]:
    return ["".join("1" if x else "0" for x in row)
            for row in schedule.indicators]


def record(inst, seed, solver, extra) -> dict:
    result = _solve(inst, seed, solver, extra)
    return {
        "cost": result.cost.hex(),
        "rows": _rows(result.schedule),
        "stats": _plain(result.stats),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_the_file_covers_every_case(golden):
    assert sorted(golden) == sorted(name for name, *_ in _cases())


@pytest.mark.parametrize(
    "name, inst, seed, solver, extra", _cases(), ids=[c[0] for c in _cases()]
)
def test_trajectory_matches_the_pinned_record(golden, name, inst, seed,
                                              solver, extra):
    assert record(inst, seed, solver, extra) == golden[name]


@pytest.mark.parametrize("k", [0, 5, 11])
def test_full_evaluation_takes_the_same_trajectory(golden, k):
    """``use_delta=False`` re-evaluates every move with the reference
    cost function and must land on the pinned cost and schedule."""
    inst, seed = _instances()[k]
    result = _solve(inst, seed, "mt_annealing", {}, use_delta=False)
    want = golden[f"{k}:mt_annealing"]
    assert result.cost.hex() == want["cost"]
    assert _rows(result.schedule) == want["rows"]
    for key in ("accepted", "noop_proposals", "restart_costs"):
        assert _plain(result.stats[key]) == want["stats"][key]


if __name__ == "__main__":
    print(json.dumps(
        {name: record(inst, seed, solver, extra)
         for name, inst, seed, solver, extra in _cases()},
        indent=1, sort_keys=True,
    ))
