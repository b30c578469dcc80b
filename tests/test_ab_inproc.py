"""The in-process A/B tool, ``scripts/ab_inproc.py``, on a tiny fleet
with both sides loaded from this tree (no worktree, no timing bound)."""

import importlib.util
import math
import pathlib
import sys

import pytest

import repro.engine.stream

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SCRIPT = _ROOT / "scripts" / "ab_inproc.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_inproc", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_tree_twice_agrees_and_reads_a_finite_ratio(ab):
    src = _ROOT / "src"
    summary = ab.run_ab(
        {"tree": src, "ref": src}, sessions=8, rounds=2, passes=2
    )
    assert summary["passes"] == 2 and len(summary["ratios"]) == 2
    assert all(math.isfinite(r) and r > 0 for r in summary["ratios"])
    assert math.isfinite(summary["median_ratio"])
    assert summary["metric"] == "steps_per_s ratio (tree / ref)"
    # The caller's own package is back in place afterwards.
    assert sys.modules["repro.engine.stream"] is repro.engine.stream


def test_each_side_runs_its_own_modules(ab):
    src = _ROOT / "src"
    with ab.sides({"a": src, "b": src}) as (a, b):
        stream_a = a.module("repro.engine.stream")
        stream_b = b.module("repro.engine.stream")
        assert stream_a is not stream_b
        assert stream_a is not repro.engine.stream
        b.activate()
        assert sys.modules["repro.engine.stream"] is stream_b
        a.activate()
        assert sys.modules["repro.engine.stream"] is stream_a
    assert sys.modules["repro.engine.stream"] is repro.engine.stream


def test_an_accounting_mismatch_fails_the_pass(ab, monkeypatch):
    """Every pass compares the two hubs' per-session accounting."""
    real = ab._accounting
    calls = []

    def skewed(hub, ids):
        rows = real(hub, ids)
        calls.append(1)
        if len(calls) == 2:  # the reference side of the first pass
            rows[0] = (rows[0][0] + 1.0, *rows[0][1:])
        return rows

    monkeypatch.setattr(ab, "_accounting", skewed)
    src = _ROOT / "src"
    with pytest.raises(AssertionError, match="session 'u0'"):
        ab.run_ab({"tree": src, "ref": src}, sessions=4, rounds=1, passes=1)


def test_the_fleet_is_the_hub_hectic_workload_itself(ab):
    """The fleet's shape, inputs and schedulers come from
    ``perfbench/hub_hectic.py``, whose sibling modules are not left
    behind in ``sys.modules``."""
    bench = _ROOT / "perfbench"
    assert pathlib.Path(ab.hub_hectic.__file__) == bench / "hub_hectic.py"
    assert pathlib.Path(ab.inputs.__file__) == bench / "inputs.py"
    assert ab.hub_hectic.inputs is ab.inputs
    defaults = ab.run_ab.__kwdefaults__
    assert defaults["sessions"] == ab.hub_hectic.SESSIONS
    assert defaults["rounds"] == ab.hub_hectic.ROUNDS
    for name in ("hub_hectic", "inputs", "common", "layers", "spans"):
        module = sys.modules.get(name)
        assert module is None or not str(
            getattr(module, "__file__", "")
        ).startswith(str(bench))


def test_batch_waves_agree_on_the_same_tree(ab):
    src = _ROOT / "src"
    summary = ab.run_ab_batch(
        {"tree": src, "ref": src}, waves=2, passes=1
    )
    assert summary["workload"] == "batch_mixed"
    assert summary["metric"] == "solves_per_s ratio (tree / ref)"
    assert summary["passes"] == 1
    assert all(math.isfinite(r) and r > 0 for r in summary["ratios"])
    assert sys.modules["repro.engine.stream"] is repro.engine.stream
    # The waves are the batch_mixed workload's own.
    bench = _ROOT / "perfbench"
    assert pathlib.Path(ab.batch_mixed.__file__) == bench / "batch_mixed.py"
    assert ab.run_ab_batch.__kwdefaults__["waves"] == ab.batch_mixed.WAVES


def test_a_differing_batch_answer_fails_the_pass(ab, monkeypatch):
    """Every pass compares both sides' costs, schedules and cached flags."""
    real = ab._answers
    calls = []

    def skewed(results):
        rows = real(results)
        calls.append(1)
        if len(calls) == 2:  # the second side's first wave
            ok, cached, *rest = rows[0]
            rows[0] = (ok, not cached, *rest)
        return rows

    monkeypatch.setattr(ab, "_answers", skewed)
    src = _ROOT / "src"
    with pytest.raises(AssertionError, match="wave 0 request 0"):
        ab.run_ab_batch({"tree": src, "ref": src}, waves=1, passes=1)


def test_small_stacks_agree_on_the_same_tree(ab):
    """Every small-stack cell — hubs at both workloads' drift and a
    bare session — runs on both sides and reads a finite ratio; the
    drift constants are the perfbench workloads' own."""
    src = _ROOT / "src"
    summary = ab.run_ab_small_stacks(
        {"tree": src, "ref": src}, sizes=(1, 2), chunks=(16,), steps=64,
        passes=1,
    )
    assert list(summary["cells"]) == [
        "serve_calm S=1", "serve_calm S=2", "hub_hectic S=1",
        "hub_hectic S=2", "session C=16",
    ]
    for cell in summary["cells"].values():
        assert cell["passes"] == 1
        assert all(math.isfinite(r) and r > 0 for r in cell["ratios"])
    assert "session C=16" in ab.format_cells(summary)
    assert pathlib.Path(ab.serve_calm.__file__) == (
        _ROOT / "perfbench" / "serve_calm.py"
    )
    cells = ab._small_stack_cells((4,), (64,))
    assert [(bench, S, C) for _name, bench, S, C, _bare in cells] == [
        (ab.serve_calm, 4, ab.serve_calm.CHUNK),
        (ab.hub_hectic, 4, ab.hub_hectic.CHUNK),
        (ab.serve_calm, 1, 64),
    ]
    assert sys.modules["repro.engine.stream"] is repro.engine.stream
