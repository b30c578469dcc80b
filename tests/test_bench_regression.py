"""The report of the benchmark regression guard,
``scripts/check_bench_regression.py``."""

import importlib.util
import pathlib

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "scripts" / "check_bench_regression.py"
)


@pytest.fixture(scope="module")
def guard():
    spec = importlib.util.spec_from_file_location("bench_guard", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compare(guard, field, ref, fresh, tolerance=0.30):
    return guard.compare(
        {"t": [{"cell": "a", field: ref}]},
        {"t": [{"cell": "a", field: fresh}]},
        tolerance,
        "BENCH_x.json",
    )


class TestReport:
    def test_a_throughput_fall_reads_as_its_share_of_the_baseline(
        self, guard
    ):
        failures, compared = _compare(
            guard, "steps_per_s", 100_000.0, 52_000.0
        )
        assert compared == 1
        (message,) = failures
        assert "steps_per_s fell 48.0% past tolerance" in message
        assert "baseline 100,000.0 -> fresh 52,000.0" in message

    def test_a_wall_time_rise_reads_as_its_share_of_the_baseline(
        self, guard
    ):
        (message,) = _compare(guard, "wall_ms", 20.0, 30.0)[0]
        assert "wall_ms rose 50.0% past tolerance" in message

    def test_the_pass_fail_rule_is_unchanged(self, guard):
        """Higher-is-better fails once ``ref / fresh > 1 + tol``: with
        tol = 0.30 a 24% fall trips it and a 23% fall does not."""
        assert _compare(guard, "steps_per_s", 100.0, 76.0)[0]
        assert not _compare(guard, "steps_per_s", 100.0, 77.0)[0]
        assert _compare(guard, "wall_ms", 100.0, 131.0)[0]
        assert not _compare(guard, "wall_ms", 100.0, 129.0)[0]
