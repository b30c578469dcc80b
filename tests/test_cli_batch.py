"""Tests for the engine-backed CLI subcommands (repro batch / solvers)."""

import json

import pytest

from repro.cli import main


class TestBatchCommand:
    def test_table_output_and_metrics(self, capsys):
        assert main(["batch", "parity", "gray", "--repeat", "3"]) == 0
        out = capsys.readouterr().out
        assert "12 requests" in out and "4 unique" in out
        # each unique request is duplicated twice by --repeat 3
        assert "cache hits" in out
        assert any(line.rstrip().endswith("2") for line in out.splitlines())
        assert "engine metrics" in out
        assert "cache hit rate" in out
        # duplicates of the repeated workload must hit the cache
        assert "66.7%" in out

    def test_json_output(self, capsys):
        assert main(["batch", "parity", "--repeat", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["requests"] == 4
        assert payload["cache_hits"] == 2
        assert len(payload["results"]) == 4
        assert all(r["ok"] for r in payload["results"])
        kinds = {(r["app"], r["kind"]) for r in payload["results"]}
        assert kinds == {("parity", "single"), ("parity", "multi")}

    def test_unknown_app_rejected(self, capsys):
        assert main(["batch", "nonexistent"]) == 2
        assert "unknown app" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["batch", "parity", "--repeat", "0"],
            ["batch", "parity", "--workers", "0"],
            ["batch", "parity", "--timeout", "0"],
            ["batch", "parity", "--cache-size", "-1"],
        ],
    )
    def test_bad_parameters_exit_2_without_traceback(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.strip()  # a message, not a traceback
        assert "Traceback" not in err

    def test_failed_request_exits_1(self, capsys):
        assert main(["batch", "parity", "--solver", "nonexistent",
                     "--repeat", "1"]) == 1
        assert "unknown solver" in capsys.readouterr().out

    def test_parallel_workers(self, capsys):
        assert main(["batch", "parity", "gray", "--workers", "2",
                     "--repeat", "2"]) == 0
        assert "2 worker(s)" in capsys.readouterr().out


class TestSolversCommand:
    def test_lists_the_zoo(self, capsys):
        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        for name in ("single_dp", "mt_exact", "mt_greedy", "portfolio"):
            assert name in out
        assert "registered solvers" in out


class TestStreamCommand:
    def test_table_output_and_metrics(self, capsys):
        assert main(["stream", "parity", "--sessions", "2",
                     "--chunk", "16"]) == 0
        out = capsys.readouterr().out
        assert "stream: 2 session(s)" in out
        assert "parity/0" in out and "parity/1" in out
        assert "stream steps" in out and "stream throughput" in out

    def test_json_output(self, capsys):
        assert main(["stream", "parity", "--sessions", "1", "--repeat", "2",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stream"]["sessions"] == 1
        assert len(payload["sessions"]) == 1
        row = payload["sessions"][0]
        assert row["app"] == "parity"
        assert row["steps"] == payload["stream"]["steps"]
        assert row["cost"] > 0

    def test_scalar_baseline_matches_packed(self, capsys):
        """--scalar forces the scalar cursor path; the accounting must
        be identical (same policy, same trace)."""
        assert main(["stream", "parity", "--sessions", "1", "--json"]) == 0
        packed = json.loads(capsys.readouterr().out)
        assert main(["stream", "parity", "--sessions", "1", "--scalar",
                     "--json"]) == 0
        scalar = json.loads(capsys.readouterr().out)
        assert packed["sessions"][0]["cost"] == scalar["sessions"][0]["cost"]
        assert packed["sessions"][0]["hypers"] == scalar["sessions"][0]["hypers"]

    def test_window_policy_and_unknown_app(self, capsys):
        assert main(["stream", "parity", "--policy", "window", "-k", "4",
                     "--sessions", "1"]) == 0
        assert "window(k=4)" in capsys.readouterr().out
        assert main(["stream", "nonexistent"]) == 2
        assert "unknown app" in capsys.readouterr().err

    def test_bad_parameters_exit_2(self, capsys):
        assert main(["stream", "parity", "--sessions", "0"]) == 2
        assert "Traceback" not in capsys.readouterr().err


class TestAnnealFlags:
    def test_restart_stats_table(self, capsys):
        assert main(["batch", "parity", "--solver", "mt_annealing",
                     "--anneal-restarts", "2", "--repeat", "1"]) == 0
        out = capsys.readouterr().out
        assert "annealing restarts" in out

    def test_flags_ignored_for_other_solvers(self, capsys):
        assert main(["batch", "parity", "--solver", "mt_greedy",
                     "--anneal-restarts", "3", "--repeat", "1"]) == 0
        assert "annealing restarts" not in capsys.readouterr().out

    def test_invalid_restarts_exit_2(self, capsys):
        assert main(["batch", "parity", "--solver", "mt_annealing",
                     "--anneal-restarts", "0", "--repeat", "1"]) == 2
        assert "Traceback" not in capsys.readouterr().err
