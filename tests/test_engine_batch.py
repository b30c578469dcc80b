"""Tests for the batch executor (repro.engine.batch)."""

import time

import pytest

from repro.analysis.sweeps import make_instance
from repro.analysis.workloads import periodic_workload, phased_workload
from repro.core.context import RequirementSequence
from repro.core.switches import SwitchUniverse
from repro.engine.batch import BatchEngine
from repro.engine.registry import SolverRegistry, SolverSpec
from repro.engine.requests import SolveRequest
from repro.solvers.single_dp import solve_single_switch

U = SwitchUniverse.of_size(8)


def _single_requests(count, *, n=12, seed0=0):
    out = []
    for s in range(count):
        seq = periodic_workload(U, n, period=4, seed=s + seed0)
        out.append(SolveRequest.single(seq, 8.0))
    return out


def _slow_single(seq, w, **_params):
    time.sleep(0.5)
    return solve_single_switch(seq, w)


def _failing_single(_seq, _w, **_params):
    raise RuntimeError("deliberate failure")


def _plain_single(seq, w, **_params):
    return solve_single_switch(seq, w)


class TestBatchEngineBasics:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BatchEngine(workers=0)
        with pytest.raises(ValueError):
            BatchEngine(timeout=0)

    def test_results_align_with_input_order(self):
        requests = _single_requests(5)
        engine = BatchEngine()
        results = engine.solve_batch(requests)
        assert [r.request for r in results] == requests
        for req, res in zip(requests, results):
            assert res.ok
            assert res.value.cost == solve_single_switch(req.seq, req.w).cost

    def test_unknown_solver_is_error_not_crash(self):
        seq = RequirementSequence(U, [1, 2])
        res = BatchEngine().solve(SolveRequest.single(seq, 8.0, solver="nope"))
        assert not res.ok
        assert "unknown solver" in res.error

    def test_solver_exception_captured(self):
        reg = SolverRegistry()
        reg.register(SolverSpec(
            name="fail", kind="single", fn=_failing_single, exact=False,
        ))
        engine = BatchEngine(reg)
        res = engine.solve(
            SolveRequest.single(RequirementSequence(U, [1]), 8.0, solver="fail")
        )
        assert not res.ok
        assert "deliberate failure" in res.error
        assert engine.metrics.errors == 1

    def test_duplicate_failure_replicated_without_resolve(self):
        reg = SolverRegistry()
        reg.register(SolverSpec(
            name="fail", kind="single", fn=_failing_single, exact=False,
        ))
        engine = BatchEngine(reg)
        req = SolveRequest.single(RequirementSequence(U, [1]), 8.0, solver="fail")
        results = engine.solve_batch([req, req, req])
        assert all(not r.ok for r in results)
        # Solved only once (dedup), but every failed request counts as
        # an error so that requests = solved + cache_hits + errors.
        assert engine.metrics.errors == 3
        assert engine.metrics.solved == 0
        assert engine.metrics.latency.count == 0
        # Replicated failures are not cache hits — the metrics must not
        # report a hit rate when nothing was ever served from the cache.
        assert all(not r.cached for r in results)
        assert engine.metrics.cache_hits == 0
        assert engine.cache.stats.hits == 0


class TestDedupAndCache:
    def test_duplicates_hit_cache_within_one_batch(self):
        requests = _single_requests(3) * 4  # 12 requests, 3 unique
        engine = BatchEngine()
        results = engine.solve_batch(requests)
        assert all(r.ok for r in results)
        assert sum(not r.cached for r in results) == 3
        assert sum(r.cached for r in results) == 9
        stats = engine.cache.stats
        assert stats.hits == 9 and stats.misses == 3
        assert engine.metrics.cache_hit_rate == pytest.approx(0.75)

    def test_cache_shared_across_batches(self):
        requests = _single_requests(3)
        engine = BatchEngine()
        engine.solve_batch(requests)
        again = engine.solve_batch(requests)
        assert all(r.cached for r in again)

    def test_cache_off_engine_still_dedups_within_batch(self):
        requests = _single_requests(2) * 2
        engine = BatchEngine(cache_size=0)
        results = engine.solve_batch(requests)
        assert all(r.ok for r in results)
        assert sum(not r.cached for r in results) == 2
        # ... but nothing survives to the next batch
        assert all(not r.cached for r in engine.solve_batch(requests[:2]))

    def test_cached_equal_to_fresh_across_solvers(self):
        system, seqs = make_instance(2, 8, 4, seed=3)
        engine = BatchEngine()
        for solver in ("mt_greedy", "mt_exact", "mt_branch_bound"):
            request = SolveRequest.multi(system, seqs, solver=solver)
            fresh = engine.solve(request)
            hit = engine.solve(request)
            assert fresh.ok and hit.ok and hit.cached
            assert hit.value.cost == fresh.value.cost
            assert hit.value.schedule == fresh.value.schedule


class TestTimeouts:
    def test_timeout_returns_error_result(self):
        reg = SolverRegistry()
        reg.register(SolverSpec(
            name="slow", kind="single", fn=_slow_single, exact=False,
        ))
        engine = BatchEngine(reg, timeout=0.05)
        res = engine.solve(
            SolveRequest.single(RequirementSequence(U, [1]), 8.0, solver="slow")
        )
        assert not res.ok
        assert res.stats.get("timeout")
        assert engine.metrics.timeouts == 1


class TestTimerRestoration:
    def test_callers_pending_alarm_survives_inline_timeout(self):
        """The inline timeout path must re-arm a pre-existing
        ITIMER_REAL watchdog instead of silently cancelling it."""
        import signal

        reg = SolverRegistry()
        reg.register(SolverSpec(
            name="dp", kind="single", fn=_plain_single, exact=True,
        ))
        engine = BatchEngine(reg, timeout=1.0)
        previous = signal.signal(signal.SIGALRM, lambda *_: None)
        signal.setitimer(signal.ITIMER_REAL, 30.0)
        try:
            res = engine.solve(SolveRequest.single(
                RequirementSequence(U, [1, 2, 3]), 8.0, solver="dp"
            ))
            assert res.ok
            remaining = signal.getitimer(signal.ITIMER_REAL)[0]
            assert 0.0 < remaining <= 30.0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


class TestSparseRegistryPortfolio:
    def test_portfolio_with_only_greedy(self):
        """A custom registry holding only a heuristic still serves the
        default solver: the cold prior's absent solvers are skipped."""
        from repro.engine.registry import _mt_greedy, default_registry

        reg = SolverRegistry()
        reg.register(SolverSpec(
            name="mt_greedy", kind="multi", fn=_mt_greedy, exact=False,
        ))
        reg.register(default_registry().get("portfolio"))
        system, seqs = make_instance(2, 6, 4, seed=0)  # tiny instance
        res = BatchEngine(reg).solve(SolveRequest.multi(system, seqs))
        assert res.ok
        assert res.value.solver == "portfolio[mt_greedy]"

    def test_portfolio_with_empty_pool_errors_cleanly(self):
        from repro.engine.registry import default_registry

        reg = SolverRegistry()
        reg.register(default_registry().get("portfolio"))
        system, seqs = make_instance(2, 6, 4, seed=0)
        res = BatchEngine(reg).solve(SolveRequest.multi(system, seqs))
        assert not res.ok
        assert "no candidate solvers" in res.error


class TestParallelWorkers:
    def test_parallel_matches_serial(self):
        requests = [
            SolveRequest.multi(*make_instance(2, 16, 4, seed=s),
                               solver="mt_greedy")
            for s in range(6)
        ]
        serial = BatchEngine(workers=1).solve_batch(requests)
        parallel = BatchEngine(workers=2).solve_batch(requests)
        for a, b in zip(serial, parallel):
            assert a.ok and b.ok
            assert a.value.cost == b.value.cost
            assert a.value.schedule == b.value.schedule

    def test_custom_registry_survives_worker_pickling(self):
        """A non-default registry must travel to worker processes
        (its internal lock is dropped and rebuilt on unpickle)."""
        reg = SolverRegistry()
        reg.register(SolverSpec(
            name="dp2", kind="single", fn=_plain_single, exact=True,
        ))
        requests = [
            SolveRequest.single(
                periodic_workload(U, 10, period=4, seed=s), 8.0, solver="dp2"
            )
            for s in range(4)
        ]
        results = BatchEngine(reg, workers=2).solve_batch(requests)
        assert all(r.ok for r in results)
        for req, res in zip(requests, results):
            assert res.value.cost == solve_single_switch(req.seq, req.w).cost

    def test_worker_error_captured(self):
        good = _single_requests(2)
        bad = SolveRequest.single(
            RequirementSequence(U, [1, 2, 3]), 8.0, solver="nope"
        )
        results = BatchEngine(workers=2).solve_batch(good + [bad])
        assert results[0].ok and results[1].ok
        assert not results[2].ok


class TestAcceptanceWorkload:
    def test_200_request_mixed_workload_two_workers(self):
        """ISSUE acceptance: 200 mixed requests through the registry
        with ≥2 workers, nonzero cache hit rate on duplicates."""
        unique = []
        for s in range(20):
            seq = phased_workload(U, 24, phases=3, seed=s)
            unique.append(SolveRequest.single(seq, 8.0))
        for s in range(20):
            unique.append(
                SolveRequest.multi(*make_instance(2, 12, 4, seed=s),
                                   solver="mt_greedy")
            )
        requests = (unique * 5)[:200]
        engine = BatchEngine(workers=2)
        results = engine.solve_batch(requests)
        assert len(results) == 200
        assert all(r.ok for r in results)
        assert engine.cache.stats.hit_rate > 0.5
        assert engine.metrics.requests == 200
        assert engine.metrics.solved == 40
        assert engine.metrics.throughput > 0
