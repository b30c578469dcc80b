"""Tests for the adaptive algorithm portfolio (repro.portfolio)."""

import json
import math
from pathlib import Path

import pytest

from repro.analysis.sweeps import make_instance
from repro.cli import main
from repro.engine.batch import BatchEngine
from repro.engine.metrics import EngineMetrics
from repro.engine.registry import (
    SolverRegistry,
    SolverSpec,
    TAG_META,
    default_registry,
)
from repro.engine.requests import SolveRequest
from repro.portfolio import (
    BestPredicted,
    DeadlineRace,
    PortfolioModel,
    PortfolioState,
    RunRecord,
    WorkloadFeatures,
    make_strategy,
    multi_features,
    portfolio_candidates,
    rank_candidates,
    reset_default_state,
    set_default_state,
    solve_mt_portfolio,
)
from repro.portfolio.features import FEATURE_PREFIX_STEPS, single_features
from repro.solvers.base import MTSolveResult
from repro.solvers.mt_greedy import solve_mt_greedy_merge


@pytest.fixture(autouse=True)
def _fresh_state():
    """Isolate the process-wide learned state per test."""
    reset_default_state()
    yield
    reset_default_state()


def _instance(m=3, n=10, u=6, seed=0):
    return make_instance(m, n, u, seed=seed)


def _total_runs(state) -> int:
    """Observations learned: the kind-level arms see each one once."""
    return sum(
        arm["runs"] for arm in state.model.snapshot().get("multi", {}).values()
    )


# --- module level so specs pickle by reference into fork workers ---

def _bad_cost_solver(system, seqs, model=None, **params):
    """Returns a valid schedule with a deliberately wrong cost."""
    res = solve_mt_greedy_merge(system, seqs, model)
    return MTSolveResult(
        schedule=res.schedule,
        cost=res.cost + 123.0,
        optimal=False,
        solver="bad_cost",
    )


def _boom_solver(system, seqs, model=None, **params):
    raise RuntimeError("boom")


def _zoo_with(name, fn):
    reg = SolverRegistry()
    for known in ("mt_greedy", "mt_genetic", "mt_annealing"):
        reg.register(default_registry().get(known))
    reg.register(SolverSpec(name=name, kind="multi", fn=fn, exact=False))
    return reg


class TestFeatures:
    def test_deterministic_and_bounded(self):
        system, seqs = _instance()
        f1 = multi_features(system, seqs)
        f2 = multi_features(system, seqs)
        assert f1 == f2
        assert f1.kind == "multi" and f1.m == system.m
        assert 0.0 <= f1.sparsity <= 1.0
        assert f1.max_demand <= f1.universe_size

    def test_prefix_caps_work(self):
        system, seqs = _instance(m=2, n=400, u=6, seed=1)
        full = multi_features(system, seqs, prefix=400)
        capped = multi_features(system, seqs, prefix=16)
        # n (a real instance property) is unaffected by the prefix cap
        assert full.n == capped.n == 400
        assert FEATURE_PREFIX_STEPS == 256  # hot-path bound stays put

    def test_bucket_fallback_chain(self):
        system, seqs = _instance()
        f = multi_features(system, seqs)
        chain = f.fallback_buckets()
        assert chain[0] == f.bucket()
        assert chain[-1] == "multi"
        # each fallback is a strict prefix of the finer one
        for fine, coarse in zip(chain, chain[1:]):
            assert fine.startswith(coarse)

    def test_dict_round_trip(self):
        system, seqs = _instance()
        f = multi_features(system, seqs)
        assert WorkloadFeatures.from_dict(f.to_dict()) == f

    def test_single_features(self):
        _system, seqs = _instance()
        f = single_features(seqs[0])
        assert f.kind == "single" and f.m == 1


class TestLedgerAndModel:
    def _record(self, solver="mt_greedy", ok=True, runtime=0.01, cost=40.0):
        system, seqs = _instance()
        return RunRecord(
            features=multi_features(system, seqs),
            solver=solver,
            runtime=runtime,
            cost=cost,
            ok=ok,
            error=None if ok else "boom",
        )

    def test_json_round_trip(self):
        model = PortfolioModel()
        model.observe(self._record())
        model.observe(self._record(solver="mt_genetic", runtime=0.1, cost=39.0))
        wire = json.loads(json.dumps(model.to_wire()))
        clone = PortfolioModel.from_wire(wire)
        assert clone.to_wire() == model.to_wire()
        assert clone.snapshot() == model.snapshot()
        assert sum(row["runs"] for row in clone.snapshot()["multi"].values()) == 2

    def test_bad_version_rejected(self, tmp_path):
        path = PortfolioState().save(tmp_path / "state.json")
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported state version"):
            PortfolioState.load(path)

    def test_model_predictions_and_fallback(self):
        model = PortfolioModel()
        rec = self._record(runtime=0.02, cost=41.0)
        model.observe(rec)
        f = rec.features
        pred = model.predict_runtime("mt_greedy", f)
        assert pred.support == 1
        assert pred.value == pytest.approx(0.02, rel=0.6)
        assert model.predict_cost("mt_greedy", f).value == pytest.approx(
            41.0, rel=0.5
        )
        # an unseen-but-related workload falls back to a coarser bucket
        system2, seqs2 = _instance(m=3, n=10, u=6, seed=3)
        f2 = multi_features(system2, seqs2)
        assert model.predict_runtime("mt_greedy", f2).support >= 1
        # a wholly unknown solver predicts cold
        cold = model.predict_runtime("mt_exact", f)
        assert cold.support == 0 and math.isinf(cold.value)

    def test_failure_rate(self):
        model = PortfolioModel()
        model.observe(self._record(ok=False))
        model.observe(self._record(ok=True))
        f = self._record().features
        assert model.failure_rate("mt_greedy", f) == pytest.approx(0.5)
        assert model.failure_rate("mt_exact", f) == 0.0


class TestStrategies:
    def _model_with(self, rows):
        model = PortfolioModel()
        system, seqs = _instance()
        f = multi_features(system, seqs)
        for solver, runtime, cost, ok in rows:
            model.observe(RunRecord(
                features=f, solver=solver, runtime=runtime, cost=cost, ok=ok,
                error=None if ok else "x",
            ))
        return model, f

    def test_rank_prefers_fast_among_cost_ties(self):
        model, f = self._model_with([
            ("mt_greedy", 0.005, 40.0, True),
            ("mt_genetic", 0.100, 40.0, True),
        ])
        ranking = rank_candidates(model, f, ("mt_genetic", "mt_greedy"))
        assert ranking[0] == "mt_greedy"

    def test_rank_prefers_cheaper_cost_outside_tolerance(self):
        model, f = self._model_with([
            ("mt_greedy", 0.005, 60.0, True),
            ("mt_genetic", 0.100, 40.0, True),
        ])
        ranking = rank_candidates(model, f, ("mt_genetic", "mt_greedy"))
        assert ranking[0] == "mt_genetic"

    def test_rank_demotes_flaky(self):
        model, f = self._model_with([
            ("mt_greedy", 0.005, 40.0, False),
            ("mt_greedy", 0.005, 40.0, False),
            ("mt_genetic", 0.100, 40.0, True),
        ])
        ranking = rank_candidates(model, f, ("mt_genetic", "mt_greedy"))
        assert ranking[-1] == "mt_greedy"

    def test_race_decision_shape(self):
        model, f = self._model_with([])
        d = DeadlineRace(budget=0.5, top_k=2).decide(
            model, f, ("mt_greedy", "mt_genetic", "mt_annealing")
        )
        assert d.mode == "race" and len(d.chosen) == 2
        assert d.budget == pytest.approx(0.5)

    def test_make_strategy_parsing(self):
        assert isinstance(make_strategy("best"), BestPredicted)
        race = make_strategy("race:2.0,k=3,restarts=2")
        assert (race.budget, race.top_k, race.restarts) == (2.0, 3, 2)
        with pytest.raises(ValueError):
            make_strategy("nonsense")
        for removed in ("egreedy:0.1", "ucb:1.0"):
            with pytest.raises(ValueError, match="unknown strategy"):
                make_strategy(removed)


class TestSolvePortfolio:
    def test_pick_returns_verified_answer(self):
        system, seqs = _instance()
        state = PortfolioState()
        res = solve_mt_portfolio(
            system, seqs, state=state, candidates=("mt_greedy",)
        )
        assert res.solver == "portfolio[mt_greedy]"
        direct = solve_mt_greedy_merge(system, seqs, None)
        assert res.cost == pytest.approx(direct.cost)
        p = res.stats["portfolio"]
        assert p["verified"] and p["chosen"] == "mt_greedy"
        assert _total_runs(state) == 1
        f = multi_features(system, seqs)
        assert state.model.runs("mt_greedy", f) == 1

    def test_decisions_bit_reproducible(self):
        system, seqs = _instance()
        runs = []
        for _ in range(2):
            state = PortfolioState()
            chosen = []
            for seed_instance in (1, 2, 3):
                sys2, seqs2 = _instance(seed=seed_instance)
                res = solve_mt_portfolio(
                    sys2, seqs2, seed=7, strategy="best",
                    state=state,
                    candidates=("mt_greedy", "mt_genetic", "mt_annealing"),
                )
                chosen.append(res.stats["portfolio"]["chosen"])
            runs.append(chosen)
        assert runs[0] == runs[1]

    def test_falls_through_failing_solver(self):
        system, seqs = _instance()
        reg = _zoo_with("aa_boom", _boom_solver)
        state = PortfolioState()
        res = solve_mt_portfolio(
            system, seqs, state=state, registry=reg,
            candidates=("aa_boom", "mt_greedy"),
        )
        assert res.solver == "portfolio[mt_greedy]"
        f = multi_features(system, seqs)
        assert state.model.runs("aa_boom", f) == 1
        assert state.model.failure_rate("aa_boom", f) == 1.0

    def test_oracle_rejects_wrong_cost(self):
        system, seqs = _instance()
        reg = _zoo_with("aa_bad", _bad_cost_solver)
        state = PortfolioState()
        res = solve_mt_portfolio(
            system, seqs, state=state, registry=reg,
            candidates=("aa_bad", "mt_greedy"),
        )
        # the wrong-cost answer is never surfaced
        assert res.solver == "portfolio[mt_greedy]"
        direct = solve_mt_greedy_merge(system, seqs, None)
        assert res.cost == pytest.approx(direct.cost)
        f = multi_features(system, seqs)
        assert state.model.runs("aa_bad", f) == 1
        assert state.model.failure_rate("aa_bad", f) == 1.0

    def test_race_never_returns_unverified(self):
        system, seqs = _instance()
        reg = _zoo_with("aa_bad", _bad_cost_solver)
        state = PortfolioState()
        res = solve_mt_portfolio(
            system, seqs, state=state, registry=reg,
            strategy="race:5.0,k=2", candidates=("aa_bad", "mt_greedy"),
        )
        assert res.stats["portfolio"]["mode"] == "race"
        assert res.stats["portfolio"]["verified"]
        assert res.solver == "portfolio[mt_greedy]"
        direct = solve_mt_greedy_merge(system, seqs, None)
        assert res.cost == pytest.approx(direct.cost)

    def test_all_fail_raises(self):
        system, seqs = _instance()
        reg = _zoo_with("aa_boom", _boom_solver)
        with pytest.raises(RuntimeError):
            solve_mt_portfolio(
                system, seqs, state=PortfolioState(), registry=reg,
                candidates=("aa_boom",),
            )

    def test_default_candidates_exclude_meta(self):
        pool = portfolio_candidates(default_registry())
        assert "portfolio" not in pool and "auto" not in pool
        meta_names = {
            s.name for s in default_registry().select(tags={TAG_META})
        }
        assert not meta_names & set(pool)


class TestBatchIntegration:
    def _request(self, seed=0, solver="portfolio", **kwargs):
        system, seqs = _instance(seed=seed)
        return SolveRequest.multi(system, seqs, None, solver=solver, **kwargs)

    def test_inline_solve_learns_once(self):
        state = PortfolioState()
        set_default_state(state)
        engine = BatchEngine(workers=1, cache_size=0)
        results = engine.solve_batch([self._request(
            strategy="best", candidates=("mt_greedy",),
        )])
        assert results[0].ok
        assert _total_runs(state) == 1  # no double-count from absorb
        snap = engine.metrics.snapshot()
        assert snap["portfolio"]["decisions"] == {"mt_greedy": 1}

    def test_worker_solve_absorbed_into_parent(self):
        state = PortfolioState()
        set_default_state(state)
        engine = BatchEngine(workers=2, cache_size=0)
        reqs = [
            self._request(seed=s, strategy="best", candidates=("mt_greedy",))
            for s in (1, 2)
        ]
        results = engine.solve_batch(reqs)
        assert all(r.ok for r in results)
        assert _total_runs(state) == 2
        snap = engine.metrics.snapshot()
        assert sum(snap["portfolio"]["decisions"].values()) == 2

    def test_concrete_solver_runs_feed_ledger(self):
        state = PortfolioState()
        set_default_state(state)
        engine = BatchEngine(workers=1, cache_size=0)
        engine.solve_batch([self._request(solver="mt_greedy")])
        arm = state.model.snapshot()["multi"]["mt_greedy"]
        assert (arm["runs"], arm["failures"]) == (1, 0)

    def test_learning_can_be_disabled(self):
        state = PortfolioState()
        set_default_state(state)
        engine = BatchEngine(workers=1, cache_size=0, portfolio_learn=False)
        engine.solve_batch([self._request(solver="mt_greedy")])
        assert state.model.snapshot() == {}


class TestStatePersistence:
    def test_save_load_round_trip(self, tmp_path):
        system, seqs = _instance()
        state = PortfolioState()
        solve_mt_portfolio(
            system, seqs, state=state, candidates=("mt_greedy",)
        )
        path = state.save(tmp_path / "state.json")
        clone = PortfolioState.load(path)
        assert clone.model.snapshot() == state.model.snapshot()
        assert clone.model.representatives() == state.model.representatives()
        f = multi_features(system, seqs)
        assert clone.model.runs("mt_greedy", f) == state.model.runs(
            "mt_greedy", f
        )

    def test_state_stays_bounded(self, tmp_path):
        """10,000 observations over 3 instances × 2 solvers save as
        many arms, representatives and histogram buckets as 100 do,
        and predict exactly as a model fed the records one by one."""
        features = [multi_features(*_instance(seed=s)) for s in (1, 2, 3)]
        solvers = ("mt_genetic", "mt_greedy")

        def records(count):
            for i in range(count):
                yield RunRecord(
                    features=features[i % 3],
                    solver=solvers[(i // 3) % 2],
                    runtime=(1 + i % 5) * 1e-3,
                    cost=40.0 + i % 4,
                    ok=i % 7 != 0,
                )

        def saved(count):
            state = PortfolioState()
            assert state.absorb(r.to_dict() for r in records(count)) == count
            path = state.save(tmp_path / f"{count}.json")
            return state, json.loads(path.read_text())

        def entries(wire):
            buckets = sum(
                len(arm[hist]["buckets"])
                for arm in wire["arms"]
                for hist in ("runtime", "cost")
            )
            return len(wire["arms"]), len(wire["representatives"]), buckets

        _small, small_wire = saved(100)
        big, big_wire = saved(10_000)
        assert entries(big_wire) == entries(small_wire)
        assert len(big_wire["arms"]) <= len(features) * 4 * len(solvers)

        one_by_one = PortfolioModel()
        for record in records(10_000):
            one_by_one.observe(record)
        loaded = PortfolioState.load(tmp_path / "10000.json").model
        for model in (big.model, loaded):
            assert model.snapshot() == one_by_one.snapshot()
            for f in features:
                assert rank_candidates(model, f, solvers) == rank_candidates(
                    one_by_one, f, solvers
                )
                for solver in solvers:
                    for query in ("predict_runtime", "predict_cost",
                                  "failure_rate", "runs"):
                        assert getattr(model, query)(solver, f) == getattr(
                            one_by_one, query
                        )(solver, f)

    def test_second_identical_batch_adds_no_arm(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        argv = ["batch", "parity", "--solver", "mt_greedy",
                "--ledger", str(path)]
        assert main(argv) == 0
        first = json.loads(path.read_text())
        assert main(argv) == 0
        second = json.loads(path.read_text())
        capsys.readouterr()
        assert [(a["bucket"], a["solver"]) for a in second["arms"]] == [
            (a["bucket"], a["solver"]) for a in first["arms"]
        ]
        runs = {a["bucket"]: a["runs"] for a in first["arms"]}
        assert {a["bucket"]: a["runs"] for a in second["arms"]} == {
            bucket: 2 * n for bucket, n in runs.items()
        }


def _malformed_arm_histogram(path):
    state = PortfolioState()
    state.record(RunRecord(
        features=multi_features(*_instance()), solver="mt_greedy",
        runtime=0.01, cost=40.0,
    ))
    wire = json.loads(state.save(path).read_text())
    wire["arms"][0]["runtime"]["count"] += 1  # buckets now hold fewer
    return wire


class TestMalformedState:
    """A state file that cannot be read raises ValueError, and the CLI
    turns it into exit 2 with one ``bad ledger`` line, no traceback."""

    CASES = {
        "version_only": lambda path: {"version": 1},
        "json_array": lambda path: [1, 2, 3],
        "unknown_version": lambda path: {"version": 7, "arms": []},
        "arm_histogram_bucket_count": _malformed_arm_histogram,
    }

    @pytest.fixture(params=sorted(CASES))
    def bad_state(self, request, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(self.CASES[request.param](path)))
        return path

    def test_load_raises_value_error(self, bad_state):
        with pytest.raises(ValueError):
            PortfolioState.load(bad_state)

    @pytest.mark.parametrize("argv", [
        ["portfolio", "inspect", "--ledger"],
        ["batch", "parity", "--solver", "mt_greedy", "--ledger"],
    ])
    def test_cli_exits_2(self, bad_state, argv, capsys):
        assert main([*argv, str(bad_state)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bad ledger {bad_state}: ")
        assert "Traceback" not in err


DATA = Path(__file__).parent / "data"
V1_LEDGER = DATA / "portfolio_ledger_v1.json"


def _assert_same(actual, expected, where="$"):
    """Equal JSON trees: counts and strings exact, floats to 1e-12."""
    if isinstance(expected, float) and not isinstance(actual, bool):
        assert actual == pytest.approx(expected, rel=1e-12, abs=0), where
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), where
        for key in expected:
            _assert_same(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_same(a, e, f"{where}[{i}]")
    else:
        assert actual == expected and type(actual) is type(expected), where


class TestLedgerV1Fixture:
    """A version-1 run ledger (written by the row-store code, with the
    ``repro portfolio`` outputs of that code next to it) reads into the
    arms with the same outputs, before and after a v2 round trip."""

    COMMANDS = {
        "inspect": ["inspect"],
        "model": ["model"],
        "replay_best": ["replay"],
        "replay_race": ["replay", "--strategy", "race:2.0,k=2"],
    }

    @pytest.mark.parametrize("round_trip", [False, True], ids=["v1", "v2"])
    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_outputs_match(self, name, round_trip, tmp_path, capsys):
        path = V1_LEDGER
        if round_trip:
            path = PortfolioState.load(V1_LEDGER).save(tmp_path / "v2.json")
            assert json.loads(path.read_text())["version"] == 2
        argv = ["portfolio", *self.COMMANDS[name], "--ledger", str(path),
                "--json"]
        assert main(argv) == 0
        actual = json.loads(capsys.readouterr().out)
        expected = json.loads(
            (DATA / f"portfolio_ledger_v1.{name}.json").read_text()
        )
        if name == "inspect":  # names the file it read
            assert actual.pop("ledger") == str(path)
            expected.pop("ledger")
        if name.startswith("replay"):  # the explore flag left with
            for row in expected:       # the exploring strategies
                assert row.pop("explore") is False
        _assert_same(actual, expected)

    def test_fixture_shape(self):
        rows = json.loads(V1_LEDGER.read_text())["records"]
        assert len({row["solver"] for row in rows}) == 2
        assert any(not row["ok"] for row in rows)
        model = PortfolioState.load(V1_LEDGER).model
        assert len(model.representatives()) >= 2


class TestMetricsSnapshotJson:
    def test_round_trip_is_lossless(self):
        m = EngineMetrics()
        m.record_request(cached=False)
        m.record_solve(0.012, solver="mt_greedy")
        m.record_request(cached=True)
        m.record_error(timeout=True)
        m.record_portfolio(
            solver="mt_greedy", seconds=0.05, raced=True, records=3,
        )
        m.record_portfolio_rows(2)
        m.record_wire("bin", frames_in=4, bytes_in=100, bytes_out=80)
        text = m.snapshot_json()
        clone = EngineMetrics.from_json(text)
        assert clone.snapshot_json() == text
        assert clone.portfolio_decisions == {"mt_greedy": 1}
        assert clone.portfolio_races == 1
        assert clone.snapshot()["portfolio"] == m.snapshot()["portfolio"]

    def test_bad_version_rejected(self):
        payload = json.loads(EngineMetrics().snapshot_json())
        payload["version"] = 999
        with pytest.raises(ValueError):
            EngineMetrics.from_json(json.dumps(payload))
