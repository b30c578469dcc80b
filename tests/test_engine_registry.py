"""Tests for the solver registry (repro.engine.registry)."""

import pytest

from repro.core.context import RequirementSequence
from repro.core.switches import SwitchUniverse
from repro.core.task import TaskSystem
from repro.engine.registry import (
    SolverRegistry,
    SolverSpec,
    TAG_EXACT,
    TAG_HEURISTIC,
    TAG_META,
    TAG_TINY_ONLY,
    default_registry,
)
from repro.solvers.exhaustive import solve_mt_exhaustive
from repro.solvers.single_dp import solve_single_switch

U = SwitchUniverse.of_size(8)


def _dummy_single(seq, w, **_params):
    return solve_single_switch(seq, w)


class TestSolverSpec:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            SolverSpec(name="x", kind="both", fn=_dummy_single, exact=True)

    def test_name_validated(self):
        with pytest.raises(ValueError):
            SolverSpec(name="", kind="single", fn=_dummy_single, exact=True)


class TestSolverRegistry:
    def _registry(self):
        reg = SolverRegistry()
        reg.register(
            SolverSpec(name="dp", kind="single", fn=_dummy_single, exact=True)
        )
        return reg

    def test_register_and_get(self):
        reg = self._registry()
        assert reg.get("dp").exact
        assert "dp" in reg
        assert len(reg) == 1

    def test_duplicate_rejected_unless_replace(self):
        reg = self._registry()
        spec = SolverSpec(name="dp", kind="single", fn=_dummy_single, exact=False)
        with pytest.raises(ValueError):
            reg.register(spec)
        reg.register(spec, replace=True)
        assert not reg.get("dp").exact

    def test_unknown_name_lists_known(self):
        reg = self._registry()
        with pytest.raises(KeyError, match="dp"):
            reg.get("nonexistent")

    def test_kind_mismatch_rejected(self):
        reg = self._registry()
        system = TaskSystem.from_contiguous(U, [4, 4])
        seqs = [RequirementSequence(U, [1]), RequirementSequence(U, [16])]
        with pytest.raises(ValueError, match="not a multi-task"):
            reg.solve_multi("dp", system, seqs)

    def test_solve_single_dispatch(self):
        reg = self._registry()
        seq = RequirementSequence(U, [1, 2, 4])
        res = reg.solve_single("dp", seq, 8.0)
        assert res.cost == solve_single_switch(seq, 8.0).cost


class TestDefaultRegistry:
    def test_is_shared_singleton(self):
        assert default_registry() is default_registry()

    def test_zoo_registered(self):
        reg = default_registry()
        for name in (
            "single_dp",
            "mt_exhaustive",
            "mt_exact",
            "mt_greedy",
            "mt_genetic",
            "mt_annealing",
            "mt_branch_bound",
            "portfolio",
        ):
            assert name in reg
        for gone in ("auto", "mt_annealing_multistart"):
            assert gone not in reg

    def test_select_by_capability(self):
        reg = default_registry()
        exact_multi = {s.name for s in reg.select(kind="multi", exact=True)}
        assert {"mt_exhaustive", "mt_exact", "mt_branch_bound"} <= exact_multi
        heuristics = {s.name for s in reg.select(tags={TAG_HEURISTIC})}
        assert {"mt_greedy", "mt_genetic", "mt_annealing"} <= heuristics
        scalable_exact = reg.select(
            kind="multi", exact=True, without_tags={TAG_TINY_ONLY}
        )
        assert all(s.name != "mt_exhaustive" for s in scalable_exact)
        assert {s.name for s in reg.select(tags={TAG_META})} == {"portfolio"}

    def test_multi_solve_matches_direct_call(self):
        reg = default_registry()
        system = TaskSystem.from_contiguous(U, [4, 4])
        seqs = [
            RequirementSequence(U, [1, 2, 3]),
            RequirementSequence(U, [16, 32, 48]),
        ]
        via_registry = reg.solve_multi("mt_exhaustive", system, seqs)
        direct = solve_mt_exhaustive(system, seqs)
        assert via_registry.cost == direct.cost
        assert via_registry.schedule == direct.schedule

    def test_describe_covers_all_names(self):
        reg = default_registry()
        rows = reg.describe()
        assert {row[0] for row in rows} == set(reg.names())
        assert all(row[1] in ("single", "multi") for row in rows)

    def test_specs_are_picklable(self):
        """Batch workers receive specs through multiprocessing."""
        import pickle

        for name in default_registry().names():
            spec = default_registry().get(name)
            assert pickle.loads(pickle.dumps(spec)).name == name

    def test_tag_constants_consistent(self):
        """Every exact solver carries TAG_EXACT (so tag-based selection
        never silently drops one), and seed-dependent solvers —
        including the portfolio, which forwards its seed to the
        stochastic solvers it runs — carry TAG_STOCHASTIC."""
        reg = default_registry()
        for spec in reg.select(exact=True):
            assert TAG_EXACT in spec.tags, spec.name
        assert "single_dp" in {s.name for s in reg.select(tags={TAG_EXACT})}
        stochastic = {s.name for s in reg.select(tags={"stochastic"})}
        assert {"mt_genetic", "mt_annealing", "portfolio"} <= stochastic

    def test_meta_solver_uses_invoking_registry(self):
        """'portfolio' must draw candidates from the registry it was
        dispatched through, not silently fall back to the built-ins."""
        from repro.portfolio import PortfolioState

        calls = []

        def tracking_genetic(system, seqs, model=None, **params):
            calls.append("custom-genetic")
            from repro.solvers.mt_genetic import solve_mt_genetic

            return solve_mt_genetic(system, seqs, model, **params)

        reg = SolverRegistry()
        for name in ("mt_exact", "mt_greedy", "mt_annealing", "portfolio"):
            reg.register(default_registry().get(name))
        reg.register(SolverSpec(
            name="mt_genetic", kind="multi", fn=tracking_genetic,
            exact=False,
        ))
        # Too large for the exact DP: a cold portfolio runs the GA.
        from repro.analysis.sweeps import make_instance

        system, seqs = make_instance(4, 60, 8, seed=1)
        res = reg.solve_multi("portfolio", system, seqs, state=PortfolioState())
        assert calls == ["custom-genetic"]
        assert res.solver == "portfolio[mt_genetic]"

    def test_names_and_select_sorted_by_name(self):
        """The documented ordering contract: names(), select() and
        describe() all iterate alphabetically, independent of
        registration order."""
        reg = SolverRegistry()
        for name in ("zeta", "alpha", "mid"):
            reg.register(SolverSpec(
                name=name, kind="single", fn=_dummy_single, exact=True,
            ))
        assert reg.names() == ("alpha", "mid", "zeta")
        assert [s.name for s in reg.select()] == ["alpha", "mid", "zeta"]
        assert [row[0] for row in reg.describe()] == ["alpha", "mid", "zeta"]
        # the shared zoo honours the same contract
        zoo = default_registry()
        assert list(zoo.names()) == sorted(zoo.names())
        assert [s.name for s in zoo.select()] == sorted(zoo.names())

    def test_portfolio_spec_registered(self):
        reg = default_registry()
        spec = reg.get("portfolio")
        assert spec.kind == "multi"
        assert not spec.exact
        assert TAG_META in spec.tags
        assert "stochastic" in spec.tags
        # the portfolio never dispatches to itself or other meta solvers
        from repro.portfolio import portfolio_candidates

        candidates = portfolio_candidates(reg)
        assert candidates == tuple(sorted(candidates))
        assert "portfolio" not in candidates
        assert {"mt_greedy", "mt_genetic", "mt_annealing"} <= set(candidates)

    def test_registry_picklable_without_lock(self):
        import pickle

        reg = SolverRegistry()
        reg.register(SolverSpec(
            name="dp", kind="single", fn=_dummy_single, exact=True,
        ))
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.names() == ("dp",)
        # the rebuilt registry is fully functional (lock recreated)
        clone.register(SolverSpec(
            name="dp2", kind="single", fn=_dummy_single, exact=True,
        ))
        assert "dp2" in clone
