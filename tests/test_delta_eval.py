"""Tests for the incremental evaluation engine (repro.core.delta).

The central contract: after any sequence of applies/reverts the
evaluator's cost equals a from-scratch
:func:`repro.core.sync_cost.sync_switch_cost` of its current rows —
*bit-identical*, not approximately — across machine models, changeover
and public-global variants.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.context import RequirementSequence
from repro.core.delta import (
    AlignMove,
    ColumnFlipMove,
    DeltaEvaluator,
    FlipMove,
    FullEvaluator,
    PopulationEvaluator,
    SetRowsMove,
    ShiftMove,
    make_evaluator,
)
from repro.core.machine import MachineClass, MachineModel, SyncMode, UploadMode
from repro.core.schedule import MultiTaskSchedule, ScheduleError
from repro.core.switches import SwitchUniverse
from repro.core.sync_cost import PublicGlobalPlan, sync_switch_cost
from repro.core.task import Task, TaskSystem
from repro.solvers.mt_annealing import _propose
from repro.util.rng import make_rng

UPLOAD_MODELS = [
    MachineModel(
        sync_mode=SyncMode.FULLY_SYNCHRONIZED,
        hyper_upload=h,
        reconfig_upload=r,
    )
    for h in UploadMode
    for r in UploadMode
]


def _instance(m, n, switches_per_task, seed):
    universe = SwitchUniverse.of_size(m * switches_per_task)
    system = TaskSystem.from_contiguous(universe, [switches_per_task] * m)
    rng = make_rng(seed)
    seqs = []
    for j in range(m):
        shift = j * switches_per_task
        masks = [
            int(rng.integers(0, 2**switches_per_task)) << shift
            for _ in range(n)
        ]
        seqs.append(RequirementSequence(universe, masks))
    return universe, system, seqs


def _random_rows(m, n, rng, density=0.3):
    return [
        [True] + [bool(rng.random() < density) for _ in range(n - 1)]
        for _ in range(m)
    ]


def _random_move(rows, m, n, rng):
    """One random (possibly invalid-free) move, or None when impossible."""
    kind = int(rng.integers(0, 3))
    if n < 2:
        return None
    if kind == 0:
        return FlipMove(task=int(rng.integers(0, m)), step=int(rng.integers(1, n)))
    if kind == 1:
        return AlignMove(step=int(rng.integers(1, n)), source=int(rng.integers(0, m)))
    j = int(rng.integers(0, m))
    hypers = [i for i in range(1, n) if rows[j][i]]
    if not hypers:
        return None
    src = hypers[int(rng.integers(0, len(hypers)))]
    dst = src + (1 if rng.random() < 0.5 else -1)
    if dst < 1 or dst >= n or rows[j][dst]:
        return None
    return ShiftMove(task=j, src=src, dst=dst)


def _reference(system, seqs, rows, model, **kwargs):
    return sync_switch_cost(
        system, seqs, MultiTaskSchedule(rows), model, **kwargs
    )


class TestDeltaAgainstReference:
    @pytest.mark.parametrize("model", UPLOAD_MODELS)
    @pytest.mark.parametrize("changeover", [False, True])
    def test_random_move_sequences(self, model, changeover):
        m, n = 3, 9
        _, system, seqs = _instance(m, n, 5, seed=11)
        rng = make_rng(17)
        cfix = [0.5 * j for j in range(m)] if changeover else None
        ev = DeltaEvaluator(
            system,
            seqs,
            _random_rows(m, n, rng),
            model,
            w=2.0,
            changeover=changeover,
            changeover_fixed=cfix,
        )
        kwargs = dict(w=2.0, changeover=changeover, changeover_fixed=cfix)
        assert ev.cost == _reference(system, seqs, ev.rows, model, **kwargs)
        for _ in range(120):
            move = _random_move(ev.rows, m, n, rng)
            if move is None:
                continue
            before = ev.cost
            cost = ev.apply(move)
            assert cost == _reference(system, seqs, ev.rows, model, **kwargs)
            if rng.random() < 0.4:
                assert ev.revert() == before
                assert before == _reference(
                    system, seqs, ev.rows, model, **kwargs
                )

    def test_with_public_global_row(self):
        m, n = 2, 8
        universe, system, seqs = _instance(m, n, 4, seed=5)
        rng = make_rng(23)
        public = PublicGlobalPlan(
            seq=RequirementSequence(
                universe, [int(rng.integers(0, 16)) for _ in range(n)]
            ),
            hyper_steps=(0, n // 2),
            v=3.5,
        )
        ev = DeltaEvaluator(
            system, seqs, _random_rows(m, n, rng), public=public
        )
        for _ in range(80):
            move = _random_move(ev.rows, m, n, rng)
            if move is None:
                continue
            cost = ev.apply(move)
            assert cost == _reference(
                system, seqs, ev.rows, None, public=public
            )
            if rng.random() < 0.3:
                ev.revert()

    def test_multi_lane_universe(self):
        """Universes wider than 64 switches use plain Python ints."""
        m, n, spt = 2, 6, 40  # 80-switch universe
        _, system, seqs = _instance(m, n, spt, seed=3)
        rng = make_rng(9)
        ev = DeltaEvaluator(system, seqs, _random_rows(m, n, rng))
        for _ in range(40):
            move = _random_move(ev.rows, m, n, rng)
            if move is None:
                continue
            assert ev.apply(move) == _reference(system, seqs, ev.rows, None)

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=1, max_value=6),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_flip_sequences_property(self, flips):
        m, n = 2, 7
        _, system, seqs = _instance(m, n, 4, seed=1)
        ev = DeltaEvaluator(
            system, seqs, MultiTaskSchedule.initial_only(m, n)
        )
        for j, i in flips:
            assert ev.apply(FlipMove(task=j, step=i)) == _reference(
                system, seqs, ev.rows, None
            )


class TestMovesAndGuards:
    def setup_method(self):
        _, self.system, self.seqs = _instance(2, 6, 4, seed=2)

    def _evaluator(self, **kwargs):
        return DeltaEvaluator(
            self.system,
            self.seqs,
            MultiTaskSchedule.initial_only(2, 6),
            **kwargs,
        )

    def test_step_zero_is_pinned(self):
        ev = self._evaluator()
        with pytest.raises(ScheduleError):
            ev.apply(FlipMove(task=0, step=0))

    def test_shift_validation(self):
        ev = self._evaluator()
        with pytest.raises(ScheduleError):
            ev.apply(ShiftMove(task=0, src=3, dst=4))  # no hyper at src
        ev.apply(FlipMove(task=0, step=3))
        with pytest.raises(ScheduleError):
            ev.apply(ShiftMove(task=0, src=3, dst=3))

    def test_align_noop_is_counted_not_evaluated(self):
        ev = self._evaluator()
        before = ev.cost
        assert ev.apply(AlignMove(step=2, source=0)) == before  # already aligned
        assert ev.stats["delta_noops"] == 1
        assert ev.stats["delta_applies"] == 0
        assert ev.revert() == before

    def test_set_rows_is_a_counted_fallback(self):
        ev = self._evaluator()
        before = ev.cost
        before_rows = [list(r) for r in ev.rows]
        rng = make_rng(0)
        new_rows = _random_rows(2, 6, rng)
        cost = ev.apply(SetRowsMove.of(new_rows))
        assert cost == _reference(self.system, self.seqs, new_rows, None)
        assert ev.stats["delta_full_evals"] == 1
        assert ev.stats["delta_hit_rate"] == 0.0
        assert ev.revert() == before
        assert ev.rows == before_rows

    def test_column_moves_on_aligned_machines(self):
        model = MachineModel(
            machine_class=MachineClass.PARTIALLY_RECONFIGURABLE,
            sync_mode=SyncMode.FULLY_SYNCHRONIZED,
        )
        ev = self._evaluator(model=model)
        with pytest.raises(ScheduleError):
            ev.apply(FlipMove(task=0, step=2))  # would desync the rows
        cost = ev.apply(ColumnFlipMove(step=2))
        assert cost == _reference(self.system, self.seqs, ev.rows, model)
        assert all(ev.rows[0] == row for row in ev.rows)

    def test_revert_without_apply_raises(self):
        ev = self._evaluator()
        with pytest.raises(RuntimeError):
            ev.revert()
        ev.apply(FlipMove(task=0, step=1))
        ev.revert()
        with pytest.raises(RuntimeError):
            ev.revert()

    def test_reset_counts_and_reevaluates(self):
        ev = self._evaluator()
        rng = make_rng(4)
        rows = _random_rows(2, 6, rng)
        assert ev.reset(rows) == _reference(self.system, self.seqs, rows, None)
        assert ev.stats["delta_resets"] == 1


class TestFullEvaluatorParity:
    def test_same_trajectory_bitwise(self):
        m, n = 3, 8
        _, system, seqs = _instance(m, n, 4, seed=7)
        rng = make_rng(31)
        start = _random_rows(m, n, rng)
        delta = make_evaluator(system, seqs, start, use_delta=True)
        full = make_evaluator(system, seqs, start, use_delta=False)
        assert isinstance(delta, DeltaEvaluator)
        assert isinstance(full, FullEvaluator)
        assert delta.cost == full.cost
        for _ in range(60):
            move = _random_move(delta.rows, m, n, rng)
            if move is None:
                continue
            ca, cb = delta.apply(move), full.apply(move)
            assert ca == cb
            if rng.random() < 0.5:
                assert delta.revert() == full.revert()
        assert delta.rows == full.rows
        assert full.stats["delta_applies"] == 0
        assert full.stats["delta_full_evals"] > 0

    @settings(deadline=None, max_examples=40)
    @given(
        st.sampled_from([24, 64, 65, 129, 150]),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=2, max_value=18),
        st.sampled_from(UPLOAD_MODELS),
        st.sampled_from(["plain", "changeover", "public"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_streams_take_the_same_trajectory(
        self, width, m, n, model, variant, seed
    ):
        """Flip, align, shift, column, set-rows and decoded-change
        streams with random reverts, on one to three lanes: the delta
        evaluator reads every cost and rows of the full evaluator."""
        rng = make_rng(seed)
        universe = SwitchUniverse.of_size(width)
        carved = TaskSystem.from_contiguous(universe, [width // m] * m)
        system = TaskSystem(universe, [
            Task(t.name, t.local, init_cost=float(rng.uniform(0.1, 9.0)))
            for t in carved.tasks
        ])
        seqs = [
            RequirementSequence(universe, [
                int.from_bytes(rng.bytes(19), "little")
                & int(rng.integers(0, 2**62))
                & system.tasks[j].local_mask
                for _ in range(n)
            ])
            for j in range(m)
        ]
        kwargs = {"w": float(rng.uniform(0.0, 3.0))}
        if variant == "changeover":
            kwargs.update(
                changeover=True,
                changeover_fixed=[float(x) for x in rng.uniform(0, 4, m)],
            )
        elif variant == "public":
            kwargs["public"] = PublicGlobalPlan(
                seq=RequirementSequence(universe, [
                    int(rng.integers(0, 2**min(width, 62))) for _ in range(n)
                ]),
                hyper_steps=tuple(
                    [0] + [i for i in range(1, n) if rng.random() < 0.3]
                ),
                v=float(rng.uniform(0.1, 9.0)),
            )
        start = _random_rows(m, n, rng)
        delta = make_evaluator(system, seqs, start, model, **kwargs)
        full = make_evaluator(
            system, seqs, start, model, use_delta=False, **kwargs
        )
        assert delta.cost == full.cost
        for _ in range(50):
            kind = int(rng.integers(0, 6))
            if kind == 5:
                # The annealing loop's entry: decoded bit changes.
                changes = _propose(
                    delta.rows, m, n, rng.random, rng.integers, 0.6, 0.8
                )
                if changes is None:
                    continue
                ca = delta.apply_changes(changes)
                cb = full.apply_changes(changes)
            else:
                if kind == 3:
                    move = ColumnFlipMove(step=int(rng.integers(1, n)))
                elif kind == 4:
                    move = SetRowsMove.of(_random_rows(m, n, rng))
                else:
                    move = _random_move(delta.rows, m, n, rng)
                if move is None:
                    continue
                ca, cb = delta.apply(move), full.apply(move)
            assert ca == cb
            assert delta.rows == full.rows
            if rng.random() < 0.4:
                assert delta.revert() == full.revert()
                assert delta.rows == full.rows
        assert delta.cost == delta.reference_cost()


class TestPopulationEvaluator:
    def test_batched_matches_reference(self):
        m, n = 3, 7
        _, system, seqs = _instance(m, n, 4, seed=13)
        rng = make_rng(5)
        pe = PopulationEvaluator(system, seqs)
        assert pe.batched
        pop = rng.random((6, m, n)) < 0.3
        pop[:, :, 0] = True
        costs = pe.evaluate(pop)
        for k in range(len(pop)):
            assert costs[k] == _reference(system, seqs, pop[k].tolist(), None)
        assert pe.stats["delta_applies"] == 6
        assert pe.stats["delta_hit_rate"] == 1.0

    def test_changeover_is_batched(self):
        """The lane-packed kernel expresses the changeover symmetric
        differences directly: no per-chromosome reference fallback."""
        m, n = 2, 6
        _, system, seqs = _instance(m, n, 4, seed=19)
        rng = make_rng(8)
        cfix = [1.0, 2.0]
        pe = PopulationEvaluator(
            system, seqs, changeover=True, changeover_fixed=cfix
        )
        assert pe.batched
        pop = rng.random((4, m, n)) < 0.3
        pop[:, :, 0] = True
        costs = pe.evaluate(pop)
        for k in range(len(pop)):
            assert costs[k] == _reference(
                system,
                seqs,
                pop[k].tolist(),
                None,
                changeover=True,
                changeover_fixed=cfix,
            )
        assert pe.stats["delta_applies"] == 4
        assert pe.stats["delta_full_evals"] == 0
        assert pe.stats["delta_hit_rate"] == 1.0


class TestSolverSurfacing:
    def test_solver_stats_carry_evaluator_counters(self):
        from repro.solvers.mt_annealing import AnnealParams, solve_mt_annealing
        from repro.solvers.mt_greedy import solve_mt_greedy_merge
        from repro.solvers.mt_genetic import GAParams, solve_mt_genetic

        _, system, seqs = _instance(2, 8, 4, seed=21)
        sa = solve_mt_annealing(
            system, seqs, params=AnnealParams(iterations=200), seed=0
        )
        assert sa.stats["delta_applies"] > 0
        assert sa.stats["delta_full_evals"] == 0
        greedy = solve_mt_greedy_merge(system, seqs)
        assert greedy.stats["delta_applies"] > 0
        ga = solve_mt_genetic(
            system,
            seqs,
            params=GAParams(population_size=8, generations=5),
            seed=0,
        )
        assert ga.stats["delta_applies"] > 0

    def test_engine_metrics_aggregate_delta_counters(self):
        from repro.engine import BatchEngine, SolveRequest

        _, system, seqs = _instance(2, 8, 4, seed=22)
        engine = BatchEngine(workers=1)
        results = engine.solve_batch(
            [SolveRequest.multi(system, seqs, solver="mt_greedy")]
        )
        assert results[0].ok
        assert engine.metrics.delta_applies > 0
        assert engine.metrics.delta_hit_rate > 0.0
        snap = engine.metrics.snapshot()
        assert snap["delta"]["applies"] == engine.metrics.delta_applies
        assert "incremental evals" in engine.metrics.format_report()
