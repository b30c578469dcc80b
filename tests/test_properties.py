"""Cross-model property tests: identities and inequalities that tie the
cost models, solvers and the GA kernel together.

These are the library's load-bearing invariants — each one connects two
independently implemented code paths, so a regression in either side
trips the property.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.context import RequirementSequence
from repro.core.cost_single import switch_cost
from repro.core.machine import MachineModel, SyncMode, UploadMode
from repro.core.packed import PackedProblem, pack_requirements
from repro.core.schedule import MultiTaskSchedule, SingleTaskSchedule
from repro.core.sync_cost import sync_switch_cost
from repro.core.switches import SwitchUniverse
from repro.core.task import Task, TaskSystem
from repro.solvers.mt_async import solve_mt_async
from repro.solvers.single_dp import solve_single_switch

U = SwitchUniverse.of_size(8)
masks8 = st.integers(min_value=0, max_value=U.full_mask)
instance8 = st.lists(masks8, min_size=1, max_size=10)


def _single_task_system(v: float) -> TaskSystem:
    return TaskSystem(U, [Task("T", U.full_set(), init_cost=v)])


class TestSingleTaskIdentities:
    @settings(deadline=None, max_examples=40)
    @given(instance8, st.integers(min_value=1, max_value=10), st.data())
    def test_sync_cost_m1_equals_switch_cost(self, masks, v, data):
        """For m = 1 the synchronized per-step formula collapses to the
        plain switch model with w = v (r hyper events, |h| per step)."""
        n = len(masks)
        seq = RequirementSequence(U, masks)
        extra = data.draw(
            st.sets(st.integers(min_value=1, max_value=max(1, n - 1)))
        )
        steps = tuple(sorted({0} | {s for s in extra if s < n}))
        single = SingleTaskSchedule(n=n, hyper_steps=steps)
        multi = MultiTaskSchedule.from_hyper_steps(1, n, [steps])
        system = _single_task_system(float(v))
        assert sync_switch_cost(system, [seq], multi) == pytest.approx(
            switch_cost(seq, single, w=float(v))
        )

    @settings(deadline=None, max_examples=30)
    @given(instance8, st.integers(min_value=1, max_value=10))
    def test_async_m1_equals_single_dp(self, masks, v):
        """The asynchronous solver on one task IS the single-task DP."""
        seq = RequirementSequence(U, masks)
        system = _single_task_system(float(v))
        async_res = solve_mt_async(system, [seq])
        dp = solve_single_switch(seq, w=float(v))
        assert async_res.cost == pytest.approx(dp.cost)


class TestMonotonicityProperties:
    @settings(deadline=None, max_examples=30)
    @given(instance8, st.data())
    def test_optimum_monotone_under_extra_requirements(self, masks, data):
        """Adding switches to some step's requirement can never reduce
        the optimal cost (more demand, never cheaper)."""
        seq = RequirementSequence(U, masks)
        i = data.draw(st.integers(min_value=0, max_value=len(masks) - 1))
        extra = data.draw(masks8)
        bigger = list(masks)
        bigger[i] |= extra
        seq2 = RequirementSequence(U, bigger)
        w = 4.0
        assert (
            solve_single_switch(seq2, w=w).cost
            >= solve_single_switch(seq, w=w).cost - 1e-9
        )

    @settings(deadline=None, max_examples=30)
    @given(instance8)
    def test_optimum_subadditive_under_concatenation(self, masks):
        """opt(A ++ B) ≤ opt(A) + opt(B): concatenating two traces can
        reuse the boundary but never costs more than solving apart."""
        seq = RequirementSequence(U, masks)
        double = RequirementSequence(U, list(masks) + list(masks))
        w = 5.0
        opt1 = solve_single_switch(seq, w=w).cost
        opt2 = solve_single_switch(double, w=w).cost
        assert opt2 <= 2 * opt1 + 1e-9

    @settings(deadline=None, max_examples=25)
    @given(instance8, st.data())
    def test_restriction_never_increases_optimum(self, masks, data):
        """Projecting every requirement onto a scope (a task's view)
        yields an instance whose optimum is at most the original's."""
        scope = data.draw(masks8)
        seq = RequirementSequence(U, masks)
        restricted = seq.restrict(scope)
        w = 3.0
        assert (
            solve_single_switch(restricted, w=w).cost
            <= solve_single_switch(seq, w=w).cost + 1e-9
        )


class TestGAKernelAgreement:
    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_population_fitness_matches_reference(self, data):
        """The vectorized GA kernel must agree with sync_switch_cost on
        arbitrary schedules, both upload modes."""
        m = data.draw(st.integers(min_value=1, max_value=3))
        n = data.draw(st.integers(min_value=1, max_value=8))
        sizes = [data.draw(st.integers(min_value=1, max_value=2)) for _ in range(m)]
        universe = SwitchUniverse.of_size(sum(sizes))
        system = TaskSystem.from_contiguous(universe, sizes)
        seqs = []
        for mask in system.local_masks:
            row = [
                data.draw(st.integers(min_value=0, max_value=universe.full_mask))
                & mask
                for _ in range(n)
            ]
            seqs.append(RequirementSequence(universe, row))
        pop_rows = []
        for _ in range(3):
            rows = [
                [True]
                + [data.draw(st.booleans()) for _ in range(n - 1)]
                for _ in range(m)
            ]
            pop_rows.append(rows)
        pop = np.array(pop_rows, dtype=bool)
        lanes = pack_requirements(seqs)
        v = np.asarray(system.v)
        for hyper_par in (True, False):
            for reconf_par in (True, False):
                model = MachineModel(
                    sync_mode=SyncMode.FULLY_SYNCHRONIZED,
                    hyper_upload=UploadMode.TASK_PARALLEL
                    if hyper_par
                    else UploadMode.TASK_SEQUENTIAL,
                    reconfig_upload=UploadMode.TASK_PARALLEL
                    if reconf_par
                    else UploadMode.TASK_SEQUENTIAL,
                )
                fit = PackedProblem(
                    lanes,
                    v,
                    hyper_parallel=hyper_par,
                    reconf_parallel=reconf_par,
                ).population_cost(pop)
                for k, rows in enumerate(pop_rows):
                    expected = sync_switch_cost(
                        system, seqs, MultiTaskSchedule(rows), model
                    )
                    assert fit[k] == pytest.approx(expected)


class TestScheduleTransferBounds:
    @settings(deadline=None, max_examples=25)
    @given(instance8, st.data())
    def test_copied_single_schedule_bounded_by_single_cost(self, masks, data):
        """Section 6's guaranteed win: copying the merged single-task
        schedule to all tasks costs at most the single-task cost when
        uploads are task-parallel (max ≤ sum, per step)."""
        n = len(masks)
        universe = SwitchUniverse.of_size(8)
        system = TaskSystem.from_contiguous(universe, [4, 4])
        seq_a = RequirementSequence(universe, [m & 0x0F for m in masks])
        seq_b = RequirementSequence(
            universe,
            [
                (data.draw(masks8) & 0x0F) << 4
                for _ in range(n)
            ],
        )
        merged_masks = [a | b for a, b in zip(seq_a.masks, seq_b.masks)]
        merged = RequirementSequence(universe, merged_masks)
        w = sum(system.v)
        single = solve_single_switch(merged, w=w)
        copied = MultiTaskSchedule.from_single(single.schedule, 2)
        sync = sync_switch_cost(system, [seq_a, seq_b], copied)
        assert sync <= single.cost + 1e-9
