"""Randomized equivalence suite for the lane-packed representation.

``repro.core.packed`` is the single vectorized encoding under every
cost-model and solver hot path; the scalar int-mask code is the
correctness oracle.  These properties assert the two are *bit-identical*
— not approximately equal — across

* universe sizes 1–200, deliberately crossing the 64/128-bit lane
  boundaries,
* all four upload-mode combinations,
* the changeover variant (with per-task fixed costs) and the
  public-global pseudo-row,

plus the compatibility aliases (``masks_to_u64`` & friends, the PR-2
kernel entry points) and the engine's compile-once behaviour.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import packed as packed_mod
from repro.core.context import RequirementSequence
from repro.core.cost_single import switch_cost, switch_cost_changeover
from repro.core.delta import make_evaluator
from repro.core.machine import MachineModel, SyncMode, UploadMode
from repro.core.mt_cost import async_switch_cost
from repro.core.packed import (
    PackedProblem,
    PackedSequence,
    PackedWindows,
    lane_count,
    lanes_to_masks,
    masks_to_lanes,
)
from repro.core.schedule import MultiTaskSchedule, SingleTaskSchedule
from repro.core.switches import SwitchUniverse
from repro.core.sync_cost import (
    PublicGlobalPlan,
    sync_cost_breakdown,
    sync_switch_cost,
)
from repro.core.task import Task, TaskSystem
from repro.util import bitset
from repro.util.rng import make_rng

# Universe sizes that straddle the uint64 lane boundaries.
BOUNDARY_SIZES = [1, 2, 63, 64, 65, 127, 128, 129, 200]
universe_sizes = st.one_of(
    st.sampled_from(BOUNDARY_SIZES), st.integers(min_value=1, max_value=200)
)

ALL_MODELS = [
    MachineModel(
        sync_mode=SyncMode.FULLY_SYNCHRONIZED,
        hyper_upload=hu,
        reconfig_upload=ru,
    )
    for hu in (UploadMode.TASK_PARALLEL, UploadMode.TASK_SEQUENTIAL)
    for ru in (UploadMode.TASK_PARALLEL, UploadMode.TASK_SEQUENTIAL)
]


@st.composite
def instances(draw, max_m=3, max_n=8):
    """Random (system, seqs, rows) with an arbitrary-width universe."""
    size = draw(universe_sizes)
    universe = SwitchUniverse.of_size(size)
    m = draw(st.integers(min_value=1, max_value=min(max_m, size)))
    sizes = [size // m + (1 if k < size % m else 0) for k in range(m)]
    system = TaskSystem.from_contiguous(universe, sizes)
    n = draw(st.integers(min_value=1, max_value=max_n))
    mask_st = st.integers(min_value=0, max_value=universe.full_mask)
    seqs = [
        RequirementSequence(universe, [draw(mask_st) for _ in range(n)])
        for _ in range(m)
    ]
    rows = [
        [True] + [draw(st.booleans()) for _ in range(n - 1)] for _ in range(m)
    ]
    return system, seqs, rows


class TestLanePrimitives:
    @settings(deadline=None, max_examples=40)
    @given(universe_sizes, st.data())
    def test_masks_roundtrip_through_lanes(self, size, data):
        universe = SwitchUniverse.of_size(size)
        masks = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=universe.full_mask),
                min_size=0,
                max_size=6,
            )
        )
        lanes = masks_to_lanes(masks, size)
        assert lanes.shape == (len(masks), lane_count(size))
        assert lanes_to_masks(lanes) == masks

    def test_lane_boundary_bits_survive(self):
        for size, bit in ((64, 63), (65, 64), (128, 127), (129, 128)):
            lanes = masks_to_lanes([1 << bit], size)
            assert lanes_to_masks(lanes) == [1 << bit]

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.integers(min_value=0, max_value=3), max_size=3),
        st.data(),
    )
    def test_lanes_to_masks_matches_the_lane_loop(self, L, lead, data):
        """Any ``(..., L)`` input, bits at every 64-bit boundary: the
        result equals folding the lanes high to low one row at a time,
        nested like the leading shape (a bare int for 1-D input)."""
        edges = [0, 1, 1 << 63, (1 << 64) - 1, (1 << 63) | 1]
        lane = st.one_of(
            st.sampled_from(edges),
            st.integers(min_value=0, max_value=(1 << 64) - 1),
        )
        shape = (*lead, L)
        cells = data.draw(
            st.lists(lane, min_size=int(np.prod(shape)),
                     max_size=int(np.prod(shape)))
        )
        arr = np.array(cells, dtype=np.uint64).reshape(shape)

        def fold(row) -> int:
            mask = 0
            for value in reversed(row.tolist()):
                mask = (mask << 64) | value
            return mask

        def nest(a):
            if a.ndim == 1:
                return fold(a)
            return [nest(sub) for sub in a]

        assert lanes_to_masks(arr) == nest(arr)
        # Non-contiguous input reads the same rows.
        wide = np.repeat(arr, 2, axis=-1)[..., ::2]
        assert lanes_to_masks(wide) == nest(arr)

    def test_oversized_mask_rejected(self):
        with pytest.raises(ValueError):
            masks_to_lanes([1 << 64], 64)


class TestPackedProblemEquivalence:
    @settings(deadline=None, max_examples=25)
    @given(instances(), st.data())
    def test_cost_and_breakdown_bit_identical(self, instance, data):
        """Packed cost, per-step breakdown and block unions equal the
        scalar reference exactly, for every upload-mode combination and
        both changeover settings."""
        system, seqs, rows = instance
        m = system.m
        n = len(seqs[0])
        schedule = MultiTaskSchedule(rows)
        w = data.draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
        changeover = data.draw(st.booleans())
        cfix = (
            tuple(
                data.draw(
                    st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
                )
                for _ in range(m)
            )
            if changeover and data.draw(st.booleans())
            else None
        )
        for model in ALL_MODELS:
            packed = PackedProblem.compile(system, seqs, model)
            assert packed.lane_count == lane_count(system.universe.size)
            kwargs = dict(w=w, changeover=changeover, changeover_fixed=cfix)
            reference = sync_switch_cost(system, seqs, schedule, model, **kwargs)
            assert packed.cost(rows, **kwargs) == reference
            # The fast path reachable through the oracle's own API:
            assert (
                sync_switch_cost(
                    system, seqs, schedule, model, packed=packed, **kwargs
                )
                == reference
            )
            evaluation = packed.evaluate_rows(rows, **kwargs)
            steps = sync_cost_breakdown(system, seqs, schedule, model, **kwargs)
            for i in range(n):
                assert evaluation.step_hyper[i] == steps[i].hyper
                assert evaluation.step_reconf[i] == steps[i].reconfig
            assert evaluation.union_masks() == schedule.block_union_masks(seqs)
            # Population path: the same rows batched three times.
            pop = np.asarray([rows, rows, rows], dtype=bool)
            costs = packed.population_cost(pop, **kwargs)
            assert list(costs) == [reference] * 3

    @settings(deadline=None, max_examples=15)
    @given(instances(), st.data())
    def test_public_global_bit_identical(self, instance, data):
        system, seqs, rows = instance
        n = len(seqs[0])
        universe = system.universe
        pub_masks = [
            data.draw(st.integers(min_value=0, max_value=universe.full_mask))
            for _ in range(n)
        ]
        extra = data.draw(
            st.sets(st.integers(min_value=1, max_value=max(1, n - 1)))
        )
        public = PublicGlobalPlan(
            seq=RequirementSequence(universe, pub_masks),
            hyper_steps=tuple(sorted({0} | {s for s in extra if s < n})),
            v=data.draw(
                st.floats(min_value=0.0, max_value=9.0, allow_nan=False)
            ),
        )
        schedule = MultiTaskSchedule(rows)
        packed = PackedProblem.compile(system, seqs)
        reference = sync_switch_cost(
            system, seqs, schedule, w=1.0, public=public
        )
        assert packed.cost(rows, w=1.0, public=public) == reference

    def test_empty_instance_costs_w(self):
        universe = SwitchUniverse.of_size(70)
        system = TaskSystem.from_contiguous(universe, [35, 35])
        seqs = [RequirementSequence(universe, []) for _ in range(2)]
        packed = PackedProblem.compile(system, seqs)
        assert packed.cost([[], []], w=3.5) == 3.5

    def test_matches_rejects_other_instances(self):
        universe = SwitchUniverse.of_size(10)
        system = TaskSystem.from_contiguous(universe, [5, 5])
        seqs = [RequirementSequence(universe, [1, 2]) for _ in range(2)]
        other = [RequirementSequence(universe, [1, 3]) for _ in range(2)]
        packed = PackedProblem.compile(system, seqs)
        assert packed.matches(system, seqs)
        assert not packed.matches(system, other)
        assert not packed.matches(system, seqs, ALL_MODELS[3])


# Widths of the sweep property: one lane, both sides of the 64- and
# 128-bit boundaries, and a fourth lane.
SWEEP_WIDTHS = [1, 63, 64, 65, 128, 129, 200]


@st.composite
def populations(draw):
    """Random ``(system, seqs, pop)``: up to 8 chromosomes over up to 4
    tasks and 40 steps, task costs that are not whole numbers."""
    width = draw(st.sampled_from(SWEEP_WIDTHS))
    universe = SwitchUniverse.of_size(width)
    m = draw(st.integers(min_value=1, max_value=min(4, width)))
    n = draw(st.integers(min_value=1, max_value=40))
    P = draw(st.integers(min_value=1, max_value=8))
    rng = make_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    carved = TaskSystem.from_contiguous(
        universe, [width // m + (1 if k < width % m else 0) for k in range(m)]
    )
    system = TaskSystem(universe, [
        Task(task.name, task.local, init_cost=float(rng.uniform(0.1, 9.0)))
        for task in carved.tasks
    ])
    density = draw(st.sampled_from([0.05, 0.3, 0.9]))

    def mask():
        bits = rng.random(width) < density
        return sum(1 << int(b) for b in np.flatnonzero(bits))

    seqs = [
        RequirementSequence(universe, [mask() for _ in range(n)])
        for _ in range(m)
    ]
    pop = rng.random((P, m, n)) < draw(st.sampled_from([0.1, 0.4, 0.8]))
    pop[:, :, 0] = True
    return system, seqs, pop, rng


class TestLoopFreeSweep:
    @settings(deadline=None, max_examples=40)
    @given(populations())
    def test_block_unions_match_the_schedule_oracle(self, drawn):
        system, seqs, pop, _ = drawn
        packed = PackedProblem.compile(system, seqs)
        unions = packed.block_union_lanes(pop)
        assert unions.shape == pop.shape + (packed.lane_count,)
        for p in range(len(pop)):
            schedule = MultiTaskSchedule(pop[p].tolist())
            assert lanes_to_masks(unions[p]) == schedule.block_union_masks(seqs)

    @settings(deadline=None, max_examples=30)
    @given(populations(), st.data())
    def test_population_cost_is_the_reference_bit_for_bit(self, drawn, data):
        """Every upload-mode combination, plain, changeover with fixed
        costs and with a public row."""
        system, seqs, pop, rng = drawn
        m, n = system.m, len(seqs[0])
        universe = system.universe
        cfix = tuple(float(x) for x in rng.uniform(0.0, 5.0, m))
        public = PublicGlobalPlan(
            seq=RequirementSequence(universe, [
                int(rng.integers(0, 2**min(universe.size, 62)))
                for _ in range(n)
            ]),
            hyper_steps=tuple(
                [0] + [i for i in range(1, n) if rng.random() < 0.3]
            ),
            v=float(rng.uniform(0.1, 9.0)),
        )
        variant = data.draw(st.sampled_from(["plain", "changeover", "public"]))
        kwargs = {
            "plain": {},
            "changeover": dict(changeover=True, changeover_fixed=cfix),
            "public": dict(public=public),
        }[variant]
        w = float(rng.uniform(0.0, 4.0))
        for model in ALL_MODELS:
            packed = PackedProblem.compile(system, seqs, model)
            got = packed.population_cost(pop, w=w, **kwargs)
            want = [
                sync_switch_cost(
                    system, seqs, MultiTaskSchedule(chrom.tolist()), model,
                    w=w, **kwargs,
                )
                for chrom in pop
            ]
            assert got.tolist() == want


class TestDeltaOnPackedInit:
    def test_delta_trajectory_bit_identical_beyond_64_switches(self):
        """DeltaEvaluator seeded from the packed compiler stays exact on
        a 150-switch (3-lane) universe through a random move mix."""
        from repro.solvers.mt_annealing import AnnealParams, _propose

        universe = SwitchUniverse.of_size(150)
        system = TaskSystem.from_contiguous(universe, [50, 50, 50])
        rng = make_rng(11)
        n = 30
        seqs = [
            RequirementSequence(
                universe,
                [
                    int.from_bytes(rng.bytes(19), "little")
                    & universe.full_mask
                    for _ in range(n)
                ],
            )
            for _ in range(3)
        ]
        rows = [
            [True] + [bool(x) for x in rng.random(n - 1) < 0.2]
            for _ in range(3)
        ]
        fast = make_evaluator(system, seqs, rows, changeover=True)
        slow = make_evaluator(system, seqs, rows, use_delta=False, changeover=True)
        assert fast.cost == slow.cost
        params = AnnealParams()
        applied = 0
        while applied < 60:
            changes = _propose(
                fast.rows, 3, n, rng.random, rng.integers,
                params.p_flip, params.p_flip + params.p_align,
            )
            if changes is None:
                continue
            applied += 1
            a, b = fast.apply_changes(changes), slow.apply_changes(changes)
            assert a == b
            if applied % 3 == 0:
                fast.revert(), slow.revert()
            if applied % 10 == 0:
                assert fast.cost == fast.reference_cost()
        assert fast.rows == slow.rows


class TestPackedSequenceAndWindows:
    @settings(deadline=None, max_examples=25)
    @given(universe_sizes, st.data())
    def test_single_task_cost_models_bit_identical(self, size, data):
        universe = SwitchUniverse.of_size(size)
        n = data.draw(st.integers(min_value=1, max_value=8))
        masks = [
            data.draw(st.integers(min_value=0, max_value=universe.full_mask))
            for _ in range(n)
        ]
        seq = RequirementSequence(universe, masks)
        extra = data.draw(
            st.sets(st.integers(min_value=1, max_value=max(1, n - 1)))
        )
        schedule = SingleTaskSchedule(
            n=n, hyper_steps=tuple(sorted({0} | {s for s in extra if s < n}))
        )
        ps = PackedSequence.compile(seq)
        w = data.draw(st.floats(min_value=0.5, max_value=9.0, allow_nan=False))
        initial = data.draw(
            st.integers(min_value=0, max_value=universe.full_mask)
        )
        assert ps.switch_cost(schedule, w) == switch_cost(seq, schedule, w)
        assert switch_cost(seq, schedule, w, packed=ps) == switch_cost(
            seq, schedule, w
        )
        assert ps.changeover_cost(
            schedule, w, initial
        ) == switch_cost_changeover(seq, schedule, w, initial)
        assert switch_cost_changeover(
            seq, schedule, w, initial, packed=ps
        ) == switch_cost_changeover(seq, schedule, w, initial)
        assert ps.window_union_sizes() == seq.window_union_sizes()

    def test_async_cost_packed_path(self):
        universe = SwitchUniverse.of_size(80)
        system = TaskSystem.from_contiguous(universe, [40, 40])
        rng = make_rng(3)
        n = 12
        seqs = [
            RequirementSequence(
                universe,
                [
                    int.from_bytes(rng.bytes(10), "little")
                    & universe.full_mask
                    for _ in range(n)
                ],
            )
            for _ in range(2)
        ]
        schedules = [
            SingleTaskSchedule(n=n, hyper_steps=(0, 4)),
            SingleTaskSchedule(n=n, hyper_steps=(0, 7, 9)),
        ]
        packed = [PackedSequence.compile(s) for s in seqs]
        assert async_switch_cost(
            system, seqs, schedules, w=2.0, packed=packed
        ) == async_switch_cost(system, seqs, schedules, w=2.0)

    @settings(deadline=None, max_examples=20)
    @given(universe_sizes, st.data())
    def test_window_table_matches_union_mask(self, size, data):
        universe = SwitchUniverse.of_size(size)
        n = data.draw(st.integers(min_value=1, max_value=9))
        seqs = [
            RequirementSequence(
                universe,
                [
                    data.draw(
                        st.integers(min_value=0, max_value=universe.full_mask)
                    )
                    for _ in range(n)
                ],
            )
            for _ in range(2)
        ]
        windows = PackedWindows.from_sequences(seqs)
        for start in range(n + 1):
            for stop in range(start, n + 1):
                assert windows.union_masks(start, stop) == [
                    s.union_mask(start, stop) for s in seqs
                ]


class TestCompatibilityAliases:
    """The bitset helpers delegate to repro.core.packed, and the packed
    problem keeps the lane layout and values the batched GA kernel was
    first pinned to."""

    def test_bitset_u64_helpers_delegate(self):
        masks = [0, 5, (1 << 64) - 1]
        np.testing.assert_array_equal(
            bitset.masks_to_u64(masks), packed_mod.masks_to_u64(masks)
        )
        with pytest.raises(ValueError):
            bitset.masks_to_u64([1 << 64])
        assert bitset.u64_to_mask(np.uint64(7)) == 7

    def test_legacy_kernel_layout_and_values(self):
        universe = SwitchUniverse.of_size(70)
        system = TaskSystem.from_contiguous(universe, [35, 35])
        rng = make_rng(9)
        n = 6
        seqs = [
            RequirementSequence(
                universe,
                [
                    int.from_bytes(rng.bytes(8), "little") & universe.full_mask
                    for _ in range(n)
                ],
            )
            for _ in range(2)
        ]
        lanes = packed_mod.pack_requirements(seqs)
        assert lanes.shape == (2, n, 2)  # (m, n, L) orientation
        pop = rng.random((4, 2, n)) < 0.4
        pop[:, :, 0] = True
        costs = packed_mod.PackedProblem(
            lanes, np.asarray(system.v)
        ).population_cost(pop)
        for k in range(4):
            assert costs[k] == sync_switch_cost(
                system, seqs, MultiTaskSchedule(pop[k].tolist())
            )


class TestEngineCompileOnce:
    def test_one_compile_serves_solvers_and_duplicates(self):
        from repro.analysis.sweeps import make_instance
        from repro.engine import BatchEngine, SolveRequest

        system, seqs = make_instance(2, 8, 4, seed=0)
        engine = BatchEngine()
        requests = [SolveRequest.multi(system, seqs, solver="mt_greedy")] * 3 + [
            SolveRequest.multi(system, seqs, solver="mt_annealing", seed=1),
            SolveRequest.multi(system, seqs, solver="mt_branch_bound"),
        ]
        results = engine.solve_batch(requests)
        assert all(r.ok for r in results)
        # One structural problem → one compile; the other packed-capable
        # solvers (different cache keys, same problem) reuse it.
        assert engine.metrics.packed_compiles == 1
        assert engine.metrics.packed_reuses == 2
        snap = engine.metrics.snapshot()
        assert snap["packed"] == {
            "compiles": 1,
            "reuses": 2,
            "bytes_shipped": 0,  # inline solve: nothing crossed a process
            "bytes_shared": 0,
        }
        assert "packed problems" in engine.metrics.format_report()

    def test_exact_dp_requests_skip_packing(self):
        from repro.analysis.sweeps import make_instance
        from repro.engine import BatchEngine, SolveRequest

        system, seqs = make_instance(2, 6, 3, seed=1)
        engine = BatchEngine()
        result = engine.solve(
            SolveRequest.multi(system, seqs, solver="mt_exact")
        )
        assert result.ok
        assert engine.metrics.packed_compiles == 0


class TestGeneticVariantPaths:
    def test_changeover_runs_batched_and_finds_the_optimum(self):
        """Acceptance: the GA optimizes changeover=True on the batched
        packed path — zero per-chromosome reference fallbacks — and
        matches brute force on an exhaustively checkable instance."""
        from itertools import product

        from repro.solvers.mt_genetic import GAParams, solve_mt_genetic

        universe = SwitchUniverse.of_size(8)
        system = TaskSystem.from_contiguous(universe, [4, 4])
        seqs = [
            RequirementSequence(universe, [3, 1, 8, 2]),
            RequirementSequence(universe, [0x30, 0x10, 0x80, 0x20]),
        ]
        cfix = (0.5, 1.5)
        best = min(
            sync_switch_cost(
                system,
                seqs,
                MultiTaskSchedule(
                    [[True, *bits[:3]], [True, *bits[3:]]]
                ),
                changeover=True,
                changeover_fixed=cfix,
            )
            for bits in product([False, True], repeat=6)
        )
        result = solve_mt_genetic(
            system,
            seqs,
            params=GAParams(
                population_size=32, generations=80, stall_generations=40
            ),
            seed=0,
            changeover=True,
            changeover_fixed=cfix,
        )
        assert result.stats["delta_full_evals"] == 0
        assert result.stats["delta_applies"] > 0
        assert result.cost == pytest.approx(best)

    def test_public_global_runs_batched(self):
        from repro.solvers.mt_genetic import GAParams, solve_mt_genetic

        universe = SwitchUniverse.of_size(12)
        system = TaskSystem.from_contiguous(universe, [4, 4])
        seqs = [
            RequirementSequence(universe, [1, 2, 4, 8, 1]),
            RequirementSequence(universe, [0x30, 0x10, 0x80, 0x20, 0x40]),
        ]
        public = PublicGlobalPlan(
            seq=RequirementSequence(universe, [0x300, 0x100, 0x200, 0, 0x300]),
            hyper_steps=(0, 3),
            v=2.0,
        )
        result = solve_mt_genetic(
            system,
            seqs,
            params=GAParams(
                population_size=16, generations=40, stall_generations=20
            ),
            seed=1,
            public=public,
        )
        assert result.stats["delta_full_evals"] == 0
        assert result.cost == sync_switch_cost(
            system, seqs, result.schedule, public=public
        )
