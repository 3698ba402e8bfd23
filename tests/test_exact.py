"""Differential suite for the exact-OPT engine and the shared-memory backend.

The two tentpoles of this layer are pinned here:

* ``repro.lp.exact`` — the subset-memoized branch-and-bound must produce
  *exactly* the optimum of the full ``n!`` ordering enumeration on every
  ragged batch Hypothesis can build, on every backend, and its internal
  bounds must genuinely bracket the ordered-LP values (floors below, greedy
  fill above);
* ``repro.exec.shm`` — sweeps dispatched through the zero-copy
  shared-memory pool must return *bit-for-bit* the results of the pickling
  pool and of the serial path, and large maps must issue O(workers)
  submissions.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.greedy_homogeneous import (
    homogeneous_greedy_value,
    homogeneous_greedy_values_batch,
)
from repro.algorithms.optimal import optimal_value
from repro.batch.kernels import combined_lower_bound_batch
from repro.batch.runner import CHUNKS_PER_WORKER, BatchRunner
from repro.core.batch import InstanceBatch
from repro.core.bounds import times_close
from repro.core.exceptions import InvalidInstanceError, SolverError
from repro.core.instance import Instance, Task
from repro.exec import ExecutionContext
from repro.exec.shm import attach_batch, publish_batch
from repro.lp.batch import OPTIMAL_METHODS, optimal, solve_ordered_relaxation_batch
from repro.lp.exact import (
    MAX_BRANCH_AND_BOUND_TASKS,
    _greedy_fill_values,
    _tail_completion_floors,
    branch_and_bound_optimal_batch,
    permutation_table,
)
from repro.lp.interface import solve_ordered_relaxation
from repro.workloads.generators import uniform_instances

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def instances(draw, min_tasks: int = 1, max_tasks: int = 5):
    """One random instance with well-conditioned parameters."""
    n = draw(st.integers(min_tasks, max_tasks))
    P = draw(st.floats(0.5, 4.0, **finite))
    tasks = []
    for _ in range(n):
        volume = draw(st.floats(0.05, 10.0, **finite))
        weight = draw(st.floats(0.05, 10.0, **finite))
        delta = draw(st.floats(0.05, 1.5, **finite)) * P
        tasks.append(Task(volume=volume, weight=weight, delta=delta))
    return Instance(P=P, tasks=tasks)


@st.composite
def instance_batches(draw, max_batch: int = 4, max_tasks: int = 5):
    """A ragged batch of random instances (padding is exercised)."""
    return draw(st.lists(instances(max_tasks=max_tasks), min_size=1, max_size=max_batch))


# --------------------------------------------------------------------- #
# Branch-and-bound vs exhaustive enumeration
# --------------------------------------------------------------------- #


class TestBranchAndBoundMatchesEnumeration:
    @settings(max_examples=12, deadline=None)
    @given(instance_batches())
    def test_hypothesis_ragged_batches(self, insts):
        batch = InstanceBatch.from_instances(insts)
        engine = optimal(batch, method="branch-and-bound")
        reference = optimal(batch, method="enumerate")
        assert np.all(
            times_close(engine.objectives, reference.objectives, rtol=1e-6, atol=1e-8)
        )
        # The engine's winning orders must achieve its values.
        for b, inst in enumerate(insts):
            order = [int(t) for t in engine.orders[b, : inst.n]]
            achieved = solve_ordered_relaxation(inst, order, build_schedule=False).objective
            assert achieved == pytest.approx(engine.objectives[b], rel=1e-6, abs=1e-8)

    @settings(max_examples=6, deadline=None)
    @given(instances(min_tasks=2, max_tasks=5))
    def test_matches_scalar_bruteforce(self, inst):
        batch = InstanceBatch.from_instances([inst])
        engine = branch_and_bound_optimal_batch(batch)
        assert engine.objectives[0] == pytest.approx(optimal_value(inst), rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("n", [6, 7])
    def test_up_to_seven_tasks(self, n):
        insts = list(uniform_instances(n, 2, rng=np.random.default_rng(100 + n)))
        batch = InstanceBatch.from_instances(insts)
        engine = optimal(batch, method="branch-and-bound")
        reference = optimal(batch, method="enumerate")
        np.testing.assert_allclose(engine.objectives, reference.objectives, rtol=1e-6, atol=1e-8)
        assert engine.orderings_evaluated < reference.orderings_evaluated

    @pytest.mark.parametrize("backend", ["batch", "scipy"])
    def test_all_backends_agree(self, backend):
        insts = list(uniform_instances(4, 3, rng=np.random.default_rng(7)))
        insts.append(next(uniform_instances(2, 1, rng=np.random.default_rng(8))))
        batch = InstanceBatch.from_instances(insts)
        engine = branch_and_bound_optimal_batch(batch, backend=backend)
        reference = optimal(batch, method="enumerate")
        np.testing.assert_allclose(engine.objectives, reference.objectives, rtol=1e-6, atol=1e-8)

    def test_process_pool_dispatch(self):
        insts = list(uniform_instances(3, 4, rng=np.random.default_rng(11)))
        batch = InstanceBatch.from_instances(insts)
        with ExecutionContext(backend="process-pool", workers=2) as ctx:
            pooled = branch_and_bound_optimal_batch(batch, backend="scipy", ctx=ctx)
        serial = branch_and_bound_optimal_batch(batch, backend="scipy")
        np.testing.assert_allclose(pooled.objectives, serial.objectives, rtol=1e-9)

    def test_chunk_size_is_forwarded_and_lossless(self):
        insts = list(uniform_instances(4, 5, rng=np.random.default_rng(19)))
        batch = InstanceBatch.from_instances(insts)
        whole = optimal(batch, method="branch-and-bound")
        chunked = optimal(batch, method="branch-and-bound", chunk_size=2)
        np.testing.assert_allclose(whole.objectives, chunked.objectives, rtol=1e-9)

    def test_empty_and_single_task_rows(self):
        batch = InstanceBatch.from_arrays(
            P=[1.0, 2.0],
            volumes=[[1.0, 0.0], [2.0, 3.0]],
            weights=[[1.0, 0.0], [1.0, 2.0]],
            deltas=[[0.5, 1.0], [1.0, 2.0]],
            mask=[[True, False], [True, True]],
        )
        engine = branch_and_bound_optimal_batch(batch)
        reference = optimal(batch, method="enumerate")
        np.testing.assert_allclose(engine.objectives, reference.objectives, rtol=1e-6)

    def test_stats_account_for_the_search(self):
        insts = list(uniform_instances(5, 2, rng=np.random.default_rng(3)))
        batch = InstanceBatch.from_instances(insts)
        engine = branch_and_bound_optimal_batch(batch)
        stats = engine.stats
        assert stats.lps_solved == engine.orderings_evaluated > 0
        assert stats.nodes_expanded > 0 and stats.frontier_peak > 0


class TestEngineGuardsAndModes:
    def test_task_guard(self):
        batch = InstanceBatch.from_instances(
            [Instance.from_arrays(P=1.0, volumes=[1.0] * (MAX_BRANCH_AND_BOUND_TASKS + 1))]
        )
        with pytest.raises(InvalidInstanceError):
            branch_and_bound_optimal_batch(batch)

    def test_unknown_backend_and_method(self):
        batch = InstanceBatch.from_instances([Instance.from_arrays(P=1.0, volumes=[1.0])])
        with pytest.raises(SolverError):
            branch_and_bound_optimal_batch(batch, backend="bogus")
        with pytest.raises(SolverError):
            optimal(batch, method="bogus")

    def test_permutation_table_guard_and_cache(self):
        table = permutation_table(4)
        assert table.shape == (24, 4)
        assert permutation_table(4) is table  # small tables are cached
        with pytest.raises(InvalidInstanceError):
            permutation_table(-1)
        with pytest.raises(ValueError):
            table[0, 0] = 1  # read-only
        big = permutation_table(9)
        assert big.shape[0] == 362_880
        assert permutation_table(9) is not big  # large tables are not retained

    def test_optimal_methods_vocabulary(self):
        assert set(OPTIMAL_METHODS) == {"branch-and-bound", "enumerate"}

    def test_optimal_matches_enumeration_and_dominates_lemma1_bound(self):
        insts = list(uniform_instances(4, 3, rng=np.random.default_rng(23)))
        batch = InstanceBatch.from_instances(insts)
        exact = optimal(batch).objectives
        reference = optimal(batch, method="enumerate").objectives
        np.testing.assert_allclose(exact, reference, rtol=1e-6, atol=1e-8)
        combined = combined_lower_bound_batch(batch)
        assert np.all(combined <= exact + 1e-6 * np.maximum(1.0, exact))


# --------------------------------------------------------------------- #
# The engine's internal bounds really bracket the LP
# --------------------------------------------------------------------- #


class TestBoundsBracketTheLP:
    @settings(max_examples=10, deadline=None)
    @given(instances(min_tasks=2, max_tasks=5), st.integers(0, 2**16))
    def test_floors_below_and_greedy_above(self, inst, seed):
        n = inst.n
        order = np.random.default_rng(seed).permutation(n)
        solution = solve_ordered_relaxation(inst, order, build_schedule=False)
        batch = InstanceBatch.from_instances([inst])
        P = np.asarray(batch.P, dtype=float)
        volumes = batch.volumes[:, :n]
        weights = batch.weights[:, :n]
        deltas = batch.deltas[:, :n]
        heights = volumes / deltas
        floors = _tail_completion_floors(
            P, volumes, heights, deltas,
            np.zeros((1, n), dtype=bool), order[None, :], np.zeros(1), np.zeros(1),
        )
        slack = 1e-7 * np.maximum(1.0, np.abs(solution.completion_times))
        assert np.all(floors[0] <= solution.completion_times + slack)
        upper = _greedy_fill_values(P, volumes, weights, deltas, order[None, :])
        assert upper[0] >= solution.objective - 1e-7 * max(1.0, solution.objective)


# --------------------------------------------------------------------- #
# Vectorized ordering analysis (E3's port off itertools.permutations)
# --------------------------------------------------------------------- #


class TestHomogeneousBatchEvaluator:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2**16))
    def test_bitwise_equal_to_scalar_recurrence(self, n, seed):
        rng = np.random.default_rng(seed)
        deltas = rng.uniform(0.5, 1.0, size=n)
        perms = permutation_table(n)
        batch_values = homogeneous_greedy_values_batch(deltas, perms)
        for row, order in enumerate(itertools.permutations(range(n))):
            assert batch_values[row] == homogeneous_greedy_value(deltas, order)

    def test_rejects_non_permutations(self):
        from repro.core.exceptions import InvalidScheduleError

        with pytest.raises(InvalidScheduleError):
            homogeneous_greedy_values_batch([0.6, 0.8], np.array([[0, 0]]))


# --------------------------------------------------------------------- #
# Shared-memory backend: identical results, O(workers) submissions
# --------------------------------------------------------------------- #


def _per_row_bounds(sub_batch):
    return combined_lower_bound_batch(sub_batch)


def _per_row_weighted_volume(sub_batch, extra):
    scale = extra["scale"]
    return np.where(sub_batch.mask, sub_batch.weights * sub_batch.volumes, 0.0).sum(axis=1) * scale


class TestSharedMemoryBackend:
    def _batch(self, B=64, n=6, seed=31):
        rng = np.random.default_rng(seed)
        return InstanceBatch.from_arrays(
            P=rng.uniform(1.0, 4.0, B),
            volumes=rng.uniform(0.1, 1.0, (B, n)),
            weights=rng.uniform(0.1, 1.0, (B, n)),
            deltas=rng.uniform(0.05, 1.0, (B, n)),
        )

    def test_publish_attach_roundtrip(self):
        batch = self._batch(B=5)
        with publish_batch(batch, marker=np.arange(5.0)) as shared:
            attached, extra, segment = attach_batch(shared.handle)
            try:
                np.testing.assert_array_equal(attached.volumes, batch.volumes)
                np.testing.assert_array_equal(attached.P, batch.P)
                np.testing.assert_array_equal(attached.mask, batch.mask)
                np.testing.assert_array_equal(extra["marker"], np.arange(5.0))
                assert shared.handle.batch_size == 5
                with pytest.raises(ValueError):
                    attached.volumes[0, 0] = 1.0  # read-only views
            finally:
                segment.close()
        shared.close()  # idempotent

    def test_extra_name_collision_rejected(self):
        batch = self._batch(B=2)
        with pytest.raises(ValueError):
            publish_batch(batch, volumes=np.zeros(2))

    def test_map_batch_identical_across_backends(self):
        batch = self._batch()
        with ExecutionContext() as serial_ctx:
            serial = serial_ctx.map_batch(_per_row_bounds, batch)
        with ExecutionContext(backend="process-pool", workers=2) as pick_ctx:
            pickled = pick_ctx.map_batch(_per_row_bounds, batch)
            assert 0 < pick_ctx.runner.last_submission_count <= 2 * CHUNKS_PER_WORKER
        with ExecutionContext(backend="process-pool", workers=2, shm=True) as shm_ctx:
            shm = shm_ctx.map_batch(_per_row_bounds, batch)
            assert 0 < shm_ctx.runner.last_submission_count <= 2 * CHUNKS_PER_WORKER
        assert np.array_equal(np.asarray(serial), np.asarray(pickled))
        assert np.array_equal(np.asarray(serial), np.asarray(shm))

    def test_map_batch_extra_arrays_and_published_reuse(self):
        batch = self._batch(B=16)
        scale = np.full(16, 2.0)
        with ExecutionContext() as serial_ctx:
            reference = serial_ctx.map_batch(_per_row_weighted_volume, batch, extra={"scale": scale})
        with ExecutionContext(backend="process-pool", workers=2, shm=True) as ctx:
            direct = ctx.map_batch(_per_row_weighted_volume, batch, extra={"scale": scale})
            with ctx.publish(batch, scale=scale) as shared:
                reused_a = ctx.map_batch(_per_row_weighted_volume, shared)
                reused_b = ctx.map_batch(_per_row_weighted_volume, shared)
        assert np.array_equal(np.asarray(reference), np.asarray(direct))
        assert np.array_equal(np.asarray(reference), np.asarray(reused_a))
        assert np.array_equal(np.asarray(reference), np.asarray(reused_b))

    def test_map_batch_validates_inputs(self):
        batch = self._batch(B=4)
        with ExecutionContext() as ctx:
            with pytest.raises(TypeError):
                ctx.map_batch(_per_row_bounds, [1, 2, 3])
            with pytest.raises(ValueError):
                ctx.map_batch(_per_row_weighted_volume, batch, extra={"scale": np.zeros(3)})

    def test_lp_scalar_dispatch_shm_equals_serial(self):
        insts = list(uniform_instances(4, 12, rng=np.random.default_rng(2)))
        batch = InstanceBatch.from_instances(insts)
        serial = solve_ordered_relaxation_batch(batch, backend="scipy")
        with ExecutionContext(backend="process-pool", workers=2, shm=True) as ctx:
            shm = solve_ordered_relaxation_batch(batch, backend="scipy", ctx=ctx)
        assert np.array_equal(serial.objectives, shm.objectives)
        assert np.array_equal(serial.completion_times, shm.completion_times)

    def test_sweep_summaries_identical_shm_vs_pickling(self):
        from repro.scenarios import ScenarioSpec, SweepRunner

        spec = ScenarioSpec(
            name="shm-equality",
            generator="uniform_instances",
            grid={"n": [3, 4]},
            count=3,
            policies=("WDEQ",),
        )
        with ExecutionContext(seed=5, backend="process-pool", workers=2) as pick_ctx:
            pickled = SweepRunner(spec, pick_ctx).run()
        with ExecutionContext(seed=5, backend="process-pool", workers=2, shm=True) as shm_ctx:
            shm = SweepRunner(spec, shm_ctx).run()
        assert pickled.records == shm.records
        assert pickled.rows == shm.rows


class TestAdaptiveChunking:
    def test_large_maps_issue_o_workers_submissions(self):
        runner = BatchRunner(workers=4, executor="thread")
        try:
            items = list(range(10_000))
            result = runner.map(lambda x: x * 3, items)
            assert result == [x * 3 for x in items]
            assert 0 < runner.last_submission_count <= 4 * CHUNKS_PER_WORKER
        finally:
            runner.close()

    def test_small_maps_stay_inline(self):
        runner = BatchRunner(workers=4, executor="thread")
        try:
            assert runner.map(lambda x: x + 1, [41]) == [42]
            assert runner.last_submission_count == 0
        finally:
            runner.close()

    def test_exceptions_propagate(self):
        def boom(x):
            raise RuntimeError("boom")

        runner = BatchRunner(workers=2, executor="thread")
        try:
            with pytest.raises(RuntimeError, match="boom"):
                runner.map(boom, list(range(100)))
        finally:
            runner.close()
