"""Differential suite for the exact-OPT engine and the shared-memory backend.

The two tentpoles of this layer are pinned here:

* ``repro.lp.exact`` — the subset-memoized branch-and-bound must produce
  *exactly* the optimum of the full ``n!`` ordering enumeration on every
  ragged batch Hypothesis can build, on every backend, and its internal
  bounds must genuinely bracket the ordered-LP values (floors below, the
  Algorithm 3 value of the same completion order above);
* ``repro.exec.shm`` — batch maps dispatched through the zero-copy
  shared-memory pool must return *bit-for-bit* the results of the serial
  path, publish once per call, and large maps must issue O(workers)
  submissions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.greedy import greedy_completion_times_batch
from repro.algorithms.greedy_homogeneous import (
    homogeneous_greedy_completion_times,
    homogeneous_instance,
)
from repro.batch.kernels import combined_lower_bound_batch
from repro.core.batch import InstanceBatch
from repro.core.bounds import times_close
from repro.core.exceptions import InvalidInstanceError, SolverError
from repro.core.instance import Instance, Task
from repro.core.validation import validate_column_schedule
from repro.exec import CHUNKS_PER_WORKER, ExecutionContext, chunk_ranges, shm
from repro.exec.shm import apply_rows, attach_arrays, publish_batch
from repro.lp.batch import OPTIMAL_METHODS, optimal, solve_ordered_relaxation_batch
from repro.lp.exact import (
    MAX_BRANCH_AND_BOUND_TASKS,
    ExactSearchStats,
    _require_optimal,
    _tail_completion_floors,
    branch_and_bound_optimal_batch,
    permutation_table,
)
from repro.lp.interface import solve_ordered_relaxation
from repro.lp.simplex import _INFEAS_TOL, _primal_residual, solve_linear_program_batch
from repro.workloads import generators
from repro.workloads.generators import cluster_instances, uniform_instances
from tests.oracles import bruteforce_opt

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
        assert engine.objectives[0] == pytest.approx(bruteforce_opt(inst), rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("n", [6, 7])
    def test_up_to_seven_tasks(self, n):
        insts = list(uniform_instances(n, 2, rng=np.random.default_rng(100 + n)))
        batch = InstanceBatch.from_instances(insts)
        engine = optimal(batch, method="branch-and-bound")
        reference = optimal(batch, method="enumerate")
        np.testing.assert_allclose(engine.objectives, reference.objectives, rtol=1e-6, atol=1e-8)
        assert engine.orderings_evaluated < reference.orderings_evaluated

    def test_matches_enumeration_on_a_ragged_batch(self):
        insts = list(uniform_instances(4, 3, rng=np.random.default_rng(7)))
        insts.append(next(uniform_instances(2, 1, rng=np.random.default_rng(8))))
        batch = InstanceBatch.from_instances(insts)
        engine = branch_and_bound_optimal_batch(batch)
        reference = optimal(batch, method="enumerate")
        np.testing.assert_allclose(engine.objectives, reference.objectives, rtol=1e-6, atol=1e-8)

    def test_process_pool_dispatch(self):
        # n = 9: the HiGHS solves of the surviving leaves are sharded over
        # the workers; n = 5: the lockstep kernel runs in-process.
        for n, sharded in ((9, True), (5, False)):
            batch = InstanceBatch.from_instances(
                list(cluster_instances(n, 2, P=128.0, rng=np.random.default_rng(11)))
            )
            serial = branch_and_bound_optimal_batch(batch)
            if sharded:
                assert serial.stats.lps_solved > 0  # else there is nothing to shard
            with ExecutionContext(backend="process-pool", workers=2) as ctx:
                pooled = branch_and_bound_optimal_batch(batch, ctx=ctx)
                assert (ctx.last_submission_count > 0) == sharded, n
                assert (ctx.coordinator is not None) == sharded  # n = 5 forks no node
            assert np.array_equal(pooled.objectives, serial.objectives)
            assert np.array_equal(pooled.orders, serial.orders)
            assert pooled.stats == serial.stats

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
        assert stats.greedy_calls >= 1 and stats.greedy_rows >= stats.greedy_calls

    #: sum(delta) <= P: every task runs at its cap from time 0, which meets
    #: every height floor at once, so the row is settled in closed form.
    CAPS_WITHIN_THE_PLATFORM = dict(
        P=[6.0],
        volumes=[[3.0, 1.0, 4.0, 1.5, 5.0, 9.0]],
        weights=[[2.0, 7.0, 1.0, 8.0, 2.5, 0.5]],
        deltas=[[1.0, 0.5, 2.0, 0.25, 1.5, 0.75]],
    )

    #: Every cap equals P (sum(delta) = nP > P), so the row is searched.
    #: Without caps the platform is one machine of speed P, where Smith's
    #: rule is optimal and the depth-1 bounds (the front's Smith bound plus
    #: V/P for the last task) are exact: every child of the root is pruned.
    UNCAPPED = dict(
        P=[2.0],
        volumes=[[3.0, 1.0, 4.0, 1.5, 5.0, 9.0]],
        weights=[[2.0, 7.0, 1.0, 8.0, 2.5, 0.5]],
        deltas=[[2.0] * 6],
    )

    def test_caps_within_the_platform_need_no_lp(self):
        batch = InstanceBatch.from_arrays(**self.CAPS_WITHIN_THE_PLATFORM)
        engine = branch_and_bound_optimal_batch(batch)
        assert engine.stats.lps_solved == 0
        assert engine.stats.greedy_calls == 0 and engine.stats.nodes_expanded == 0
        heights = batch.volumes / batch.deltas
        assert engine.objectives[0] == pytest.approx((batch.weights * heights).sum(), rel=1e-12)
        assert engine.orders[0].tolist() == np.argsort(heights[0], kind="stable").tolist()

    def test_a_search_ending_at_depth_one_makes_one_greedy_call(self):
        # The seeds and the depth-1 refresh (each task last) share one
        # Algorithm 3 kernel call; the root's children are all pruned.
        batch = InstanceBatch.from_arrays(**self.UNCAPPED)
        assert batch.deltas.sum() > batch.P[0]
        stats = branch_and_bound_optimal_batch(batch).stats
        n = batch.n_max
        assert stats.nodes_expanded == 1 and stats.pruned == n
        assert stats.greedy_calls == 1
        assert stats.greedy_rows == 6 + n  # six heuristic seeds, n refresh orders

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_caps_within_the_platform_match_enumeration_and_bruteforce(self, data):
        # Caps are multiples of P/64, so their sums are exact and the
        # boundary sum(delta) == P is drawn as often as the rows below it.
        rows = data.draw(st.integers(1, 3))
        n_max = data.draw(st.integers(1, 6))
        P = np.array([data.draw(st.integers(1, 16)) / 4.0 for _ in range(rows)])
        volumes, weights, deltas = (np.zeros((rows, n_max)) for _ in range(3))
        mask = np.zeros((rows, n_max), dtype=bool)
        for r in range(rows):
            n = data.draw(st.integers(1, n_max))
            parts = data.draw(st.lists(st.integers(1, 64 // n_max), min_size=n, max_size=n))
            if data.draw(st.booleans()):
                parts[-1] = 64 - sum(parts[:-1])  # sum(delta) == P exactly
            deltas[r, :n] = P[r] * np.array(parts) / 64.0
            volumes[r, :n] = data.draw(
                st.lists(st.floats(0.05, 10.0, **finite) | st.just(0.0), min_size=n, max_size=n)
            )
            weights[r, :n] = data.draw(
                st.lists(st.floats(0.05, 10.0, **finite) | st.just(0.0), min_size=n, max_size=n)
            )
            mask[r, :n] = True
        batch = InstanceBatch.from_arrays(P=P, volumes=volumes, weights=weights, deltas=deltas, mask=mask)
        assert np.all(np.where(mask, deltas, 0.0).sum(axis=1) <= P)
        engine = branch_and_bound_optimal_batch(batch)
        assert engine.stats == ExactSearchStats()  # no row was searched
        reference = optimal(batch, method="enumerate")
        assert np.all(times_close(engine.objectives, reference.objectives, rtol=1e-9, atol=1e-9))
        for r in range(rows):
            n = int(mask[r].sum())
            # The task-space oracle needs positive volumes; n <= 4 keeps it fast.
            if n <= 4 and np.all(volumes[r, :n] > 0):
                value = bruteforce_opt(batch.instance(r))
                assert engine.objectives[r] == pytest.approx(value, rel=1e-9, abs=1e-9)

    def test_mixed_batch_equals_each_row_alone(self):
        # Rows settled in closed form and searched rows side by side: each
        # row's answer is its own, and the search sees only its rows.
        within = list(cluster_instances(6, 6, P=128.0, rng=np.random.default_rng(5)))
        searched = list(uniform_instances(5, 4, rng=np.random.default_rng(5)))
        insts = [inst for pair in zip(within, searched) for inst in pair] + within[4:]
        fits = [sum(t.delta for t in inst.tasks) <= inst.P for inst in insts]
        assert any(fits) and not all(fits)
        mixed = branch_and_bound_optimal_batch(InstanceBatch.from_instances(insts))
        for b, inst in enumerate(insts):
            alone = branch_and_bound_optimal_batch(InstanceBatch.from_instances([inst]))
            assert mixed.objectives[b] == alone.objectives[0]
            assert mixed.orders[b, : inst.n].tolist() == alone.orders[0, : inst.n].tolist()
        searched_only = [inst for inst, fit in zip(insts, fits) if not fit]
        assert mixed.stats == branch_and_bound_optimal_batch(
            InstanceBatch.from_instances(searched_only)
        ).stats

    def test_merge_sums_the_greedy_counters(self):
        total = ExactSearchStats(greedy_calls=2, greedy_rows=30, frontier_peak=4)
        total.merge(ExactSearchStats(greedy_calls=3, greedy_rows=12, frontier_peak=7))
        assert (total.greedy_calls, total.greedy_rows, total.frontier_peak) == (5, 42, 7)


class TestEngineGuardsAndModes:
    def test_task_guard(self):
        batch = InstanceBatch.from_instances(
            [Instance.from_arrays(P=1.0, volumes=[1.0] * (MAX_BRANCH_AND_BOUND_TASKS + 1))]
        )
        with pytest.raises(InvalidInstanceError):
            branch_and_bound_optimal_batch(batch)

    def test_unknown_backend_and_method(self):
        # The problem size picks the LP solver: no exact entry point takes
        # a backend any more.
        batch = InstanceBatch.from_instances([Instance.from_arrays(P=1.0, volumes=[1.0])])
        for backend in ("batch", "scipy", "bogus"):
            with pytest.raises(TypeError, match="backend"):
                branch_and_bound_optimal_batch(batch, backend=backend)  # type: ignore[call-arg]
            with pytest.raises(TypeError, match="backend"):
                optimal(batch, backend=backend)  # type: ignore[call-arg]
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


class TestOptimalSchedules:
    """What E4 and E9 take from the engine: OPT and an optimal schedule."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_optimum_matches_the_highs_oracle(self, n):
        insts = list(generators.large_delta_instances(n, 4, P=1.0, rng=60 + n))
        result = optimal(InstanceBatch.from_instances(insts))
        for inst, value in zip(insts, result.objectives):
            assert value == pytest.approx(bruteforce_opt(inst), rel=1e-9)

    @pytest.mark.parametrize("n", [3, 5])
    def test_resolved_orders_reproduce_the_objectives(self, n):
        # The contract E4 and E9 rely on: the LP of each returned order,
        # re-solved with its rates, is an optimal schedule.
        insts = list(generators.large_delta_instances(n, 4, P=1.0, rng=70 + n))
        insts += list(uniform_instances(n, 4, rng=80 + n))
        batch = InstanceBatch.from_instances(insts)
        result = optimal(batch)
        solution = solve_ordered_relaxation_batch(batch, result.orders, build_schedules=True)
        values = [schedule.weighted_completion_time() for schedule in solution.schedules(insts)]
        np.testing.assert_allclose(values, result.objectives, rtol=1e-9)
        np.testing.assert_allclose(solution.objectives, result.objectives, rtol=1e-9)


# --------------------------------------------------------------------- #
# The engine's internal bounds really bracket the LP
# --------------------------------------------------------------------- #


class TestBoundsBracketTheLP:
    @settings(max_examples=10, deadline=None)
    @given(instances(min_tasks=2, max_tasks=5), st.integers(0, 2**16))
    def test_floors_below_and_greedy_above(self, inst, seed):
        n = inst.n
        rng = np.random.default_rng(seed)
        # The branch-and-bound takes floors of any of the n! orders.
        order = rng.permutation(n)
        solution = solve_ordered_relaxation(inst, order, build_schedule=False)
        batch = InstanceBatch.from_instances([inst])
        P = np.asarray(batch.P, dtype=float)
        volumes = batch.volumes[:, :n]
        deltas = batch.deltas[:, :n]
        heights = volumes / deltas
        floors = _tail_completion_floors(
            P, volumes, heights, deltas,
            np.zeros((1, n), dtype=bool), order[None, :], np.zeros(1), np.zeros(1),
        )
        slack = 1e-7 * np.maximum(1.0, np.abs(solution.completion_times))
        assert np.all(floors[0] <= solution.completion_times + slack)
        # The greedy schedule is feasible for the LP of its completion order.
        placement = rng.permutation(n)
        times = greedy_completion_times_batch(inst.P, inst.volumes, inst.deltas, placement[None, :])[0]
        lp = solve_ordered_relaxation(inst, np.argsort(times, kind="stable"), build_schedule=False)
        upper = float(inst.weights @ times)
        assert upper >= lp.objective - 1e-7 * max(1.0, lp.objective)


# --------------------------------------------------------------------- #
# The Algorithm 3 kernel on the Section V-B instances (E3's landscape)
# --------------------------------------------------------------------- #


class TestHomogeneousGreedyKernel:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2**16))
    def test_matches_section_vb_recurrence(self, n, seed):
        deltas = np.random.default_rng(seed).uniform(0.5, 1.0, size=n)
        inst = homogeneous_instance(deltas)
        perms = permutation_table(n)
        times = greedy_completion_times_batch(inst.P, inst.volumes, inst.deltas, perms)
        for order, row in zip(perms, times):
            # The recurrence lists completion times in scheduling order.
            np.testing.assert_allclose(
                row[order], homogeneous_greedy_completion_times(deltas, order), rtol=1e-12
            )


# --------------------------------------------------------------------- #
# Ill-conditioned caps: the lockstep pivot choice
# --------------------------------------------------------------------- #

#: ``P = 1``, ``V = w = 1``: one cap near 0.003 among caps near 0.2-0.55.
#: Choosing the leaving row by basic index alone among tied ratios picked a
#: pivot near 1e-4 here, and the solve reported "optimal" at a point whose
#: equality rows were off by 6.1 (value 305.727).
ILL_CONDITIONED_DELTAS = [
    0.22333386374738884, 0.0034128132975886397, 0.2183329255406398, 0.32218157723341384,
    0.4398631292771236, 0.44772446514635694, 0.5487962071971568, 0.47467451124902116,
]


class TestIllConditionedCaps:
    instance = Instance(P=1.0, tasks=[Task(1.0, 1.0, d) for d in ILL_CONDITIONED_DELTAS])

    def test_lockstep_lp_matches_highs(self):
        order = np.array([[3, 2, 0, 4, 5, 6, 7, 1]])
        lockstep = solve_ordered_relaxation_batch(InstanceBatch.from_instances([self.instance]), order)
        highs = solve_ordered_relaxation(self.instance, order[0], build_schedule=False).objective
        assert lockstep.objectives[0] == pytest.approx(highs, rel=1e-9)
        assert lockstep.objectives[0] == pytest.approx(329.4584490015172, rel=1e-9)

    def test_caps_within_1e5_of_the_platform(self):
        # Drawn by Hypothesis: two caps equal P and one is 1.3e-5 below it.
        # The minimum-ratio rule pivoted on elements near 1e-5 and then 7e-8
        # here and reported "optimal" at 172.24, 15% below HiGHS.
        inst = Instance(P=1.2725932954287578, tasks=[
            Task(v, w, d) for v, w, d in zip(
                [1.2725932954287578, 8.577043128111425, 8.356189549611033, 0.99999, 8.387523445957912],
                [0.99999, 1.2798220589655938, 6.02531471065368, 2.1033810219653515, 3.869035997209071],
                [0.3808836277045272, 1.2725805694958034, 0.7805344997250306, 1.2725932954287578, 1.2725932954287578],
            )
        ])
        order = np.array([[4, 2, 0, 3, 1]])
        lockstep = solve_ordered_relaxation_batch(InstanceBatch.from_instances([inst]), order)
        highs = solve_ordered_relaxation(inst, order[0], build_schedule=False).objective
        assert lockstep.objectives[0] == pytest.approx(highs, rel=1e-9)

    def test_branch_and_bound_value(self):
        # OPT from the scalar HiGHS enumeration of all 8! orders.
        engine = branch_and_bound_optimal_batch(InstanceBatch.from_instances([self.instance]))
        assert engine.objectives[0] == pytest.approx(328.2162221709155, rel=1e-9)

    def test_residual_check_reports_a_violating_point(self):
        # A point off its rows is "inaccurate", and the exact engine raises on it.
        A_eq, b_eq = np.array([[[1.0, 1.0]]]), np.array([[2.0]])
        result = solve_linear_program_batch(np.array([1.0, 2.0]), A_eq=A_eq, b_eq=b_eq)
        assert result.all_optimal
        assert _primal_residual(A_eq, b_eq, result.x, 0)[0] <= _INFEAS_TOL
        assert _primal_residual(A_eq, b_eq, result.x + 0.5, 0)[0] > _INFEAS_TOL
        result.statuses[0] = "inaccurate"
        with pytest.raises(SolverError, match="inaccurate"):
            _require_optimal(result)


class TestReturnedOrderAchievesTheObjective:
    @pytest.mark.parametrize(
        "family", [name for name in generators.__all__ if name.endswith("_instances")]
    )
    def test_highs_lp_of_the_returned_order(self, family):
        for n in (3, 6, 8) if family == "cluster_instances" else (3, 6):
            insts = list(getattr(generators, family)(n, 2, rng=np.random.default_rng(n)))
            engine = branch_and_bound_optimal_batch(InstanceBatch.from_instances(insts))
            for b, inst in enumerate(insts):
                order = [int(t) for t in engine.orders[b, :n]]
                h = solve_ordered_relaxation(inst, order, build_schedule=False).objective
                assert abs(engine.objectives[b] - h) <= 1e-6 * max(1.0, abs(h)), (family, n, b)

    @pytest.mark.parametrize("n", [7, 9])
    def test_greedy_incumbents_on_cluster_p128(self, n):
        # These rows end on an Algorithm 3 incumbent, whose objective is a
        # greedy value and whose order is the schedule's completion order.
        insts = list(cluster_instances(n, 4, P=128.0, rng=np.random.default_rng(n)))
        engine = branch_and_bound_optimal_batch(InstanceBatch.from_instances(insts))
        assert engine.stats.lps_solved < len(insts)  # some row solved no LP at all
        for b, inst in enumerate(insts):
            order = [int(t) for t in engine.orders[b, :n]]
            h = solve_ordered_relaxation(inst, order, build_schedule=False).objective
            assert abs(engine.objectives[b] - h) <= 1e-6 * max(1.0, abs(h)), (n, b)


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
            handle = shared.handle
            assert [f.name for f in handle.extra] == ["marker"]
            arrays, segment = attach_arrays(handle.segment, (*handle.fields, *handle.extra))
            try:
                for name in ("P", "volumes", "weights", "deltas", "mask"):
                    np.testing.assert_array_equal(arrays[name], getattr(batch, name))
                np.testing.assert_array_equal(arrays["marker"], np.arange(5.0))
                with pytest.raises(ValueError):
                    arrays["volumes"][0, 0] = 1.0  # read-only views
                # The chunk body slices rows [lo, hi) of the batch and the extras.
                rows = apply_rows(lambda sub, extra: list(zip(sub.P, extra["marker"])), arrays, 1, 4)
                assert rows == list(zip(batch.P[1:4], np.arange(1.0, 4.0)))
            finally:
                arrays.clear()
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
        with ExecutionContext(backend="process-pool", workers=2) as pool_ctx:
            pooled = pool_ctx.map_batch(_per_row_bounds, batch)
            assert 0 < pool_ctx.last_submission_count <= 2 * CHUNKS_PER_WORKER
        assert np.array_equal(np.asarray(serial), np.asarray(pooled))

    def test_map_batch_extra_arrays(self):
        batch = self._batch(B=16)
        scale = np.full(16, 2.0)
        with ExecutionContext() as serial_ctx:
            reference = serial_ctx.map_batch(_per_row_weighted_volume, batch, extra={"scale": scale})
        with ExecutionContext(backend="process-pool", workers=2) as ctx:
            pooled = ctx.map_batch(_per_row_weighted_volume, batch, extra={"scale": scale})
        assert np.array_equal(np.asarray(reference), np.asarray(pooled))

    def test_pooled_map_batch_publishes_once_per_call(self, monkeypatch):
        published = []
        original = shm.publish_batch

        def counting(batch, **extra):
            published.append(batch.batch_size)
            return original(batch, **extra)

        monkeypatch.setattr(shm, "publish_batch", counting)
        batch = self._batch(B=16)
        with ExecutionContext(backend="process-pool", workers=2) as ctx:
            ctx.map_batch(_per_row_bounds, batch)
            ctx.map_batch(_per_row_weighted_volume, batch, extra={"scale": np.ones(16)})
        assert published == [16, 16]
        with ExecutionContext() as serial_ctx:
            serial_ctx.map_batch(_per_row_bounds, batch)
        assert published == [16, 16]  # no pool, nothing to publish

    def test_map_batch_validates_inputs(self):
        batch = self._batch(B=4)
        with ExecutionContext() as ctx:
            with pytest.raises(TypeError):
                ctx.map_batch(_per_row_bounds, [1, 2, 3])
            with pytest.raises(ValueError):
                ctx.map_batch(_per_row_weighted_volume, batch, extra={"scale": np.zeros(3)})

    def test_lp_scalar_dispatch_shm_equals_serial(self):
        # The per-row HiGHS solves (n = 9) reach the pool as ctx.map chunk
        # jobs; the lockstep kernel (n = 5) never leaves the process.
        for n, sharded in ((9, True), (5, False)):
            insts = list(cluster_instances(n, 12, rng=np.random.default_rng(2)))
            batch = InstanceBatch.from_instances(insts)
            serial = solve_ordered_relaxation_batch(batch)
            with ExecutionContext(backend="process-pool", workers=2) as ctx:
                pooled = solve_ordered_relaxation_batch(batch, ctx=ctx, build_schedules=True)
                assert (ctx.last_submission_count > 0) == sharded, n
                assert (ctx.coordinator is not None) == sharded  # n = 5 forks no node
            assert np.array_equal(serial.objectives, pooled.objectives)
            assert np.array_equal(serial.completion_times, pooled.completion_times)
            for schedule in pooled.schedules(insts):
                validate_column_schedule(schedule)

    def test_sweep_summaries_identical_pool_vs_serial(self):
        from repro.scenarios import ScenarioSpec, SweepRunner

        spec = ScenarioSpec(
            name="pool-equality",
            generator="uniform_instances",
            grid={"n": [3, 4]},
            count=3,
            policies=("WDEQ",),
        )
        with ExecutionContext(seed=5) as serial_ctx:
            serial = SweepRunner(spec, serial_ctx).run()
        with ExecutionContext(seed=5, backend="process-pool", workers=2) as pool_ctx:
            pooled = SweepRunner(spec, pool_ctx).run()
        assert serial.records == pooled.records
        assert serial.rows == pooled.rows


def _triple(x):
    return x * 3


def _increment(x):
    return x + 1


def _boom(x):
    raise RuntimeError("boom")


def _boom_rows(sub_batch):
    raise RuntimeError("boom")


class TestAdaptiveChunking:
    """Pooled maps on a real 2-process pool: O(workers) futures, inline when tiny."""

    def test_large_maps_issue_o_workers_submissions(self):
        items = list(range(10_000))
        with ExecutionContext(workers=2) as ctx:
            assert ctx.map(_triple, items) == [x * 3 for x in items]
            assert 0 < ctx.last_submission_count <= 2 * CHUNKS_PER_WORKER
            ctx.map_batch(_per_row_bounds, TestSharedMemoryBackend()._batch(B=1000))
            assert 0 < ctx.last_submission_count <= 2 * CHUNKS_PER_WORKER

    def test_small_maps_stay_inline(self):
        with ExecutionContext(workers=2) as ctx:
            assert ctx.map(_increment, [41]) == [42]
            assert ctx.last_submission_count == 0
            ctx.map_batch(_per_row_bounds, TestSharedMemoryBackend()._batch(B=1))
            assert ctx.last_submission_count == 0
            assert ctx.coordinator is None  # nothing was big enough to fork the nodes

    def test_exceptions_propagate(self):
        with ExecutionContext(workers=2) as ctx:
            with pytest.raises(RuntimeError, match="boom"):
                ctx.map(_boom, list(range(100)))
            with pytest.raises(RuntimeError, match="boom"):
                ctx.map_batch(_boom_rows, TestSharedMemoryBackend()._batch(B=8))

    def test_chunk_ranges_split_evenly_up_to_chunks_per_worker(self):
        assert chunk_ranges(8, 2) == [(0, 2), (2, 4), (4, 6), (6, 8)]
        assert chunk_ranges(3, 2) == [(0, 1), (1, 2), (2, 3)]
