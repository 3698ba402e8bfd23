"""Differential conformance tests for the batched LP subsystem (repro.lp.batch).

Every vectorized path is pinned against its scalar reference:

* :func:`repro.lp.simplex.solve_linear_program_batch` against HiGHS on
  random LPs with mixed optimal / infeasible / unbounded outcomes and
  negative right-hand sides (verdicts checked through always-solvable
  certificate LPs);
* :func:`repro.lp.batch.solve_ordered_relaxation_batch` (both sides of the
  size rule of :func:`repro.lp.exact.solve_ordered_lps`: the lockstep kernel
  up to 8 padded tasks, per-row HiGHS above) against
  :func:`repro.lp.interface.solve_ordered_relaxation` per instance, on
  Hypothesis-generated ragged padded batches, including degenerate
  orderings far from optimal and single-task rows;
* :func:`repro.lp.optimal` against the brute-force
  :func:`tests.oracles.bruteforce_opt`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles import bruteforce_opt
from repro.batch.kernels import combined_lower_bound_batch, lower_bound_batch
from repro.core.batch import InstanceBatch
from repro.core.bounds import time_leq, times_close
from repro.core.exceptions import InvalidInstanceError, InvalidScheduleError, SolverError
from repro.core.instance import Instance, Task
from repro.core.validation import validate_column_schedule
from repro.exec import ExecutionContext
from repro.lp.batch import (
    BatchedOrderedSolution,
    build_ordered_lp_batch,
    normalize_orders,
    optimal,
    smith_orders_batch,
    solve_ordered_relaxation_batch,
)
from repro.lp.formulation import ordered_lp_dimensions, position_area_layout
from repro.lp.interface import solve_ordered_relaxation
from repro.lp.simplex import solve_linear_program_batch
from repro.workloads.generators import cluster_instances

finite = dict(allow_nan=False, allow_infinity=False)

#: A nine-task instance: padding a batch with it pushes every row past the
#: lockstep limit (8 tasks), so the same rows are solved by HiGHS.
NINE_TASKS = Instance.from_arrays(P=3.0, volumes=np.linspace(0.5, 2.0, 9))


def solve_with_highs(insts, orders=None, **kwargs) -> BatchedOrderedSolution:
    """``solve_ordered_relaxation_batch`` of ``insts`` padded to nine tasks (HiGHS side)."""
    batch = InstanceBatch.from_instances(list(insts) + [NINE_TASKS])
    if orders is not None:
        orders = list(orders) + [list(range(9))]
    return solve_ordered_relaxation_batch(batch, orders, **kwargs)


@st.composite
def instances(draw, min_tasks: int = 1, max_tasks: int = 5):
    """One random instance with well-conditioned parameters."""
    n = draw(st.integers(min_tasks, max_tasks))
    P = draw(st.floats(0.5, 4.0, **finite))
    tasks = []
    for _ in range(n):
        volume = draw(st.floats(0.05, 10.0, **finite))
        weight = draw(st.floats(0.05, 10.0, **finite))
        delta = draw(st.floats(0.05, 1.0, **finite)) * P
        tasks.append(Task(volume=volume, weight=weight, delta=delta))
    return Instance(P=P, tasks=tasks)


@st.composite
def instance_batches(draw, max_batch: int = 5):
    """A batch of random instances of *mixed* sizes (padding is exercised)."""
    return draw(st.lists(instances(), min_size=1, max_size=max_batch))


@st.composite
def batches_with_orders(draw, max_batch: int = 5):
    """Ragged batches plus an arbitrary (often degenerate) order per row."""
    insts = draw(instance_batches(max_batch=max_batch))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    orders = [list(map(int, rng.permutation(inst.n))) for inst in insts]
    return insts, orders


def assert_matches_scalar(insts, orders, solution, rtol=1e-6, atol=1e-8):
    """Row-by-row comparison of a batched solution against the scalar path."""
    by_task = solution.completion_times_by_task()
    for b, inst in enumerate(insts):
        ref = solve_ordered_relaxation(inst, orders[b], build_schedule=False)
        assert times_close(solution.objectives[b], ref.objective, rtol=rtol, atol=atol)
        # Degenerate (zero-length) columns make individual end times
        # non-unique between solvers, so compare the sorted column end times,
        # which the weighted objective pins down per tied group.
        np.testing.assert_allclose(
            np.sort(solution.completion_times[b, : inst.n]),
            np.sort(ref.completion_times),
            rtol=1e-5,
            atol=1e-6,
        )
        assert np.all(np.diff(solution.completion_times[b, : inst.n]) >= -1e-7)
        # Padding slots never leak completion times.
        assert np.all(by_task[b, inst.n :] == 0.0)


# --------------------------------------------------------------------- #
# The lockstep simplex kernel
# --------------------------------------------------------------------- #


def _highs_value(c, A_ub, b_ub, A_eq=None, b_eq=None):
    """HiGHS optimum of an LP the caller knows is feasible and bounded."""
    from scipy.optimize import linprog

    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def _infeasibility(A_ub, b_ub, A_eq, b_eq):
    """Phase-1 value ``min t`` s.t. ``A_ub x - t <= b_ub``, ``|A_eq x - b_eq| <= t``.

    Always feasible and bounded, so HiGHS answers it reliably; the LP is
    feasible exactly when the value is zero.
    """
    nvar = A_ub.shape[1]
    t_col = -np.ones((A_ub.shape[0] + 2 * A_eq.shape[0], 1))
    rows = np.vstack([A_ub, A_eq, -A_eq])
    cost = np.zeros(nvar + 1)
    cost[-1] = 1.0
    return _highs_value(cost, np.hstack([rows, t_col]), np.concatenate([b_ub, b_eq, -b_eq]))


def _best_ray(c, A_ub, A_eq):
    """``min c.d`` over recession directions ``A_ub d <= 0, A_eq d = 0, sum d <= 1``.

    Always feasible (``d = 0``) and bounded; a feasible LP is unbounded
    exactly when the value is negative.
    """
    nvar = c.size
    A = np.vstack([A_ub, np.ones((1, nvar))])
    b = np.concatenate([np.zeros(A_ub.shape[0]), [1.0]])
    return _highs_value(c, A, b, A_eq, np.zeros(A_eq.shape[0]))


class TestBatchedSimplex:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_matches_scalar_on_random_lps(self, seed, B):
        # The reference is HiGHS, but never its raw status: with presolve on
        # it calls some feasible unbounded LPs "infeasible".  Each lockstep
        # verdict is checked through certificate LPs that are always
        # feasible and bounded instead.
        rng = np.random.default_rng(seed)
        nvar, m_ub, m_eq = 4, 3, 1
        c = rng.normal(size=(B, nvar))
        A_ub = rng.normal(size=(B, m_ub, nvar))
        b_ub = rng.uniform(-1.0, 2.0, size=(B, m_ub))  # mixed signs
        A_eq = rng.normal(size=(B, m_eq, nvar))
        b_eq = rng.uniform(-1.0, 1.0, size=(B, m_eq))
        batch = solve_linear_program_batch(c, A_ub, b_ub, A_eq, b_eq)
        for i in range(B):
            status = batch.statuses[i]
            if status == "optimal":
                ref = _highs_value(c[i], A_ub[i], b_ub[i], A_eq[i], b_eq[i])
                assert batch.objectives[i] == pytest.approx(ref, rel=1e-6, abs=1e-7)
                continue
            infeasibility = _infeasibility(A_ub[i], b_ub[i], A_eq[i], b_eq[i])
            if status == "infeasible":
                assert infeasibility > 1e-9
            else:
                assert status == "unbounded"
                assert infeasibility <= 1e-9
                assert _best_ray(c[i], A_ub[i], A_eq[i]) < -1e-9

    def test_mixed_statuses_in_one_batch(self):
        # Problem 0: optimal; problem 1: infeasible; problem 2: unbounded.
        c = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        A_ub = np.array(
            [
                [[1.0, 1.0]],
                [[1.0, 0.0]],
                [[0.0, 1.0]],
            ]
        )
        b_ub = np.array([[1.0], [-1.0], [1.0]])
        A_eq = np.array([[[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 0.0]]])
        b_eq = np.array([[0.0], [5.0], [0.0]])
        result = solve_linear_program_batch(c, A_ub, b_ub, A_eq, b_eq)
        assert list(result.statuses) == ["optimal", "infeasible", "unbounded"]
        assert result.objectives[0] == pytest.approx(0.0)
        assert np.isnan(result.objectives[1])
        assert result.objectives[2] == -np.inf
        assert not result.all_optimal

    def test_one_dimensional_cost_broadcasts(self):
        c = np.array([-1.0, -1.0])
        A_ub = np.tile(np.array([[[1.0, 1.0]]]), (3, 1, 1))
        b_ub = np.array([[1.0], [2.0], [3.0]])
        result = solve_linear_program_batch(c, A_ub, b_ub)
        np.testing.assert_allclose(result.objectives, [-1.0, -2.0, -3.0], atol=1e-9)

    def test_no_constraints_rejected(self):
        with pytest.raises(SolverError):
            solve_linear_program_batch(np.array([1.0]))

    def test_shape_mismatches_rejected(self):
        c = np.zeros((2, 3))
        with pytest.raises(SolverError):
            solve_linear_program_batch(c, A_ub=np.zeros((2, 1, 4)), b_ub=np.zeros((2, 1)))
        with pytest.raises(SolverError):
            solve_linear_program_batch(c, A_ub=np.zeros((2, 1, 3)), b_ub=np.zeros((2, 2)))

    def test_pivot_limit_raises(self):
        rng = np.random.default_rng(0)
        c = rng.normal(size=(2, 4))
        A_ub = rng.normal(size=(2, 3, 4))
        b_ub = rng.uniform(0.5, 1.0, size=(2, 3))
        with pytest.raises(SolverError):
            solve_linear_program_batch(c, A_ub, b_ub, max_iterations=1)


# --------------------------------------------------------------------- #
# Assembly and order normalisation
# --------------------------------------------------------------------- #


class TestAssembly:
    def test_dimensions_match_layout(self, small_instance):
        batch = InstanceBatch.from_instances([small_instance])
        lp = build_ordered_lp_batch(batch)
        nvar, m_ub, m_eq = ordered_lp_dimensions(batch.n_max)
        assert lp.c.shape == (1, nvar)
        assert lp.A_ub.shape == (1, m_ub, nvar)
        assert lp.A_eq.shape == (1, m_eq, nvar)
        assert np.all(lp.b_ub == 0.0)

    def test_objective_and_rhs_follow_order(self, small_instance):
        order = [2, 0, 3, 1]
        batch = InstanceBatch.from_instances([small_instance])
        lp = build_ordered_lp_batch(batch, [order])
        np.testing.assert_allclose(lp.c[0, :4], small_instance.weights[order])
        np.testing.assert_allclose(lp.b_eq[0], small_instance.volumes[order])

    def test_position_layout_covers_lower_triangle(self):
        x_index, pairs = position_area_layout(4)
        assert pairs.shape == (10, 2)
        assert np.all(pairs[:, 1] <= pairs[:, 0])
        assert x_index[0, 0] == 4 and x_index[3, 3] == 13
        assert x_index[0, 1] == -1  # j > p is not a variable

    def test_smith_orders_match_scalar(self):
        insts = [
            Instance.from_arrays(P=2.0, volumes=[3.0, 1.0, 2.0], weights=[1.0, 2.0, 1.0]),
            Instance.from_arrays(P=1.0, volumes=[1.0]),
        ]
        batch = InstanceBatch.from_instances(insts)
        orders = smith_orders_batch(batch)
        for b, inst in enumerate(insts):
            assert list(orders[b, : inst.n]) == inst.smith_order()
        # Padding slots trail every real task.
        assert list(orders[1]) == [0, 1, 2]

    def test_smith_orders_zero_weight_sorts_last_but_before_padding(self):
        inst = Instance(P=2.0, tasks=[Task(1.0, 0.0, 1.0), Task(5.0, 1.0, 1.0)])
        other = Instance(P=2.0, tasks=[Task(1.0, 1.0, 1.0)])
        batch = InstanceBatch.from_instances([inst, other])
        orders = smith_orders_batch(batch)
        assert list(orders[0]) == [1, 0]  # zero-weight task last among real tasks
        assert list(orders[1]) == [0, 1]  # padding after the real task

    def test_normalize_orders_pads_ragged_rows(self):
        batch = InstanceBatch.from_instances(
            [Instance.from_arrays(P=1.0, volumes=[1.0, 1.0, 1.0]), Instance.from_arrays(P=1.0, volumes=[1.0])]
        )
        orders = normalize_orders(batch, [[2, 0, 1], [0]])
        assert list(orders[0]) == [2, 0, 1]
        assert list(orders[1]) == [0, 1, 2]

    def test_normalize_orders_rejects_non_permutations(self):
        batch = InstanceBatch.from_instances([Instance.from_arrays(P=1.0, volumes=[1.0, 1.0])])
        with pytest.raises(InvalidScheduleError):
            normalize_orders(batch, [[0, 0]])
        with pytest.raises(InvalidScheduleError):
            normalize_orders(batch, [[0, 1], [1, 0]])  # wrong batch size

    def test_normalize_orders_rejects_wrong_length_rows(self):
        # A row whose length is neither the row's task count nor n_max must
        # raise the documented exception, not a raw numpy broadcast error.
        batch = InstanceBatch.from_instances(
            [Instance.from_arrays(P=1.0, volumes=[1.0, 1.0, 1.0]), Instance.from_arrays(P=1.0, volumes=[1.0])]
        )
        with pytest.raises(InvalidScheduleError):
            normalize_orders(batch, [[0, 1, 2], [0, 1]])

    def test_unknown_backend_rejected(self, monkeypatch):
        from repro.lp import batch as lp_batch
        from repro.lp import exact

        batch = InstanceBatch.from_instances([Instance.from_arrays(P=1.0, volumes=[1.0])])
        with pytest.raises(SolverError):
            solve_ordered_relaxation_batch(batch, backend="bogus")
        # The deprecated keyword still answers the exact-opt benchmark's
        # check with the task-space reference: neither the lockstep kernel
        # nor the position-space tensors are used.
        insts = [Instance.from_arrays(P=2.0, volumes=[1.0, 2.0, 0.5], deltas=[0.5, 2.0, 1.0]), NINE_TASKS]
        orders = [[2, 0, 1], list(range(9))]
        monkeypatch.setattr(exact, "solve_linear_program_batch", None)
        monkeypatch.setattr(lp_batch, "build_ordered_lp_batch", None)
        reference = solve_ordered_relaxation_batch(
            InstanceBatch.from_instances(insts), orders, backend="scipy", build_schedules=True
        )
        assert_matches_scalar(insts, orders, reference, rtol=1e-9)
        for b, schedule in enumerate(reference.schedules(insts)):
            validate_column_schedule(schedule)
            assert times_close(
                schedule.weighted_completion_time(), reference.objectives[b], rtol=1e-9
            )

    @pytest.mark.parametrize("n", [5, 9])
    def test_scipy_keyword_catches_a_faulty_position_space_builder(self, monkeypatch, n):
        # The exact-opt benchmark checks branch-and-bound values against
        # backend="scipy".  That check must not share the position-space
        # tensors: doubling one volume equality there moves the size-rule
        # value (lockstep at n = 5, HiGHS at n = 9) but not the reference.
        from repro.lp import batch as lp_batch

        batch = InstanceBatch.from_instances(
            cluster_instances(n, 1, P=16.0, rng=np.random.default_rng(n))
        )
        healthy = solve_ordered_relaxation_batch(batch).objectives
        build = lp_batch.build_ordered_lp_batch

        def faulty(*args, **kwargs):
            lp = build(*args, **kwargs)
            lp.b_eq[:, 0] *= 2.0
            return lp

        monkeypatch.setattr(lp_batch, "build_ordered_lp_batch", faulty)
        broken = solve_ordered_relaxation_batch(batch).objectives
        reference = solve_ordered_relaxation_batch(batch, backend="scipy").objectives
        np.testing.assert_allclose(reference, healthy, rtol=1e-9)
        assert not np.allclose(broken, reference, rtol=1e-6)


# --------------------------------------------------------------------- #
# Differential: batched ordered relaxation vs the scalar interface
# --------------------------------------------------------------------- #


class TestOrderedRelaxationDifferential:
    @settings(max_examples=20, deadline=None)
    @given(instance_batches())
    def test_kernel_matches_scalar_smith_orders(self, insts):
        batch = InstanceBatch.from_instances(insts)
        solution = solve_ordered_relaxation_batch(batch)
        orders = [inst.smith_order() for inst in insts]
        assert_matches_scalar(insts, orders, solution)

    @settings(max_examples=20, deadline=None)
    @given(batches_with_orders())
    def test_kernel_matches_scalar_on_degenerate_orders(self, insts_orders):
        insts, orders = insts_orders
        batch = InstanceBatch.from_instances(insts)
        solution = solve_ordered_relaxation_batch(batch, orders)
        assert_matches_scalar(insts, orders, solution)

    @settings(max_examples=10, deadline=None)
    @given(batches_with_orders(max_batch=3))
    def test_scipy_dispatch_matches_kernel(self, insts_orders):
        # The same rows on both sides of the size rule: alone they are
        # solved in lockstep, padded to nine tasks by HiGHS.
        insts, orders = insts_orders
        kernel = solve_ordered_relaxation_batch(InstanceBatch.from_instances(insts), orders)
        highs = solve_with_highs(insts, orders)
        np.testing.assert_allclose(
            kernel.objectives, highs.objectives[: len(insts)], rtol=1e-6, atol=1e-8
        )
        assert_matches_scalar(insts, orders, highs)

    @settings(max_examples=10, deadline=None)
    @given(instance_batches(max_batch=3))
    def test_schedules_are_valid_and_price_the_objective(self, insts):
        batch = InstanceBatch.from_instances(insts)
        solution = solve_ordered_relaxation_batch(batch, build_schedules=True)
        schedules = solution.schedules(insts)
        for b, sched in enumerate(schedules):
            validate_column_schedule(sched)
            assert times_close(
                sched.weighted_completion_time(), solution.objectives[b], rtol=1e-6, atol=1e-7
            )

    def test_single_task_row(self):
        inst = Instance(P=4, tasks=[Task(volume=6, weight=2, delta=3)])
        batch = InstanceBatch.from_instances([inst])
        solution = solve_ordered_relaxation_batch(batch)
        assert solution.objectives[0] == pytest.approx(2 * 2.0)

    def test_empty_instance_row(self):
        batch = InstanceBatch.from_instances(
            [Instance(P=1, tasks=[]), Instance.from_arrays(P=1.0, volumes=[1.0])]
        )
        solution = solve_ordered_relaxation_batch(batch)
        assert solution.objectives[0] == 0.0
        assert solution.objectives[1] == pytest.approx(1.0)

    def test_schedules_without_rates_raise(self):
        batch = InstanceBatch.from_instances([Instance.from_arrays(P=1.0, volumes=[1.0])])
        solution = solve_ordered_relaxation_batch(batch)
        with pytest.raises(SolverError):
            solution.schedules()

    def test_full_array_orders_accepted(self):
        insts = [
            Instance.from_arrays(P=2.0, volumes=[1.0, 2.0]),
            Instance.from_arrays(P=1.0, volumes=[1.0, 0.5]),
        ]
        batch = InstanceBatch.from_instances(insts)
        orders = np.array([[1, 0], [0, 1]])
        solution = solve_ordered_relaxation_batch(batch, orders)
        for b, inst in enumerate(insts):
            ref = solve_ordered_relaxation(inst, list(orders[b]), build_schedule=False)
            assert solution.objectives[b] == pytest.approx(ref.objective, rel=1e-7)

    def test_schedules_default_to_unpacking_the_batch(self):
        batch = InstanceBatch.from_instances(
            [Instance.from_arrays(P=2.0, volumes=[1.0, 2.0], names=["a", "b"])]
        )
        solution = solve_ordered_relaxation_batch(batch, build_schedules=True)
        (schedule,) = solution.schedules()
        validate_column_schedule(schedule)
        assert schedule.instance.tasks[0].name == "a"

    def test_scipy_dispatch_schedules_stay_valid_with_zero_weights(self):
        # Regression: zero-weight tasks make the LP optimum non-unique, so
        # the HiGHS side must take completion times AND rates from the
        # same solve — mixing solver vertices broke volume conservation.
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            weights = rng.uniform(0.1, 2.0, size=n)
            weights[int(rng.integers(0, n))] = 0.0
            inst = Instance(
                P=2.0,
                tasks=[
                    Task(
                        volume=float(rng.uniform(0.2, 3.0)),
                        weight=float(w),
                        delta=float(rng.uniform(0.2, 2.0)),
                    )
                    for w in weights
                ],
            )
            solution = solve_with_highs([inst], build_schedules=True)
            schedule = solution.schedules([inst, NINE_TASKS])[0]
            validate_column_schedule(schedule)

    def test_scipy_dispatch_can_build_schedules(self):
        insts = [Instance.from_arrays(P=2.0, volumes=[1.0, 2.0, 0.5]), NINE_TASKS]
        solution = solve_ordered_relaxation_batch(
            InstanceBatch.from_instances(insts), build_schedules=True
        )
        for b, schedule in enumerate(solution.schedules(insts)):
            validate_column_schedule(schedule)
            assert times_close(
                schedule.weighted_completion_time(), solution.objectives[b], rtol=1e-6, atol=1e-7
            )

    def test_padding_equals_unpadded_solution(self):
        # The padded LP of a ragged row must price exactly like the unpadded
        # scalar LP: padding tasks are inert.
        small = Instance.from_arrays(P=2.0, volumes=[1.5, 0.5], weights=[1.0, 3.0], deltas=[1.0, 2.0])
        big = Instance.from_arrays(P=3.0, volumes=[1.0] * 5)
        batch = InstanceBatch.from_instances([small, big])
        solution = solve_ordered_relaxation_batch(batch)
        ref = solve_ordered_relaxation(small, small.smith_order(), build_schedule=False)
        assert solution.objectives[0] == pytest.approx(ref.objective, rel=1e-7)


# --------------------------------------------------------------------- #
# Exact optima and lower bounds
# --------------------------------------------------------------------- #


class TestOptimal:
    @settings(max_examples=8, deadline=None)
    @given(instance_batches(max_batch=3))
    def test_matches_bruteforce_optimal(self, insts):
        batch = InstanceBatch.from_instances(insts)
        result = optimal(batch)
        for b, inst in enumerate(insts):
            ref = bruteforce_opt(inst)
            assert times_close(result.objectives[b], ref, rtol=1e-6, atol=1e-8)

    def test_best_orders_achieve_the_optimum(self):
        insts = [
            Instance.from_arrays(
                P=2.0, volumes=[2.0, 1.0, 3.0], weights=[1.0, 2.0, 1.0], deltas=[1.0, 2.0, 1.5]
            )
        ]
        batch = InstanceBatch.from_instances(insts)
        result = optimal(batch)
        order = [int(t) for t in result.orders[0, : insts[0].n]]
        achieved = solve_ordered_relaxation(insts[0], order, build_schedule=False).objective
        assert achieved == pytest.approx(result.objectives[0], rel=1e-7)

    def test_task_guard(self):
        batch = InstanceBatch.from_instances([Instance.from_arrays(P=1.0, volumes=[1.0] * 8)])
        with pytest.raises(InvalidInstanceError):
            optimal(batch, max_tasks=7)

    def test_chunking_is_lossless(self):
        rng = np.random.default_rng(5)
        insts = [
            Instance.from_arrays(P=2.0, volumes=rng.uniform(0.5, 2.0, size=4)) for _ in range(5)
        ]
        batch = InstanceBatch.from_instances(insts)
        whole = optimal(batch, method="enumerate")
        chunked = optimal(batch, method="enumerate", chunk_size=24)  # one row per chunk
        np.testing.assert_allclose(whole.objectives, chunked.objectives, rtol=1e-9)
        assert whole.orderings_evaluated == chunked.orderings_evaluated == 5 * 24


class TestLowerBoundBatch:
    @settings(max_examples=8, deadline=None)
    @given(instance_batches(max_batch=3))
    def test_exact_dominates_combined(self, insts):
        batch = InstanceBatch.from_instances(insts)
        combined = lower_bound_batch(batch)
        exact = optimal(batch).objectives
        np.testing.assert_allclose(combined, combined_lower_bound_batch(batch))
        assert np.all(time_leq(combined, exact, rtol=1e-6, atol=1e-8))


# --------------------------------------------------------------------- #
# Execution-context dispatch
# --------------------------------------------------------------------- #


class TestContextDispatch:
    def _batch(self):
        rng = np.random.default_rng(11)
        insts = [
            Instance.from_arrays(P=2.0, volumes=rng.uniform(0.5, 2.0, size=n))
            for n in (2, 3, 1, 4)
        ]
        return insts, InstanceBatch.from_instances(insts)

    def test_backends_agree(self):
        # No backend picks the solver: a context, no context and the
        # deprecated "vectorized" alias all return the same solution.
        insts, batch = self._batch()
        plain = solve_ordered_relaxation_batch(batch)
        for ctx in (ExecutionContext(seed=0), ExecutionContext(seed=0, backend="vectorized")):
            solved = solve_ordered_relaxation_batch(batch, ctx=ctx)
            assert np.array_equal(plain.objectives, solved.objectives)
            assert np.array_equal(plain.completion_times, solved.completion_times)

    def test_process_pool_dispatch_agrees(self):
        insts, batch = self._batch()
        serial = solve_ordered_relaxation_batch(batch, ctx=ExecutionContext(seed=0))
        with ExecutionContext(seed=0, backend="process-pool", workers=2) as ctx:
            pooled = solve_ordered_relaxation_batch(batch, ctx=ctx)
        np.testing.assert_allclose(serial.objectives, pooled.objectives, rtol=1e-9)

    def test_resolved_lp_backend(self):
        # The context selects no LP solver: the selector, the forwarder and
        # the lp_backend knob are gone.
        ctx = ExecutionContext()
        for removed in ("resolved_lp_backend", "ordered_relaxation", "vectorized"):
            assert not hasattr(ctx, removed)
        for removed in ("simplex", "scipy", "auto"):
            with pytest.raises(TypeError, match="lp_backend"):
                ExecutionContext(lp_backend=removed)  # type: ignore[call-arg]


# --------------------------------------------------------------------- #
# The size rule: lockstep up to _LOCKSTEP_MAX_TASKS tasks, block HiGHS above
# --------------------------------------------------------------------- #


def _cluster_batch(sizes, seed: int):
    rng = np.random.default_rng(seed)
    insts = [next(cluster_instances(n, 1, rng=rng)) for n in sizes]
    return insts, InstanceBatch.from_instances(insts)


class TestSizeRule:
    @pytest.mark.parametrize(
        "sizes",
        [[8, 8, 8], [9, 9, 9], [2, 5, 8, 9, 10]],
        ids=["lockstep-n8", "highs-n9", "ragged-crossing-8"],
    )
    def test_matches_scalar_reference(self, sizes):
        insts, batch = _cluster_batch(sizes, seed=4)
        solution = solve_ordered_relaxation_batch(batch)
        by_task = solution.completion_times_by_task()
        for b, inst in enumerate(insts):
            order = [int(t) for t in solution.orders[b, : inst.n]]
            ref = solve_ordered_relaxation(inst, order, build_schedule=False)
            ref_by_task = np.zeros(inst.n)
            ref_by_task[order] = ref.completion_times
            np.testing.assert_allclose(solution.objectives[b], ref.objective, rtol=1e-9)
            np.testing.assert_allclose(by_task[b, : inst.n], ref_by_task, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize(
        ("above", "lockstep_calls"), [(0, 1), (1, 0)], ids=["at-threshold", "above-threshold"]
    )
    def test_solver_switches_above_the_lockstep_threshold(self, monkeypatch, above, lockstep_calls):
        from repro.lp import exact

        n = exact._LOCKSTEP_MAX_TASKS + above
        calls = []

        def counting(*tensors):
            calls.append(tensors[0].shape)
            return solve_linear_program_batch(*tensors)

        monkeypatch.setattr(exact, "solve_linear_program_batch", counting)
        _, batch = _cluster_batch([n, 3], seed=5)
        solve_ordered_relaxation_batch(batch)
        assert len(calls) == lockstep_calls

    def test_highs_side_builds_valid_schedules(self):
        insts, batch = _cluster_batch([9, 4, 10], seed=6)
        solution = solve_ordered_relaxation_batch(batch, build_schedules=True)
        for b, schedule in enumerate(solution.schedules(insts)):
            validate_column_schedule(schedule)
            np.testing.assert_allclose(
                schedule.processed_volumes(), insts[b].volumes, rtol=1e-9, atol=1e-9
            )
            assert times_close(
                schedule.weighted_completion_time(), solution.objectives[b], rtol=1e-9, atol=1e-9
            )


# --------------------------------------------------------------------- #
# Block-diagonal HiGHS: one solve per stack
# --------------------------------------------------------------------- #


def _highs_stack(sizes, seed: int):
    """Ordered LPs of ``cluster_instances`` rows of ``sizes`` tasks, random orders, one stack."""
    rng = np.random.default_rng(seed)
    insts = [next(cluster_instances(n, 1, rng=rng)) for n in sizes]
    batch = InstanceBatch.from_instances(insts)
    orders = [list(rng.permutation(inst.n)) for inst in insts]
    return build_ordered_lp_batch(batch, orders)


class TestBlockDiagonalHighs:
    @pytest.mark.parametrize(
        "sizes",
        [[7] * 5, [7, 9, 12, 10, 8, 11], [12, 12, 7]],
        ids=["n7", "mixed-7-to-12", "n12-padded"],
    )
    def test_blocks_match_per_lp_highs(self, sizes):
        from repro.lp.exact import _LOCKSTEP_MAX_TASKS, solve_ordered_lps
        from repro.lp.scipy_backend import solve_with_scipy
        from repro.lp.simplex import _INFEAS_TOL, _primal_residual

        assert min(sizes) > _LOCKSTEP_MAX_TASKS  # every stack takes the block solve
        lp = _highs_stack(sizes, seed=len(sizes))
        solved = solve_ordered_lps(lp)
        tensors = (lp.c, lp.A_ub, lp.b_ub, lp.A_eq, lp.b_eq)
        for k in range(len(sizes)):
            alone = solve_with_scipy(*(t[k] for t in tensors))
            assert solved.objectives[k] == pytest.approx(alone.objective, rel=1e-9)
        A = np.concatenate([lp.A_ub, lp.A_eq], axis=1)
        b = np.concatenate([lp.b_ub, lp.b_eq], axis=1)
        assert np.all(_primal_residual(A, b, solved.x, lp.A_ub.shape[1]) <= _INFEAS_TOL)
        assert np.all(solved.x >= -1e-9)
        np.testing.assert_allclose(
            np.einsum("kv,kv->k", lp.c, solved.x), solved.objectives, rtol=1e-12
        )

    def test_sharded_solve_equals_serial(self):
        from repro.lp.exact import solve_ordered_lps

        lp = _highs_stack([8, 9, 7, 10, 8, 9, 7], seed=3)
        serial = solve_ordered_lps(lp)
        with ExecutionContext(seed=0, backend="process-pool", workers=2) as ctx:
            sharded = solve_ordered_lps(lp, ctx)
            assert ctx.last_submission_count > 1
        np.testing.assert_allclose(sharded.objectives, serial.objectives, rtol=1e-9)
        assert sharded.x.shape == serial.x.shape

    @pytest.mark.parametrize("bad", [0, 3, 5])
    def test_forged_non_optimal_row_is_named(self, bad):
        from repro.lp.exact import solve_ordered_lps

        lp = _highs_stack([8, 9, 7, 10, 8, 9], seed=4)
        lp.b_eq[bad, 0] = -1.0  # a volume no non-negative area can sum to
        with pytest.raises(SolverError, match=f"'infeasible' for batch row {bad}$"):
            solve_ordered_lps(lp)
