"""Differential conformance tests for the batched LP subsystem (repro.lp.batch).

Every vectorized path is pinned against its scalar reference:

* :func:`repro.lp.simplex.solve_linear_program_batch` against HiGHS on
  random LPs with mixed optimal / infeasible / unbounded outcomes and
  negative right-hand sides (verdicts checked through always-solvable
  certificate LPs);
* :func:`repro.lp.batch.solve_ordered_relaxation_batch` (lockstep kernel
  *and* the HiGHS dispatch backend) against
  :func:`repro.lp.interface.solve_ordered_relaxation` per instance, on
  Hypothesis-generated ragged padded batches, including degenerate
  orderings far from optimal and single-task rows;
* :func:`repro.lp.optimal` against the brute-force
  :func:`repro.algorithms.optimal.optimal_value`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.optimal import optimal_value
from repro.batch.kernels import combined_lower_bound_batch, lower_bound_batch
from repro.core.batch import InstanceBatch
from repro.core.bounds import time_leq, times_close
from repro.core.exceptions import InvalidInstanceError, InvalidScheduleError, SolverError
from repro.core.instance import Instance, Task
from repro.core.validation import validate_column_schedule
from repro.exec import ExecutionContext
from repro.lp.batch import (
    build_ordered_lp_batch,
    normalize_orders,
    optimal,
    smith_orders_batch,
    solve_ordered_relaxation_batch,
)
from repro.lp.formulation import ordered_lp_dimensions, position_area_layout
from repro.lp.interface import solve_ordered_relaxation
from repro.lp.simplex import solve_linear_program_batch

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

    def test_unknown_backend_rejected(self):
        batch = InstanceBatch.from_instances([Instance.from_arrays(P=1.0, volumes=[1.0])])
        with pytest.raises(SolverError):
            solve_ordered_relaxation_batch(batch, backend="bogus")


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
        insts, orders = insts_orders
        batch = InstanceBatch.from_instances(insts)
        kernel = solve_ordered_relaxation_batch(batch, orders, backend="batch")
        scipy_path = solve_ordered_relaxation_batch(batch, orders, backend="scipy")
        np.testing.assert_allclose(
            kernel.objectives, scipy_path.objectives, rtol=1e-6, atol=1e-8
        )

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
        solution = solve_ordered_relaxation_batch(batch, backend="scipy")
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
        # the scalar dispatch must take completion times AND rates from the
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
            batch = InstanceBatch.from_instances([inst])
            solution = solve_ordered_relaxation_batch(
                batch, backend="scipy", build_schedules=True
            )
            (schedule,) = solution.schedules([inst])
            validate_column_schedule(schedule)

    def test_scipy_dispatch_can_build_schedules(self):
        insts = [Instance.from_arrays(P=2.0, volumes=[1.0, 2.0, 0.5])]
        batch = InstanceBatch.from_instances(insts)
        solution = solve_ordered_relaxation_batch(batch, backend="scipy", build_schedules=True)
        (schedule,) = solution.schedules(insts)
        validate_column_schedule(schedule)
        assert times_close(
            schedule.weighted_completion_time(), solution.objectives[0], rtol=1e-6, atol=1e-7
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
            ref = optimal_value(inst)
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
        combined = lower_bound_batch(batch, method="combined")
        exact = optimal(batch).objectives
        np.testing.assert_allclose(combined, combined_lower_bound_batch(batch))
        assert np.all(time_leq(combined, exact, rtol=1e-6, atol=1e-8))

    def test_unknown_method(self):
        batch = InstanceBatch.from_instances([Instance.from_arrays(P=1.0, volumes=[1.0])])
        with pytest.raises(InvalidInstanceError):
            lower_bound_batch(batch, method="bogus")


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
        insts, batch = self._batch()
        serial = ExecutionContext(seed=0).ordered_relaxation(batch)
        vectorized = ExecutionContext(seed=0, backend="vectorized").ordered_relaxation(batch)
        np.testing.assert_allclose(serial.objectives, vectorized.objectives, rtol=1e-6, atol=1e-8)
        assert serial.backend == "scipy" and vectorized.backend == "batch"

    def test_process_pool_dispatch_agrees(self):
        insts, batch = self._batch()
        serial = ExecutionContext(seed=0).ordered_relaxation(batch)
        with ExecutionContext(seed=0, backend="process-pool", workers=2) as ctx:
            pooled = ctx.ordered_relaxation(batch)
        np.testing.assert_allclose(serial.objectives, pooled.objectives, rtol=1e-9)

    def test_resolved_lp_backend(self):
        assert ExecutionContext().resolved_lp_backend() == "scipy"
        assert ExecutionContext(backend="vectorized").resolved_lp_backend() == "batch"
        assert (
            ExecutionContext(backend="vectorized", lp_backend="scipy").resolved_lp_backend()
            == "scipy"
        )
        for removed_or_unknown in ("simplex", "bogus"):
            with pytest.raises(ValueError, match="unknown LP backend"):
                ExecutionContext(lp_backend=removed_or_unknown)
