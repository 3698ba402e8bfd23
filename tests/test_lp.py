"""Tests for the LP layer: formulation, the simplex kernel at B = 1, SciPy backend, interface."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import Instance, Task
from repro.core.batch import InstanceBatch
from repro.core.bounds import squashed_area_bound
from repro.core.exceptions import InvalidScheduleError, SolverError
from repro.core.validation import validate_column_schedule
from repro.lp.batch import solve_ordered_relaxation_batch
from repro.lp.formulation import build_ordered_lp
from repro.lp.interface import solve_ordered_relaxation
from repro.lp.scipy_backend import solve_with_scipy
from repro.lp.simplex import solve_linear_program_batch
from tests.conftest import random_instance


class TestFormulation:
    def test_variable_layout(self, small_instance):
        lp = build_ordered_lp(small_instance, [0, 1, 2, 3])
        n = small_instance.n
        assert lp.num_column_vars == n
        assert lp.num_variables == n + n * (n + 1) // 2
        assert lp.c[0] == small_instance.weights[0]

    def test_objective_follows_order(self, small_instance):
        order = [2, 0, 3, 1]
        lp = build_ordered_lp(small_instance, order)
        np.testing.assert_allclose(lp.c[:4], small_instance.weights[list(order)])

    def test_invalid_order_rejected(self, small_instance):
        with pytest.raises(InvalidScheduleError):
            build_ordered_lp(small_instance, [0, 0, 1, 2])

    def test_volume_constraints_rows(self, small_instance):
        lp = build_ordered_lp(small_instance, [0, 1, 2, 3])
        assert lp.A_eq.shape[0] == small_instance.n
        np.testing.assert_allclose(lp.b_eq, small_instance.volumes)

    def test_extract_helpers(self, small_instance):
        lp = build_ordered_lp(small_instance, [0, 1, 2, 3])
        solution = solve_with_scipy(lp)
        C = lp.extract_completion_times(solution.x)
        assert np.all(np.diff(C) >= -1e-9)
        rates = lp.extract_rates(solution.x)
        assert rates.shape == (4, 4)


def solve_one(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, **kwargs):
    """One LP through the lockstep kernel as a batch of one: ``(status, objective, x)``."""

    def one(a):
        return None if a is None else np.asarray(a, dtype=float)[None]

    result = solve_linear_program_batch(one(c), one(A_ub), one(b_ub), one(A_eq), one(b_eq), **kwargs)
    return result.statuses[0], result.objectives[0], result.x[0]


class TestSimplexSolver:
    """The in-repo simplex (the lockstep kernel) solving single LPs, ``B = 1``."""

    def test_simple_minimization(self):
        # min -x - y s.t. x + y <= 1, x, y >= 0 -> optimum -1.
        status, objective, _ = solve_one(
            c=np.array([-1.0, -1.0]),
            A_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([1.0]),
        )
        assert status == "optimal"
        assert objective == pytest.approx(-1.0)

    def test_equality_constraints(self):
        # min x + 2y s.t. x + y = 2 -> x = 2, y = 0.
        status, objective, x = solve_one(
            c=np.array([1.0, 2.0]),
            A_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([2.0]),
        )
        assert status == "optimal"
        assert objective == pytest.approx(2.0)
        np.testing.assert_allclose(x, [2.0, 0.0], atol=1e-9)

    def test_infeasible(self):
        # x <= -1 with x >= 0 is infeasible.
        status, objective, _ = solve_one(
            c=np.array([1.0]), A_ub=np.array([[1.0]]), b_ub=np.array([-1.0]),
            A_eq=np.array([[1.0]]), b_eq=np.array([5.0]),
        )
        assert status == "infeasible"
        assert np.isnan(objective)

    def test_unbounded(self):
        # min -x s.t. -x <= 1: nothing stops x from growing.
        status, objective, _ = solve_one(
            c=np.array([-1.0]), A_ub=np.array([[-1.0]]), b_ub=np.array([1.0])
        )
        assert status == "unbounded"
        assert objective == -np.inf

    def test_negative_rhs_inequality(self):
        # -x <= -2  <=>  x >= 2; min x -> 2.
        status, objective, _ = solve_one(
            c=np.array([1.0]), A_ub=np.array([[-1.0]]), b_ub=np.array([-2.0])
        )
        assert status == "optimal"
        assert objective == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(SolverError):
            solve_one(c=np.array([1.0, 2.0]), A_ub=np.ones((1, 3)), b_ub=np.ones(1))

    def test_pivot_limit_raises(self, rng):
        c = rng.normal(size=4)
        A = rng.normal(size=(3, 4))
        b = rng.uniform(0.5, 2.0, size=3)
        with pytest.raises(SolverError):
            solve_one(c, A_ub=A, b_ub=b, max_iterations=1)

    def test_negative_equality_rhs_is_sign_normalised(self):
        # -x - y = -2 is the same constraint as x + y = 2.
        status, objective, _ = solve_one(
            c=np.array([1.0, 2.0]),
            A_eq=np.array([[-1.0, -1.0]]),
            b_eq=np.array([-2.0]),
        )
        assert status == "optimal"
        assert objective == pytest.approx(2.0)

    def test_redundant_equality_rows(self):
        # Duplicated equality rows leave an artificial in the basis at value
        # zero after phase 1; the drive-out path must still find the optimum.
        status, objective, _ = solve_one(
            c=np.array([1.0, 1.0]),
            A_eq=np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]),
            b_eq=np.array([2.0, 2.0, 4.0]),
        )
        assert status == "optimal"
        assert objective == pytest.approx(2.0)

    def test_rhs_size_mismatch(self):
        with pytest.raises(SolverError):
            solve_one(c=np.array([1.0]), A_ub=np.ones((2, 1)), b_ub=np.ones(3))

    def test_matches_scipy_on_random_lps(self, rng):
        from scipy.optimize import linprog

        for _ in range(10):
            nvar, m = 4, 3
            c = rng.normal(size=nvar)
            A = rng.normal(size=(m, nvar))
            b = rng.uniform(0.5, 2.0, size=m)
            status, objective, _ = solve_one(c, A_ub=A, b_ub=b)
            ref = linprog(c, A_ub=A, b_ub=b, bounds=[(0, None)] * nvar, method="highs")
            if ref.status == 3:
                assert status == "unbounded"
            else:
                assert status == "optimal"
                assert objective == pytest.approx(ref.fun, abs=1e-7)


class TestScipyBackendStatuses:
    def test_infeasible_lp_reported(self, small_instance):
        lp = build_ordered_lp(small_instance, [0, 1, 2, 3])
        lp.b_eq = -np.ones_like(lp.b_eq)  # sum of non-negatives = -1
        result = solve_with_scipy(lp)
        assert result.status == "infeasible"
        assert np.isnan(result.objective)

    def test_unbounded_lp_reported(self, small_instance):
        from repro.lp.formulation import OrderedLP

        lp = OrderedLP(
            instance=small_instance,
            order=(0,),
            c=np.array([-1.0]),
            A_ub=np.zeros((0, 1)),
            b_ub=np.zeros(0),
            A_eq=np.zeros((0, 1)),
            b_eq=np.zeros(0),
            num_column_vars=1,
            area_index={},
        )
        result = solve_with_scipy(lp)
        assert result.status == "unbounded"
        assert result.objective == -np.inf


class TestOrderedRelaxation:
    def test_backends_agree(self, rng):
        # HiGHS (the scalar interface) against the lockstep kernel.
        for _ in range(5):
            inst = random_instance(rng, n=3)
            order = list(rng.permutation(3))
            a = solve_ordered_relaxation(inst, order)
            b = solve_ordered_relaxation_batch(InstanceBatch.from_instances([inst]), [order])
            assert b.backend == "batch"
            assert a.objective == pytest.approx(b.objectives[0], rel=1e-6, abs=1e-9)

    def test_schedule_is_valid(self, small_instance):
        solution = solve_ordered_relaxation(small_instance, small_instance.smith_order())
        validate_column_schedule(solution.schedule)

    def test_schedule_completion_order_matches(self, small_instance):
        order = small_instance.smith_order()
        solution = solve_ordered_relaxation(small_instance, order)
        assert solution.schedule.order == tuple(order)

    def test_uncapped_instance_matches_smith(self, uncapped_instance):
        # With delta_i = P, the best ordering LP value equals the squashed
        # area bound (Smith's rule), and the Smith ordering achieves it.
        solution = solve_ordered_relaxation(uncapped_instance, uncapped_instance.smith_order())
        assert solution.objective == pytest.approx(
            squashed_area_bound(uncapped_instance), rel=1e-6
        )

    def test_best_order_is_at_least_lower_bounds(self, small_instance):
        best = min(
            solve_ordered_relaxation(small_instance, order, build_schedule=False).objective
            for order in itertools.permutations(range(small_instance.n))
        )
        assert best >= squashed_area_bound(small_instance) - 1e-9

    def test_build_schedule_false_skips_reconstruction(self, small_instance):
        solution = solve_ordered_relaxation(
            small_instance, small_instance.smith_order(), build_schedule=False
        )
        assert solution.schedule is None
        assert solution.objective > 0

    def test_empty_instance(self):
        empty = Instance(P=1, tasks=[])
        solution = solve_ordered_relaxation(empty, [])
        assert solution.objective == 0.0

    def test_single_task_value(self):
        inst = Instance(P=4, tasks=[Task(volume=6, weight=2, delta=3)])
        solution = solve_ordered_relaxation(inst, [0])
        assert solution.objective == pytest.approx(2 * 2.0)
