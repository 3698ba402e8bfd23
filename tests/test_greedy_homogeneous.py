"""Tests for the Section V-B homogeneous greedy recurrence."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.exceptions import InvalidInstanceError, InvalidScheduleError
from repro.algorithms.greedy import greedy_completion_times
from repro.algorithms.greedy_homogeneous import (
    homogeneous_best_order,
    homogeneous_greedy_completion_times,
    homogeneous_greedy_value,
    homogeneous_instance,
    is_homogeneous_instance,
)


class TestRecurrence:
    def test_single_task(self):
        np.testing.assert_allclose(
            homogeneous_greedy_completion_times([0.8]), [1 / 0.8]
        )

    def test_two_tasks_hand_computed(self):
        # delta = (1.0, 0.5): C1 = 1, C2 = 1 + (1 - 0*1)/0.5 = 3.
        np.testing.assert_allclose(
            homogeneous_greedy_completion_times([1.0, 0.5]), [1.0, 3.0]
        )

    def test_leftover_resource_used_by_next_task(self):
        # delta = (0.5, 0.5): column 1 leaves 0.5 for task 2, which therefore
        # has only 1 - 0.5*2 = 0 remaining?  No: leftover = (1-0.5)*2 = 1, so
        # task 2 completes exactly at C1 = 2... the recurrence gives C2 = 2.
        np.testing.assert_allclose(
            homogeneous_greedy_completion_times([0.5, 0.5]), [2.0, 2.0]
        )

    def test_matches_profile_based_greedy(self, rng):
        """The closed form must agree with the general greedy simulator."""
        for _ in range(20):
            n = int(rng.integers(1, 7))
            deltas = rng.uniform(0.5, 1.0, n)
            order = list(rng.permutation(n))
            closed_form = homogeneous_greedy_completion_times(deltas, order)
            inst = homogeneous_instance(deltas)
            simulated = greedy_completion_times(inst, order)
            # closed_form is indexed by scheduling position; re-index by task.
            by_task = np.zeros(n)
            for pos, task in enumerate(order):
                by_task[task] = closed_form[pos]
            np.testing.assert_allclose(by_task, simulated, rtol=1e-9, atol=1e-9)

    def test_value_is_sum_of_completions(self):
        deltas = [0.9, 0.6, 0.7]
        value = homogeneous_greedy_value(deltas)
        assert value == pytest.approx(homogeneous_greedy_completion_times(deltas).sum())

    def test_invalid_order(self):
        with pytest.raises(InvalidScheduleError):
            homogeneous_greedy_completion_times([0.6, 0.7], order=[0, 0])

    def test_delta_out_of_range(self):
        with pytest.raises(InvalidInstanceError):
            homogeneous_greedy_completion_times([0.4, 0.8])
        with pytest.raises(InvalidInstanceError):
            homogeneous_greedy_completion_times([1.2])


class TestConjecture13:
    def test_reversal_symmetry_exhaustive_small(self, rng):
        """Conjecture 13: value(order) == value(reversed order)."""
        for _ in range(10):
            n = int(rng.integers(2, 7))
            deltas = rng.uniform(0.5, 1.0, n)
            for order in itertools.permutations(range(n)):
                forward = homogeneous_greedy_value(deltas, order)
                backward = homogeneous_greedy_value(deltas, list(reversed(order)))
                assert forward == pytest.approx(backward, rel=1e-9)
                break  # one order per instance keeps the test fast

    def test_reversal_symmetry_up_to_15_tasks_sampled(self, rng):
        for n in (10, 15):
            deltas = rng.uniform(0.5, 1.0, n)
            for _ in range(5):
                order = list(rng.permutation(n))
                forward = homogeneous_greedy_value(deltas, order)
                backward = homogeneous_greedy_value(deltas, list(reversed(order)))
                assert forward == pytest.approx(backward, rel=1e-9)


class TestBestOrder:
    def test_best_order_beats_identity(self, rng):
        deltas = rng.uniform(0.5, 1.0, 5)
        order, value = homogeneous_best_order(deltas)
        assert value <= homogeneous_greedy_value(deltas) + 1e-12
        assert sorted(order) == list(range(5))

    def test_nine_tasks(self, rng):
        # Beyond 8 tasks the orders are scored block by block.
        deltas = rng.uniform(0.5, 1.0, 9)
        order, value = homogeneous_best_order(deltas)
        assert value == pytest.approx(homogeneous_greedy_value(deltas, order), rel=1e-12)
        for _ in range(20):
            other = rng.permutation(9)
            assert value <= homogeneous_greedy_value(deltas, other) * (1 + 1e-12)

    def test_too_many_tasks_guarded(self):
        with pytest.raises(InvalidInstanceError):
            homogeneous_best_order([0.6] * 11)

    def test_empty(self):
        order, value = homogeneous_best_order([])
        assert order == ()
        assert value == 0.0


class TestInstanceHelpers:
    def test_homogeneous_instance_valid(self):
        inst = homogeneous_instance([0.5, 0.8, 1.0])
        assert inst.P == 1.0
        assert is_homogeneous_instance(inst)

    def test_homogeneous_instance_rejects_bad_delta(self):
        with pytest.raises(InvalidInstanceError):
            homogeneous_instance([0.3])

    def test_is_homogeneous_rejects_other_instances(self, small_instance):
        assert not is_homogeneous_instance(small_instance)
