"""Tests for WDEQ and the related online baselines (Section III)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Instance, Task
from repro.core.bounds import combined_lower_bound
from repro.core.exceptions import InvalidInstanceError
from repro.core.validation import validate_column_schedule
from tests.oracles import bruteforce_opt
from repro.algorithms.wdeq import (
    deq_schedule,
    wdeq_allocation,
    wdeq_schedule,
    weighted_round_robin_schedule,
)
from tests.conftest import random_instance


class TestWdeqAllocation:
    def test_proportional_when_no_cap_binds(self):
        alloc = wdeq_allocation(P=4, weights=[1, 3], deltas=[4, 4])
        np.testing.assert_allclose(alloc, [1.0, 3.0])

    def test_cap_binds_and_excess_redistributed(self):
        # Proportional shares would be [2, 2]; task 0 is capped at 0.5 and the
        # surplus 1.5 goes to task 1.
        alloc = wdeq_allocation(P=4, weights=[1, 1], deltas=[0.5, 4])
        np.testing.assert_allclose(alloc, [0.5, 3.5])

    def test_cascading_caps(self):
        alloc = wdeq_allocation(P=6, weights=[1, 1, 1], deltas=[1, 2, 6])
        np.testing.assert_allclose(alloc, [1.0, 2.0, 3.0])

    def test_total_never_exceeds_platform(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            weights = rng.uniform(0.1, 2.0, n)
            deltas = rng.uniform(0.1, 3.0, n)
            alloc = wdeq_allocation(P=2.5, weights=weights, deltas=deltas)
            assert alloc.sum() <= 2.5 + 1e-9
            assert np.all(alloc <= deltas + 1e-9)
            assert np.all(alloc >= 0)

    def test_all_capped_leaves_capacity_idle(self):
        alloc = wdeq_allocation(P=10, weights=[1, 1], deltas=[1, 2])
        np.testing.assert_allclose(alloc, [1.0, 2.0])

    def test_zero_weight_rejected(self):
        with pytest.raises(InvalidInstanceError):
            wdeq_allocation(P=1, weights=[0.0, 1.0], deltas=[1.0, 1.0])

    def test_mismatched_lengths(self):
        with pytest.raises(InvalidInstanceError):
            wdeq_allocation(P=1, weights=[1.0], deltas=[1.0, 1.0])

    def test_empty(self):
        assert wdeq_allocation(P=1, weights=[], deltas=[]).size == 0


class TestWdeqSchedule:
    def test_single_task(self):
        inst = Instance(P=4, tasks=[Task(volume=6, weight=1, delta=3)])
        sched = wdeq_schedule(inst)
        assert sched.completion_times_by_task()[0] == pytest.approx(2.0)

    def test_produces_valid_schedules(self, rng):
        for _ in range(10):
            inst = random_instance(rng, n=6, P=3.0)
            sched = wdeq_schedule(inst)
            validate_column_schedule(sched)

    def test_equal_tasks_finish_together(self):
        inst = Instance(P=2, tasks=[Task(1, 1, 2), Task(1, 1, 2)])
        sched = wdeq_schedule(inst)
        np.testing.assert_allclose(sched.completion_times_by_task(), [1.0, 1.0])

    def test_heavier_task_finishes_first(self):
        inst = Instance(P=2, tasks=[Task(1, 3, 2), Task(1, 1, 2)])
        sched = wdeq_schedule(inst)
        completions = sched.completion_times_by_task()
        assert completions[0] < completions[1]

    def test_weights_must_be_positive(self):
        inst = Instance(P=2, tasks=[Task(1, 0.0, 1), Task(1, 1, 1)])
        with pytest.raises(InvalidInstanceError):
            wdeq_schedule(inst)

    def test_empty_instance(self):
        sched = wdeq_schedule(Instance(P=2, tasks=[]))
        assert sched.n == 0

    def test_two_approximation_against_exact_optimum(self, rng):
        """Theorem 4 on random instances with the exact optimum as reference."""
        for _ in range(15):
            n = int(rng.integers(2, 6))
            inst = random_instance(rng, n=n, P=1.0)
            ratio = wdeq_schedule(inst).weighted_completion_time() / bruteforce_opt(inst)
            assert ratio <= 2.0 + 1e-6

    def test_two_approximation_against_lower_bound_larger_instances(self, rng):
        for _ in range(5):
            inst = random_instance(rng, n=20, P=8.0)
            ratio = wdeq_schedule(inst).weighted_completion_time() / combined_lower_bound(inst)
            assert ratio <= 2.0 + 1e-6


class TestBaselines:
    def test_deq_ignores_weights(self):
        weighted = Instance(P=2, tasks=[Task(1, 5, 2), Task(1, 1, 2)])
        sched = deq_schedule(weighted)
        # With equal shares the two identical-volume tasks finish together.
        completions = sched.completion_times_by_task()
        assert completions[0] == pytest.approx(completions[1])

    def test_deq_reports_weighted_objective_of_original_instance(self):
        weighted = Instance(P=2, tasks=[Task(1, 5, 2), Task(1, 1, 2)])
        sched = deq_schedule(weighted)
        assert sched.weighted_completion_time() == pytest.approx(6 * 1.0)

    def test_wdeq_never_worse_than_deq_on_skewed_weights(self):
        inst = Instance(
            P=2,
            tasks=[Task(4, 10, 2), Task(4, 0.1, 2), Task(4, 0.1, 2)],
        )
        assert (
            wdeq_schedule(inst).weighted_completion_time()
            <= deq_schedule(inst).weighted_completion_time() + 1e-9
        )

    def test_wrr_relaxes_caps(self):
        inst = Instance(P=4, tasks=[Task(4, 1, 1), Task(4, 1, 1)])
        wrr = weighted_round_robin_schedule(inst)
        # Without caps both tasks finish at 2 (sharing 4 processors); with the
        # caps they would need 4 time units.
        assert wrr.makespan() == pytest.approx(2.0)
        assert wdeq_schedule(inst).makespan() == pytest.approx(4.0)

    def test_wrr_empty(self):
        assert weighted_round_robin_schedule(Instance(P=1, tasks=[])).n == 0
