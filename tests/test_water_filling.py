"""Tests for the Water-Filling normal-form algorithm (Section IV)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Instance, Task
from repro.core.exceptions import InfeasibleScheduleError, InvalidScheduleError
from repro.core.validation import validate_column_schedule
from repro.algorithms.water_filling import (
    water_fill_function,
    water_filling_levels,
    water_filling_schedule,
)
from repro.algorithms.wdeq import wdeq_schedule
from repro.algorithms.greedy import greedy_completion_times
from tests.oracles import bruteforce_schedule
from tests.conftest import random_instance


class TestWaterFillFunction:
    def test_flat_profile(self):
        lengths = np.array([1.0, 1.0])
        heights = np.zeros(2)
        assert water_fill_function(lengths, heights, delta=2.0, level=1.5) == pytest.approx(3.0)

    def test_cap_applies(self):
        lengths = np.array([1.0])
        heights = np.zeros(1)
        assert water_fill_function(lengths, heights, delta=1.0, level=5.0) == pytest.approx(1.0)

    def test_below_heights_gives_zero(self):
        lengths = np.array([1.0, 2.0])
        heights = np.array([3.0, 2.0])
        assert water_fill_function(lengths, heights, delta=4.0, level=1.0) == 0.0


class TestWaterFillingBasics:
    def test_single_task(self):
        inst = Instance(P=2, tasks=[Task(volume=2, delta=2)])
        sched = water_filling_schedule(inst, [1.0])
        validate_column_schedule(sched)
        assert sched.rates[0, 0] == pytest.approx(2.0)

    def test_infeasible_raises(self):
        inst = Instance(P=2, tasks=[Task(volume=10, delta=2)])
        with pytest.raises(InfeasibleScheduleError):
            water_filling_schedule(inst, [1.0])

    def test_infeasible_due_to_cap(self):
        # Enough platform capacity but the per-task cap makes the deadline impossible.
        inst = Instance(P=4, tasks=[Task(volume=4, delta=1)])
        with pytest.raises(InfeasibleScheduleError):
            water_filling_schedule(inst, [2.0])

    def test_zero_completion_time_with_volume_is_infeasible(self):
        inst = Instance(P=2, tasks=[Task(volume=1, delta=2)])
        with pytest.raises(InfeasibleScheduleError):
            water_filling_schedule(inst, [0.0])

    def test_wrong_number_of_completion_times(self, small_instance):
        with pytest.raises(InvalidScheduleError):
            water_filling_schedule(small_instance, [1.0, 2.0])

    def test_negative_completion_time_rejected(self):
        inst = Instance(P=2, tasks=[Task(volume=1, delta=2)])
        with pytest.raises(InvalidScheduleError):
            water_filling_schedule(inst, [-1.0])

    def test_two_tasks_hand_computed(self):
        # P = 2, T0: V=1, delta=1 completing at 1; T1: V=3, delta=2 completing at 2.
        # Column 1 ([0,1]): T0 at 1.  T1 pours: column 2 first (height 0),
        # saturating at 2 gives area 2, remaining 1 goes to column 1 at rate 1.
        inst = Instance(P=2, tasks=[Task(1, 1, 1), Task(3, 1, 2)])
        sched = water_filling_schedule(inst, [1.0, 2.0])
        validate_column_schedule(sched)
        assert sched.rates[0, 0] == pytest.approx(1.0)
        assert sched.rates[1, 0] == pytest.approx(1.0)
        assert sched.rates[1, 1] == pytest.approx(2.0)

    def test_ties_in_completion_times(self):
        inst = Instance(P=2, tasks=[Task(1, 1, 1), Task(1, 1, 1)])
        sched = water_filling_schedule(inst, [1.0, 1.0])
        validate_column_schedule(sched)
        np.testing.assert_allclose(sched.completion_times_by_task(), [1.0, 1.0])


class TestWaterFillingStructure:
    def test_occupancy_non_increasing(self, rng):
        """Lemma 3: after each task the column occupancy is non-increasing in time."""
        for _ in range(10):
            inst = random_instance(rng, n=5, P=2.0)
            completions = wdeq_schedule(inst).completion_times_by_task()
            sched, _levels = water_filling_levels(inst, completions)
            lengths = sched.column_lengths
            active = lengths > 1e-9
            occupancy = np.zeros(inst.n)
            for pos, task in enumerate(sched.order):
                occupancy += sched.rates[task]
                values = occupancy[: pos + 1][active[: pos + 1]]
                assert np.all(np.diff(values) <= 1e-7)

    def test_per_task_allocation_non_decreasing_over_time(self, rng):
        """Lemma 6's premise: a task's allocation never decreases before completion."""
        for _ in range(10):
            inst = random_instance(rng, n=5, P=2.0)
            completions = wdeq_schedule(inst).completion_times_by_task()
            sched = water_filling_schedule(inst, completions)
            lengths = sched.column_lengths
            for i in range(inst.n):
                pos = sched.position_of(i)
                rates = [
                    sched.rates[i, j]
                    for j in range(pos + 1)
                    if lengths[j] > 1e-9 and sched.rates[i, j] > 1e-9
                ]
                assert all(b >= a - 1e-7 for a, b in zip(rates, rates[1:]))

    def test_levels_never_exceed_platform(self, rng):
        """The water level chosen for every task stays within the platform."""
        for _ in range(5):
            inst = random_instance(rng, n=5, P=2.0)
            completions = wdeq_schedule(inst).completion_times_by_task()
            _sched, levels = water_filling_levels(inst, completions)
            assert np.all(levels <= inst.P + 1e-9)

    def test_change_count_bound_theorem9(self, rng):
        """Theorem 9: at most n allocation changes (paper accounting)."""
        for _ in range(15):
            n = int(rng.integers(2, 9))
            inst = random_instance(rng, n=n, P=4.0)
            completions = wdeq_schedule(inst).completion_times_by_task()
            sched = water_filling_schedule(inst, completions)
            assert sched.allocation_change_count(convention="paper") <= n
            assert sched.allocation_change_count(convention="all") <= 2 * n


class TestWaterFillingCorrectness:
    """Theorem 8: WF succeeds on completion times coming from valid schedules."""

    @pytest.mark.parametrize("source", ["wdeq", "greedy", "optimal"])
    def test_reconstructs_valid_schedule(self, rng, source):
        for _ in range(5):
            inst = random_instance(rng, n=4, P=2.0)
            if source == "wdeq":
                targets = wdeq_schedule(inst).completion_times_by_task()
            elif source == "greedy":
                targets = greedy_completion_times(inst, inst.smith_order())
            else:
                targets = bruteforce_schedule(inst).completion_times_by_task()
            sched = water_filling_schedule(inst, targets)
            validate_column_schedule(sched)
            np.testing.assert_allclose(
                sched.completion_times_by_task(), targets, rtol=1e-9, atol=1e-9
            )

    def test_objective_preserved(self, rng):
        for _ in range(5):
            inst = random_instance(rng, n=5, P=3.0)
            wdeq = wdeq_schedule(inst)
            normalised = water_filling_schedule(inst, wdeq.completion_times_by_task())
            assert normalised.weighted_completion_time() == pytest.approx(
                wdeq.weighted_completion_time()
            )
