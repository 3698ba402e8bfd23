"""Tests for the Theorem 3 conversions (repro.core.conversion)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Instance, Task
from repro.core.conversion import (
    column_to_continuous,
    column_to_processor_assignment,
    continuous_to_column,
    processor_assignment_to_continuous,
)
from repro.core.exceptions import InvalidScheduleError
from repro.core.schedule import ColumnSchedule, ContinuousSchedule
from repro.core.validation import (
    validate_column_schedule,
    validate_continuous_schedule,
    validate_processor_assignment,
)
from repro.algorithms.wdeq import wdeq_schedule
from repro.simulation.engine import simulate
from repro.simulation.policies import PriorityPolicy
from tests.conftest import random_instance


@pytest.fixture
def fractional_schedule() -> ColumnSchedule:
    """A valid column schedule with genuinely fractional rates (P = 3)."""
    inst = Instance(P=3, tasks=[Task(3, 1, 2), Task(4.5, 2, 3), Task(1.5, 1, 1)])
    return wdeq_schedule(inst)


class TestColumnToContinuous:
    def test_round_trip_preserves_completion_times(self, fractional_schedule):
        continuous = column_to_continuous(fractional_schedule)
        validate_continuous_schedule(continuous)
        np.testing.assert_allclose(
            np.sort(continuous.completion_times()),
            np.sort(fractional_schedule.completion_times_by_task()),
            rtol=1e-9,
        )

    def test_objective_preserved(self, fractional_schedule):
        continuous = column_to_continuous(fractional_schedule)
        assert continuous.weighted_completion_time() == pytest.approx(
            fractional_schedule.weighted_completion_time()
        )

    def test_empty_instance(self):
        inst = Instance(P=1, tasks=[])
        sched = ColumnSchedule(inst, [], [], np.zeros((0, 0)))
        continuous = column_to_continuous(sched)
        assert continuous.n == 0


class TestContinuousToColumn:
    def test_round_trip(self, fractional_schedule):
        continuous = column_to_continuous(fractional_schedule)
        back = continuous_to_column(continuous)
        validate_column_schedule(back)
        np.testing.assert_allclose(
            back.completion_times_by_task(),
            fractional_schedule.completion_times_by_task(),
            rtol=1e-9,
        )

    def test_averaging_respects_caps_and_capacity(self, rng):
        # Theorem 3 (second half): averaging a valid continuous schedule per
        # column keeps it valid.
        for _ in range(5):
            inst = random_instance(rng, n=4, P=2.0)
            sched = wdeq_schedule(inst)
            continuous = column_to_continuous(sched)
            column = continuous_to_column(continuous)
            validate_column_schedule(column)


    def test_columns_spanning_several_intervals_average_the_rates(self):
        # Releases under a priority policy reshare between completions, and
        # the hand-built schedule ends two tasks together, so its middle
        # column spans two intervals and its last column is empty.
        released = simulate(
            Instance(P=2, tasks=[Task(2, 1, 1), Task(3, 2, 2), Task(1, 1, 1.5), Task(2, 3, 1)]),
            PriorityPolicy([3.0, 2.0, 1.0, 0.0]),
            release_times=[0.0, 0.5, 1.25, 2.0],
        ).schedule
        simultaneous = ContinuousSchedule(
            Instance(P=2, tasks=[Task(1, 1, 1), Task(2.5, 1, 2), Task(2.5, 1, 2)]),
            [0.0, 1.0, 2.0, 3.0],
            np.array([[1.0, 0.0, 0.0], [1.0, 0.5, 1.0], [0.0, 1.5, 1.0]]),
        )
        for continuous in (released, simultaneous):
            column = continuous_to_column(continuous)
            assert continuous.num_intervals > np.count_nonzero(column.column_lengths)
            completions = continuous.completion_times()
            assert list(column.order) == sorted(range(column.n), key=lambda i: (completions[i], i))
            np.testing.assert_array_equal(column.completion_times, np.sort(completions))
            # Integrate d_i(t) over every column piece by piece between the
            # breakpoints and column boundaries that fall inside it.
            expected = np.zeros((column.n, column.n))
            start = 0.0
            for j, end in enumerate(column.completion_times):
                if end - start > 1e-12:
                    inside = continuous.breakpoints[
                        (continuous.breakpoints > start) & (continuous.breakpoints < end)
                    ]
                    points = [start, *inside, end]
                    for i in range(column.n):
                        area = sum(
                            continuous.rate_at(i, lo) * (hi - lo)
                            for lo, hi in zip(points, points[1:])
                        )
                        expected[i, j] = area / (end - start)
                start = end
            np.testing.assert_allclose(column.rates, expected, rtol=1e-12, atol=1e-12)
            validate_column_schedule(column)
        np.testing.assert_allclose(
            continuous_to_column(simultaneous).rates[:, 1:], [[0, 0], [0.75, 0], [1.25, 0]]
        )


class TestColumnToProcessorAssignment:
    def test_integer_platform_required(self):
        inst = Instance(P=2.5, tasks=[Task(1, 1, 1)])
        sched = wdeq_schedule(inst)
        with pytest.raises(InvalidScheduleError):
            column_to_processor_assignment(sched)

    def test_assignment_valid_and_never_late(self, fractional_schedule):
        assignment = column_to_processor_assignment(fractional_schedule)
        validate_processor_assignment(assignment)
        # A task may finish *earlier* in the concrete assignment (its last
        # chunk can end before the column does) but never later, so the
        # objective can only improve.
        targets = fractional_schedule.completion_times_by_task()
        lateness = assignment.completion_times() - targets
        assert float(np.max(lateness)) <= 1e-6
        assert assignment.weighted_completion_time() <= (
            fractional_schedule.weighted_completion_time() + 1e-6
        )

    def test_task_uses_floor_or_ceil_processors(self, fractional_schedule):
        # Theorem 3: at every instant a task uses floor(d) or ceil(d)
        # processors; in particular never more than ceil(delta) <= delta for
        # integer caps.
        assignment = column_to_processor_assignment(fractional_schedule)
        inst = fractional_schedule.instance
        for i in range(inst.n):
            assert assignment.max_simultaneous_processors(i) <= int(np.ceil(inst.deltas[i]))

    def test_overfull_column_rejected(self):
        inst = Instance(P=1, tasks=[Task(1, 1, 1), Task(1, 1, 1)])
        rates = np.array([[1.0, 0.0], [1.0, 0.0]])  # both tasks at rate 1 in column 0
        sched = ColumnSchedule(inst, [0, 1], [1.0, 1.0], rates)
        with pytest.raises(InvalidScheduleError):
            column_to_processor_assignment(sched)

    def test_random_round_trip_volumes(self, rng):
        for _ in range(5):
            inst = random_instance(rng, n=5, P=4.0, integer=True)
            sched = wdeq_schedule(inst)
            assignment = column_to_processor_assignment(sched)
            np.testing.assert_allclose(
                assignment.processed_volumes(), inst.volumes, rtol=1e-6, atol=1e-6
            )


class TestProcessorAssignmentToContinuous:
    def test_round_trip_volumes(self, fractional_schedule):
        assignment = column_to_processor_assignment(fractional_schedule)
        continuous = processor_assignment_to_continuous(assignment)
        np.testing.assert_allclose(
            continuous.processed_volumes(),
            fractional_schedule.instance.volumes,
            rtol=1e-6,
            atol=1e-6,
        )

    def test_counts_are_integral(self, fractional_schedule):
        assignment = column_to_processor_assignment(fractional_schedule)
        continuous = processor_assignment_to_continuous(assignment)
        lengths = continuous.interval_lengths
        significant = lengths > 1e-9
        rates = continuous.rates[:, significant]
        np.testing.assert_allclose(rates, np.rint(rates), atol=1e-6)
