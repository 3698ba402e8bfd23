"""Tests for the brute-force optimal solver and the ordering heuristics."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Instance, Task
from repro.core.batch import InstanceBatch
from repro.core.bounds import combined_lower_bound, height_bound, squashed_area_bound
from repro.core.exceptions import InvalidInstanceError, InvalidScheduleError
from repro.core.validation import validate_column_schedule
from repro.algorithms.optimal import optimal_over_orders, optimal_schedule, optimal_value
from repro.algorithms.ordering import ORDERING_HEURISTICS, order_by
from repro.lp.batch import optimal
from tests.conftest import random_instance


class TestOptimal:
    def test_single_task(self):
        inst = Instance(P=4, tasks=[Task(volume=6, weight=2, delta=3)])
        result = optimal_schedule(inst)
        assert result.objective == pytest.approx(4.0)
        assert result.order == (0,)

    def test_schedule_is_valid(self, small_instance):
        result = optimal_schedule(small_instance)
        validate_column_schedule(result.schedule)

    def test_optimal_at_least_lower_bounds(self, rng):
        for _ in range(8):
            inst = random_instance(rng, n=4, P=2.0)
            opt = optimal_value(inst)
            assert opt >= squashed_area_bound(inst) - 1e-7
            assert opt >= height_bound(inst) - 1e-7
            assert opt >= combined_lower_bound(inst) - 1e-7

    def test_orderings_evaluated(self, small_instance):
        result = optimal_schedule(small_instance, build_schedule=False)
        assert result.orderings_evaluated == 24

    def test_too_many_tasks_guarded(self, rng):
        inst = random_instance(rng, n=10, P=4.0)
        with pytest.raises(InvalidInstanceError):
            optimal_schedule(inst)

    def test_empty_instance(self):
        result = optimal_schedule(Instance(P=1, tasks=[]))
        assert result.objective == 0.0

    def test_backends_agree_on_optimum(self, rng):
        # HiGHS enumeration against the lockstep kernel's enumeration.
        inst = random_instance(rng, n=3, P=1.0)
        lockstep = optimal(InstanceBatch.from_instances([inst]), method="enumerate")
        assert optimal_value(inst) == pytest.approx(lockstep.objectives[0], rel=1e-6)

    def test_restricted_order_search(self, small_instance):
        smith = small_instance.smith_order()
        restricted = optimal_over_orders(small_instance, [smith])
        full = optimal_schedule(small_instance)
        assert restricted.objective >= full.objective - 1e-9
        assert restricted.orderings_evaluated == 1

    def test_restricted_search_requires_orders(self, small_instance):
        with pytest.raises(InvalidInstanceError):
            optimal_over_orders(small_instance, [])

    def test_uncapped_optimum_is_smith(self, uncapped_instance):
        assert optimal_value(uncapped_instance) == pytest.approx(
            squashed_area_bound(uncapped_instance), rel=1e-6
        )


class TestOrderingHeuristics:
    def test_all_heuristics_produce_permutations(self, small_instance):
        for name in ORDERING_HEURISTICS:
            order = order_by(small_instance, name)
            assert sorted(order) == list(range(small_instance.n))

    def test_smith_order(self, small_instance):
        assert order_by(small_instance, "smith") == [3, 0, 2, 1]

    def test_identity(self, small_instance):
        assert order_by(small_instance, "identity") == [0, 1, 2, 3]

    def test_volume_order(self, small_instance):
        assert order_by(small_instance, "volume") == [2, 0, 3, 1]

    def test_weight_order(self, small_instance):
        assert order_by(small_instance, "weight") == [3, 0, 1, 2]

    def test_delta_order(self, small_instance):
        assert order_by(small_instance, "delta") == [3, 1, 0, 2]

    def test_weighted_height_order_handles_zero_weight(self):
        inst = Instance(P=2, tasks=[Task(1, 0.0, 1), Task(1, 1, 1)])
        assert order_by(inst, "weighted_height") == [1, 0]

    def test_unknown_heuristic(self, small_instance):
        with pytest.raises(InvalidScheduleError):
            order_by(small_instance, "nope")
