"""Unit tests for the lower bounds (repro.core.bounds)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Instance, Task
from repro.core.bounds import (
    combined_lower_bound,
    height_bound,
    mixed_lower_bound,
    smith_rule_value,
    squashed_area_bound,
)
from repro.core.exceptions import InvalidInstanceError
from tests.oracles import bruteforce_opt
from tests.conftest import random_instance


class TestSmithRule:
    def test_single_task(self):
        assert smith_rule_value(2.0, np.array([4.0]), np.array([1.0])) == pytest.approx(2.0)

    def test_two_tasks_order_matters(self):
        # Smith order puts the (V=1, w=2) task first: 2*1 + 1*(1+4) = 7, /P=1.
        value = smith_rule_value(1.0, np.array([4.0, 1.0]), np.array([1.0, 2.0]))
        assert value == pytest.approx(2 * 1 + 1 * 5)

    def test_zero_weight_scheduled_last(self):
        value = smith_rule_value(1.0, np.array([5.0, 1.0]), np.array([0.0, 1.0]))
        # The weighted task completes at 1, the zero-weight one contributes 0.
        assert value == pytest.approx(1.0)

    def test_empty(self):
        assert smith_rule_value(1.0, np.array([]), np.array([])) == 0.0


class TestSquashedArea:
    def test_matches_manual_computation(self, uncapped_instance):
        # Volumes 3, 6, 1.5 weights 1, 2, 1, P = 3; Smith order: T1 (3), T2(... )
        # ratios: 3, 3, 1.5 -> order [2, 0, 1]; completions (1.5, 4.5, 10.5)/3.
        expected = (1 * 1.5 + 1 * 4.5 + 2 * 10.5) / 3
        assert squashed_area_bound(uncapped_instance) == pytest.approx(expected)

    def test_equals_optimal_when_uncapped(self, uncapped_instance):
        # With delta_i = P the problem reduces to single-machine WSPT, whose
        # optimum is exactly the squashed area bound.
        assert squashed_area_bound(uncapped_instance) == pytest.approx(
            bruteforce_opt(uncapped_instance), rel=1e-6
        )

    def test_empty_instance(self):
        assert squashed_area_bound(Instance(P=1, tasks=[])) == 0.0


class TestHeightBound:
    def test_value(self, small_instance):
        expected = float(np.dot(small_instance.weights, small_instance.heights))
        assert height_bound(small_instance) == pytest.approx(expected)

    def test_empty_instance(self):
        assert height_bound(Instance(P=1, tasks=[])) == 0.0

    def test_equals_optimal_for_single_task(self):
        inst = Instance(P=4, tasks=[Task(volume=6, weight=2, delta=3)])
        assert height_bound(inst) == pytest.approx(bruteforce_opt(inst))


class TestMixedBound:
    def test_extreme_fractions_recover_pure_bounds(self, small_instance):
        n = small_instance.n
        assert mixed_lower_bound(small_instance, np.ones(n)) == pytest.approx(
            squashed_area_bound(small_instance)
        )
        assert mixed_lower_bound(small_instance, np.zeros(n)) == pytest.approx(
            height_bound(small_instance)
        )

    def test_invalid_fraction_shape(self, small_instance):
        with pytest.raises(InvalidInstanceError):
            mixed_lower_bound(small_instance, [0.5])

    def test_invalid_fraction_range(self, small_instance):
        with pytest.raises(InvalidInstanceError):
            mixed_lower_bound(small_instance, [0.5, 0.5, 1.5, 0.5])

    def test_is_lower_bound_on_random_instances(self, rng):
        for _ in range(10):
            inst = random_instance(rng, n=3)
            opt = bruteforce_opt(inst)
            for frac in (0.0, 0.3, 0.7, 1.0):
                bound = mixed_lower_bound(inst, np.full(inst.n, frac))
                assert bound <= opt * (1 + 1e-6) + 1e-9


class TestCombinedBound:
    def test_at_least_each_pure_bound(self, small_instance):
        combined = combined_lower_bound(small_instance)
        assert combined >= squashed_area_bound(small_instance) - 1e-12
        assert combined >= height_bound(small_instance) - 1e-12

    def test_still_a_lower_bound(self, rng):
        for _ in range(10):
            inst = random_instance(rng, n=4)
            assert combined_lower_bound(inst) <= bruteforce_opt(inst) * (1 + 1e-6) + 1e-9

    def test_empty_instance(self):
        assert combined_lower_bound(Instance(P=1, tasks=[])) == 0.0
