"""Tests for the event-driven simulation engine and the online policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Instance, Task
from repro.core.exceptions import SimulationError
from repro.core.validation import validate_continuous_schedule
from repro.algorithms.wdeq import wdeq_schedule
from repro.simulation.engine import simulate
from repro.simulation.nonclairvoyant import compare_policies, default_policies, run_wdeq_online
from repro.simulation.policies import (
    DeqPolicy,
    FairShareNoCapPolicy,
    PriorityPolicy,
    WdeqPolicy,
)
from tests.conftest import random_instance


def _columns(count: int = 2):
    """The public columns of ``count`` active tasks, as the engine passes them."""
    return (
        np.arange(count),
        np.array([1.0, 3.0])[:count],
        np.array([1.0, 4.0])[:count],
        np.zeros(count),
        np.zeros(count),
    )


class TestPolicies:
    def test_wdeq_policy_matches_allocation_rule(self):
        alloc = WdeqPolicy().allocate(4.0, *_columns())
        assert alloc[0] == pytest.approx(1.0)
        assert alloc[1] == pytest.approx(3.0)

    def test_deq_policy_ignores_weights(self):
        alloc = DeqPolicy().allocate(4.0, *_columns())
        assert alloc[0] == pytest.approx(1.0)
        assert alloc[1] == pytest.approx(3.0)  # cap absorbs the leftover

    def test_fair_share_no_cap(self):
        alloc = FairShareNoCapPolicy().allocate(4.0, *_columns())
        assert alloc[0] == pytest.approx(1.0)  # min(delta, 4 * 1/4)
        assert alloc[1] == pytest.approx(3.0)

    def test_priority_policy(self):
        policy = PriorityPolicy(priorities=[0.0, 1.0])
        alloc = policy.allocate(4.0, *_columns())
        assert alloc[1] == pytest.approx(4.0)
        assert alloc[0] == pytest.approx(0.0)

    def test_empty_task_list(self):
        assert WdeqPolicy().allocate(4.0, *_columns(0)).shape == (0,)
        assert DeqPolicy().allocate(4.0, *_columns(0)).shape == (0,)


class TestEngine:
    def test_online_wdeq_matches_analytic_schedule(self, rng):
        """The event-driven WDEQ must match the closed-form column simulation."""
        for _ in range(10):
            inst = random_instance(rng, n=5, P=2.0)
            online = run_wdeq_online(inst)
            analytic = wdeq_schedule(inst)
            np.testing.assert_allclose(
                online.completion_times,
                analytic.completion_times_by_task(),
                rtol=1e-7,
                atol=1e-9,
            )

    def test_schedule_output_is_valid(self, rng):
        for _ in range(5):
            inst = random_instance(rng, n=5, P=2.0)
            result = simulate(inst, DeqPolicy())
            validate_continuous_schedule(result.schedule)

    def test_release_times_respected(self):
        inst = Instance(P=1, tasks=[Task(1, 1, 1), Task(1, 1, 1)])
        result = simulate(inst, DeqPolicy(), release_times=[0.0, 5.0])
        assert result.completion_times[0] == pytest.approx(1.0)
        assert result.completion_times[1] == pytest.approx(6.0)
        assert any(e.task == 1 and e.time == 5.0 for e in result.trace.release_events)

    def test_idle_gap_recorded(self):
        inst = Instance(P=1, tasks=[Task(1, 1, 1)])
        result = simulate(inst, DeqPolicy(), release_times=[2.0])
        assert result.completion_times[0] == pytest.approx(3.0)

    def test_trace_completion_order(self):
        inst = Instance(P=2, tasks=[Task(1, 1, 1), Task(4, 1, 2)])
        result = simulate(inst, DeqPolicy())
        assert result.trace.completion_order() == [0, 1]
        assert result.trace.num_reshares >= 2

    def test_objective_helpers(self, small_instance):
        result = simulate(small_instance, WdeqPolicy())
        assert result.weighted_completion_time() == pytest.approx(
            wdeq_schedule(small_instance).weighted_completion_time()
        )
        assert result.makespan() > 0

    def test_empty_instance(self):
        result = simulate(Instance(P=1, tasks=[]), WdeqPolicy())
        assert result.completion_times.size == 0

    def test_oversubscribing_policy_rejected(self):
        class Greedy(FairShareNoCapPolicy):
            def allocate(self, P, task_ids, weights, deltas, work_done, elapsed):
                return np.full(task_ids.size, P)

        inst = Instance(P=2, tasks=[Task(1, 1, 2), Task(1, 1, 2)])
        with pytest.raises(SimulationError):
            simulate(inst, Greedy())

    def test_stalling_policy_rejected(self):
        class Lazy(FairShareNoCapPolicy):
            def allocate(self, P, task_ids, weights, deltas, work_done, elapsed):
                return np.zeros(task_ids.size)

        inst = Instance(P=2, tasks=[Task(1, 1, 2)])
        with pytest.raises(SimulationError):
            simulate(inst, Lazy())

    def test_negative_rate_rejected(self):
        class Negative(FairShareNoCapPolicy):
            def allocate(self, P, task_ids, weights, deltas, work_done, elapsed):
                return np.full(task_ids.size, -1.0)

        inst = Instance(P=2, tasks=[Task(1, 1, 2)])
        with pytest.raises(SimulationError):
            simulate(inst, Negative())

    def test_bad_release_times(self, small_instance):
        with pytest.raises(SimulationError):
            simulate(small_instance, WdeqPolicy(), release_times=[1.0])
        with pytest.raises(SimulationError):
            simulate(small_instance, WdeqPolicy(), release_times=[-1.0, 0, 0, 0])


class TestPolicyComparison:
    def test_default_policies_line_up(self, small_instance):
        policies = default_policies(small_instance)
        names = {p.name for p in policies}
        assert {"WDEQ", "DEQ"}.issubset(names)

    def test_compare_policies_runs_everything(self, small_instance):
        results = compare_policies(small_instance)
        assert set(results) == {p.name for p in default_policies(small_instance)}
        for result in results.values():
            assert np.all(result.completion_times > 0)

    def test_wdeq_beats_deq_on_weight_skewed_instance(self):
        inst = Instance(
            P=2, tasks=[Task(4, 10, 2), Task(4, 0.1, 2), Task(4, 0.1, 2)]
        )
        results = compare_policies(inst, policies=[WdeqPolicy(), DeqPolicy()])
        wdeq_value = results["WDEQ"].weighted_completion_time()
        deq_value = results["DEQ"].weighted_completion_time()
        assert wdeq_value <= deq_value + 1e-9
