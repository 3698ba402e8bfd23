"""End-to-end integration tests chaining the major subsystems together."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Instance, Task
from repro.algorithms.greedy import best_greedy_schedule
from repro.algorithms.optimal import optimal_schedule
from repro.algorithms.preemption import assign_processors
from repro.algorithms.water_filling import water_filling_schedule
from repro.algorithms.wdeq import wdeq_schedule
from repro.bandwidth.network import BandwidthScenario
from repro.bandwidth.transfer import plan_transfers, scenario_to_instance
from repro.core.batch import InstanceBatch
from repro.core.bounds import combined_lower_bound
from repro.core.validation import (
    validate_column_schedule,
    validate_processor_assignment,
)
from repro.lp.batch import optimal
from repro.simulation.nonclairvoyant import run_wdeq_online
from repro.viz.gantt import render_allocation_chart, render_processor_gantt
from repro.workloads.generators import cluster_instances, uniform_instances


class TestFullPipeline:
    """Instance -> algorithm -> normal form -> processors -> report."""

    def test_wdeq_to_processors_pipeline(self):
        instance = next(cluster_instances(12, 1, P=8.0, rng=42))
        online = run_wdeq_online(instance)
        analytic = wdeq_schedule(instance)
        np.testing.assert_allclose(
            online.completion_times, analytic.completion_times_by_task(), rtol=1e-7
        )
        normal_form = water_filling_schedule(instance, online.completion_times)
        validate_column_schedule(normal_form)
        assignment = assign_processors(normal_form)
        validate_processor_assignment(assignment)
        # Objective sandwich: lower bound <= schedule value <= 2 * lower bound.
        bound = combined_lower_bound(instance)
        value = online.weighted_completion_time()
        assert bound <= value + 1e-9
        assert value <= 2 * bound * (1 + 1e-6) + 1e-9
        # The charts render without error and mention every processor.
        chart = render_processor_gantt(assignment, width=40)
        assert chart.count("P1") == 1

    def test_optimal_greedy_wdeq_ordering_consistency(self):
        """optimal <= greedy <= WDEQ, and WDEQ <= 2 optimal (Theorem 4)."""
        for seed in range(3):
            instance = next(uniform_instances(4, 1, rng=seed))
            opt = optimal_schedule(instance).objective
            greedy = best_greedy_schedule(instance).objective
            wdeq = wdeq_schedule(instance).weighted_completion_time()
            assert opt <= greedy + 1e-9
            assert greedy <= wdeq + 1e-9 or greedy == pytest.approx(wdeq, rel=1e-9)
            assert wdeq <= 2 * opt + 1e-6

    def test_normal_form_idempotent(self):
        """Normalising a normal form changes nothing (fixed point of WF)."""
        instance = next(cluster_instances(8, 1, P=4.0, rng=7))
        targets = wdeq_schedule(instance).completion_times_by_task()
        first = water_filling_schedule(instance, targets)
        second = water_filling_schedule(instance, first.completion_times_by_task())
        np.testing.assert_allclose(first.rates, second.rates, atol=1e-7)

    def test_bandwidth_scenario_round_trip(self):
        scenario = BandwidthScenario.random(8, rng=3)
        instance = scenario_to_instance(scenario)
        plans = {p.strategy: p for p in plan_transfers(scenario)}
        # The greedy plan's completion times are feasible: WF accepts them.
        greedy_plan = plans["greedy (Smith + local search)"]
        normal_form = water_filling_schedule(instance, greedy_plan.completion_times)
        validate_column_schedule(normal_form)
        # And the equivalence of Section I: better objective <=> better
        # unclamped throughput.
        ordered_by_objective = sorted(
            plans.values(), key=lambda p: p.weighted_completion_time(scenario)
        )
        ordered_by_throughput = sorted(
            plans.values(), key=lambda p: -p.throughput(scenario, clamp=False)
        )
        assert [p.strategy for p in ordered_by_objective] == [
            p.strategy for p in ordered_by_throughput
        ]

    def test_gantt_of_every_representation(self, small_instance):
        column = wdeq_schedule(small_instance)
        continuous = column.to_continuous()
        assignment = assign_processors(
            water_filling_schedule(small_instance, column.completion_times_by_task())
        )
        assert render_allocation_chart(column, width=30)
        assert render_allocation_chart(continuous, width=30)
        assert render_processor_gantt(assignment, width=30)


class TestCrossSolverAgreement:
    """The LP backends and the greedy/optimal searches agree where they must."""

    def test_theorem11_family_agreement(self):
        from repro.workloads.generators import large_delta_instances

        for instance in large_delta_instances(4, 3, P=1.0, rng=11):
            opt_scipy = optimal_schedule(instance).objective
            batch = InstanceBatch.from_instances([instance])
            opt_simplex = optimal(batch, method="enumerate").objectives[0]
            greedy = best_greedy_schedule(instance).objective
            assert opt_scipy == pytest.approx(opt_simplex, rel=1e-6)
            assert greedy == pytest.approx(opt_scipy, rel=1e-6)

    def test_single_processor_reduces_to_smith(self):
        """With P = 1 and delta_i = 1 the problem is 1|pmtn|sum w_i C_i."""
        from repro.core.bounds import squashed_area_bound

        instance = Instance(
            P=1,
            tasks=[Task(3, 1, 1), Task(1, 2, 1), Task(2, 1, 1)],
        )
        assert optimal_schedule(instance).objective == pytest.approx(
            squashed_area_bound(instance), rel=1e-6
        )
        assert best_greedy_schedule(instance).objective == pytest.approx(
            squashed_area_bound(instance), rel=1e-6
        )
