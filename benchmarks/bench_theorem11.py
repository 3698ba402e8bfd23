"""Benchmark E4 — greedy optimality under the Theorem 11 hypothesis."""

from __future__ import annotations

import pytest

from repro.algorithms.greedy import best_greedy_schedule
from repro.core.batch import InstanceBatch
from repro.experiments import run_experiment
from repro.experiments.exp_theorem11 import optimal_schedule_structure_ok
from repro.lp import optimal, solve_ordered_relaxation_batch


def test_greedy_equals_optimal_large_delta(benchmark, large_delta_instance_n5):
    batch = InstanceBatch.from_instances([large_delta_instance_n5])

    def compare():
        greedy = best_greedy_schedule(large_delta_instance_n5).objective
        return greedy, float(optimal(batch).objectives[0])

    greedy, opt = benchmark(compare)
    assert greedy == pytest.approx(opt, rel=1e-6)


def test_structure_check_on_lp_optimum(benchmark, large_delta_instance_n5):
    batch = InstanceBatch.from_instances([large_delta_instance_n5])
    solution = solve_ordered_relaxation_batch(batch, optimal(batch).orders, build_schedules=True)
    ok = benchmark(optimal_schedule_structure_ok, solution.schedules()[0])
    assert ok


@pytest.mark.benchmark(group="experiment-runs")
def test_experiment_e4_quick(benchmark):
    result = benchmark.pedantic(
        run_experiment,
        args=("E4",),
        kwargs={"sizes": (2, 3, 4), "count": 3},
        iterations=1,
        rounds=1,
    )
    assert result.summary["greedy always optimal"] is True
