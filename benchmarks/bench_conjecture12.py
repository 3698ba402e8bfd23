"""Benchmark E1 — best-greedy vs exact optimal (Conjecture 12).

The paper's experiment compares, on random instances of 2-5 tasks, the best
greedy schedule with the exact optimum.  These benchmarks time the two sides
of that comparison (the exhaustive greedy search and the branch-and-bound
optimum of one instance) and the full miniature experiment, and assert the
conjecture on the benchmarked instances.
"""

from __future__ import annotations

import pytest

from repro.algorithms.greedy import best_greedy_schedule
from repro.core.batch import InstanceBatch
from repro.experiments import run_experiment
from repro.lp import optimal


def _opt(instance):
    return float(optimal(InstanceBatch.from_instances([instance])).objectives[0])


def test_best_greedy_search_n5(benchmark, uniform_instance_n5):
    result = benchmark(best_greedy_schedule, uniform_instance_n5)
    assert result.exhaustive
    assert result.evaluated == 120


def test_brute_force_optimal_n4(benchmark, uniform_instance_n4):
    value = benchmark(_opt, uniform_instance_n4)
    assert value > 0


def test_conjecture12_gap_n4(benchmark, uniform_instance_n4):
    def gap():
        greedy = best_greedy_schedule(uniform_instance_n4).objective
        return greedy - _opt(uniform_instance_n4)

    measured = benchmark(gap)
    assert abs(measured) <= 1e-6


@pytest.mark.benchmark(group="experiment-runs")
def test_experiment_e1_quick(benchmark):
    result = benchmark.pedantic(
        run_experiment,
        args=("E1",),
        kwargs={"sizes": (2, 3), "count": 3, "families": ("uniform",)},
        iterations=1,
        rounds=1,
    )
    assert result.summary["conjecture holds on every instance"] is True
