"""Benchmark E5 — WDEQ execution and its empirical approximation ratio.

Script mode (used by the CI benchmark-smoke job)::

    python benchmarks/bench_wdeq_ratio.py --output BENCH_wdeq_ratio.json

measures the serial per-instance ratio sweep against the batched event
engine (``policy_ratios_batch`` with WDEQ alone) on the same instances
(B=256 by default) and records the speedup and the maximum serial-vs-batch
disagreement in the JSON.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.wdeq import wdeq_schedule
from repro.analysis.ratios import wdeq_ratio
from repro.batch.sim_kernels import WdeqBatchPolicy, policy_ratios_batch
from repro.core.batch import InstanceBatch
from repro.core.bounds import combined_lower_bound
from repro.experiments import run_experiment
from repro.experiments.exp_wdeq_ratio import exact_wdeq_ratios
from repro.simulation.nonclairvoyant import run_wdeq_online
from repro.workloads.generators import cluster_instances


def _wdeq_ratios(batch):
    """WDEQ over the Lemma 1 bound for every row, on the batched engine."""
    return policy_ratios_batch(batch, [WdeqBatchPolicy()])["WDEQ"]


def test_wdeq_schedule_n50(benchmark, cluster_instance_n50):
    sched = benchmark(wdeq_schedule, cluster_instance_n50)
    assert sched.makespan() > 0


def test_wdeq_online_simulation_n50(benchmark, cluster_instance_n50):
    result = benchmark(run_wdeq_online, cluster_instance_n50)
    assert result.completion_times.size == 50


def test_wdeq_ratio_against_lower_bound_n50(benchmark, cluster_instance_n50):
    ratio = benchmark(wdeq_ratio, cluster_instance_n50)
    assert ratio <= 2.0 + 1e-6


def test_combined_lower_bound_n50(benchmark, cluster_instance_n50):
    bound = benchmark(combined_lower_bound, cluster_instance_n50)
    assert bound > 0


def test_wdeq_ratio_exact_small(benchmark, uniform_instance_n4):
    batch = InstanceBatch.from_instances([uniform_instance_n4])
    ratio = benchmark(exact_wdeq_ratios, batch)[0]
    assert 1.0 - 1e-9 <= ratio <= 2.0 + 1e-6


@pytest.mark.benchmark(group="batch-kernels")
def test_wdeq_ratio_batch_64x16(benchmark):
    instances = list(cluster_instances(16, 64, rng=np.random.default_rng(7)))
    batch = InstanceBatch.from_instances(instances)
    ratios = benchmark(_wdeq_ratios, batch)
    assert ratios.shape == (64,)
    assert float(ratios.max()) <= 2.0 + 1e-6


@pytest.mark.benchmark(group="experiment-runs")
def test_experiment_e5_quick(benchmark):
    result = benchmark.pedantic(
        run_experiment,
        args=("E5",),
        kwargs={
            "small_sizes": (2, 3),
            "small_count": 3,
            "large_sizes": (10,),
            "large_count": 2,
        },
        iterations=1,
        rounds=1,
    )
    assert result.summary["always below 2"] is True


# --------------------------------------------------------------------- #
# Script mode
# --------------------------------------------------------------------- #


def run_ratio_benchmark(
    batch_size: int = 256, task_count: int = 32, seed: int = 3, repeats: int = 3
) -> tuple[dict, dict]:
    """Serial vs batched WDEQ-ratio sweep on the same ``B`` cluster instances."""
    from _common import best_of

    instances = list(
        cluster_instances(task_count, batch_size, rng=np.random.default_rng(seed))
    )
    serial_seconds = best_of(
        lambda: [wdeq_ratio(inst) for inst in instances], repeats
    )
    # The batched timing includes the padding step: that is the real cost a
    # caller starting from Instance objects pays.
    batch_seconds = best_of(
        lambda: _wdeq_ratios(InstanceBatch.from_instances(instances)), repeats
    )
    serial_ratios = np.array([wdeq_ratio(inst) for inst in instances])
    batch_ratios = _wdeq_ratios(InstanceBatch.from_instances(instances))
    tag = f"B{batch_size}_n{task_count}"
    benchmarks = {
        f"wdeq_ratio_serial_{tag}": serial_seconds,
        f"wdeq_ratio_batch_{tag}": batch_seconds,
    }
    derived = {
        f"wdeq_ratio_batch_speedup_{tag}": serial_seconds / max(batch_seconds, 1e-12),
        "max_serial_vs_batch_disagreement": float(
            np.max(np.abs(serial_ratios - batch_ratios))
        ),
        "max_ratio": float(batch_ratios.max()),
    }
    return benchmarks, derived


def main(argv=None) -> int:
    import argparse

    from _common import write_payload

    parser = argparse.ArgumentParser(description="WDEQ-ratio benchmark (script mode)")
    parser.add_argument("--smoke", action="store_true", help="reduced CI configuration")
    parser.add_argument("--output", default="BENCH_wdeq_ratio.json", help="output JSON path")
    parser.add_argument("--instances", type=int, default=256, help="batch size B")
    parser.add_argument("--tasks", type=int, default=32, help="tasks per instance")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    batch_size = 64 if args.smoke else args.instances
    task_count = 16 if args.smoke else args.tasks
    config = {
        "batch_size": batch_size,
        "task_count": task_count,
        "seed": args.seed,
        "repeats": args.repeats,
        "smoke": args.smoke,
    }
    benchmarks, derived = run_ratio_benchmark(
        batch_size=batch_size, task_count=task_count, seed=args.seed, repeats=args.repeats
    )
    write_payload("wdeq_ratio", config, benchmarks, derived, args.output)
    for name, seconds in sorted(benchmarks.items()):
        print(f"  {name}: {seconds * 1e3:.2f} ms")
    for name, value in sorted(derived.items()):
        print(f"  {name}: {value:.3g}")
    if derived["max_serial_vs_batch_disagreement"] > 1e-6:
        print("ERROR: serial and batched ratios disagree beyond tolerance")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
