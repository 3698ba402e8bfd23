"""Benchmark E7 — runtime scaling of the solvers (Table I discussion).

This is the pytest-benchmark counterpart of ``repro.experiments.exp_scaling``:
it times the polynomial solvers (WDEQ, Water-Filling, greedy, makespan,
max-lateness), the fixed-ordering LP with both backends, and the vectorized
batch kernels, so their scaling can be compared across runs.

Script mode (used by the CI benchmark-smoke job)::

    python benchmarks/bench_scaling.py --smoke --output BENCH_scaling.json

writes a machine-readable JSON summary; ``benchmarks/compare_baseline.py``
gates regressions against ``benchmarks/baselines/BENCH_scaling_baseline.json``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.greedy import greedy_completion_times
from repro.algorithms.lateness import minimize_max_lateness
from repro.algorithms.makespan import minimal_makespan
from repro.algorithms.water_filling import water_filling_schedule
from repro.algorithms.wdeq import wdeq_schedule
from repro.batch.kernels import PaddedBatch, water_filling_batch, wdeq_batch
from repro.core.batch import InstanceBatch
from repro.lp.batch import solve_ordered_relaxation_batch
from repro.lp.interface import solve_ordered_relaxation
from repro.experiments import run_experiment
from repro.workloads.generators import cluster_instances


@pytest.mark.benchmark(group="polynomial-solvers")
def test_wdeq_n200(benchmark, cluster_instance_n200):
    benchmark(wdeq_schedule, cluster_instance_n200)


@pytest.mark.benchmark(group="polynomial-solvers")
def test_water_filling_n200(benchmark, cluster_instance_n200):
    completions = wdeq_schedule(cluster_instance_n200).completion_times_by_task()
    benchmark(water_filling_schedule, cluster_instance_n200, completions)


@pytest.mark.benchmark(group="polynomial-solvers")
def test_greedy_n200(benchmark, cluster_instance_n200):
    order = cluster_instance_n200.smith_order()
    benchmark(greedy_completion_times, cluster_instance_n200, order)


@pytest.mark.benchmark(group="polynomial-solvers")
def test_makespan_n200(benchmark, cluster_instance_n200):
    benchmark(minimal_makespan, cluster_instance_n200)


@pytest.mark.benchmark(group="polynomial-solvers")
def test_max_lateness_n50(benchmark, cluster_instance_n50):
    deadlines = wdeq_schedule(cluster_instance_n50).completion_times_by_task()
    benchmark.pedantic(
        minimize_max_lateness,
        args=(cluster_instance_n50, deadlines),
        iterations=1,
        rounds=3,
    )


def _prefix_instance(instance, n):
    """First ``n`` tasks of a larger instance, same platform."""
    from repro.core.instance import Instance

    return Instance(P=instance.P, tasks=instance.tasks[:n])


@pytest.mark.benchmark(group="lp-backends")
def test_ordered_lp_highs_n20(benchmark, cluster_instance_n200):
    inst = _prefix_instance(cluster_instance_n200, 20)
    order = inst.smith_order()
    benchmark(solve_ordered_relaxation, inst, order, build_schedule=False)


@pytest.mark.benchmark(group="lp-backends")
def test_ordered_lp_simplex_n10(benchmark, cluster_instance_n200):
    # The in-repo simplex is the lockstep kernel, timed on a batch of one.
    inst = _prefix_instance(cluster_instance_n200, 10)
    single = InstanceBatch.from_instances([inst])
    benchmark.pedantic(
        solve_ordered_relaxation_batch,
        args=(single, [inst.smith_order()]),
        kwargs={"backend": "batch"},
        iterations=1,
        rounds=3,
    )


@pytest.mark.benchmark(group="experiment-runs")
def test_experiment_e7_quick(benchmark):
    result = benchmark.pedantic(
        run_experiment,
        args=("E7",),
        kwargs={"sizes": (10, 50), "lp_sizes": (5,), "simplex_sizes": (5,), "batch_sizes": ()},
        iterations=1,
        rounds=1,
    )
    assert result.summary["table I coverage rows"] == 9


@pytest.fixture(scope="module")
def cluster_batch_64x16():
    instances = list(cluster_instances(16, 64, rng=np.random.default_rng(7)))
    return instances, PaddedBatch.from_instances(instances)


@pytest.mark.benchmark(group="batch-kernels")
def test_wdeq_batch_64x16(benchmark, cluster_batch_64x16):
    _, batch = cluster_batch_64x16
    completions = benchmark(wdeq_batch, batch)
    assert completions.shape == (64, 16)


@pytest.mark.benchmark(group="batch-kernels")
def test_wdeq_serial_64x16(benchmark, cluster_batch_64x16):
    instances, _ = cluster_batch_64x16
    benchmark(lambda: [wdeq_schedule(inst) for inst in instances])


@pytest.mark.benchmark(group="batch-kernels")
def test_water_filling_batch_64x16(benchmark, cluster_batch_64x16):
    _, batch = cluster_batch_64x16
    completions = wdeq_batch(batch)
    result = benchmark(water_filling_batch, batch, completions)
    assert result.rates.shape == (64, 16, 16)


# --------------------------------------------------------------------- #
# Script mode
# --------------------------------------------------------------------- #


def run_scaling_benchmark(
    sizes=(50, 200),
    batch_size: int = 64,
    batch_task_count: int = 32,
    seed: int = 3,
    repeats: int = 3,
) -> tuple[dict, dict]:
    """Time the scalar solvers and the batch kernels; return (benchmarks, derived)."""
    from _common import best_of

    rng = np.random.default_rng(seed)
    benchmarks: dict[str, float] = {}
    for n in sizes:
        inst = next(cluster_instances(n, 1, rng=rng))
        benchmarks[f"wdeq_n{n}"] = best_of(lambda: wdeq_schedule(inst), repeats)
        completions = wdeq_schedule(inst).completion_times_by_task()
        benchmarks[f"water_filling_n{n}"] = best_of(
            lambda: water_filling_schedule(inst, completions), repeats
        )
        order = inst.smith_order()
        benchmarks[f"greedy_n{n}"] = best_of(
            lambda: greedy_completion_times(inst, order), repeats
        )
        benchmarks[f"makespan_n{n}"] = best_of(lambda: minimal_makespan(inst), repeats)

    instances = list(
        cluster_instances(batch_task_count, batch_size, rng=np.random.default_rng(seed + 1))
    )
    tag = f"B{batch_size}_n{batch_task_count}"
    benchmarks[f"wdeq_serial_{tag}"] = best_of(
        lambda: [wdeq_schedule(inst) for inst in instances], repeats
    )
    benchmarks[f"wdeq_batch_{tag}"] = best_of(
        lambda: wdeq_batch(PaddedBatch.from_instances(instances)), repeats
    )
    batch = PaddedBatch.from_instances(instances)
    completions = wdeq_batch(batch)
    benchmarks[f"water_filling_batch_{tag}"] = best_of(
        lambda: water_filling_batch(batch, completions), repeats
    )
    derived = {
        f"wdeq_batch_speedup_{tag}": benchmarks[f"wdeq_serial_{tag}"]
        / max(benchmarks[f"wdeq_batch_{tag}"], 1e-12)
    }
    return benchmarks, derived


def main(argv=None) -> int:
    import argparse

    from _common import write_payload

    parser = argparse.ArgumentParser(description="Runtime-scaling benchmark (script mode)")
    parser.add_argument("--smoke", action="store_true", help="reduced CI configuration")
    parser.add_argument("--output", default="BENCH_scaling.json", help="output JSON path")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    config = {
        "sizes": [20, 50] if args.smoke else [50, 200],
        "batch_size": 64 if args.smoke else 256,
        "batch_task_count": 16 if args.smoke else 32,
        "seed": args.seed,
        "repeats": args.repeats,
        "smoke": args.smoke,
    }
    benchmarks, derived = run_scaling_benchmark(
        sizes=tuple(config["sizes"]),
        batch_size=config["batch_size"],
        batch_task_count=config["batch_task_count"],
        seed=args.seed,
        repeats=args.repeats,
    )
    write_payload("scaling", config, benchmarks, derived, args.output)
    for name, seconds in sorted(benchmarks.items()):
        print(f"  {name}: {seconds * 1e3:.2f} ms")
    for name, value in sorted(derived.items()):
        print(f"  {name}: {value:.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
