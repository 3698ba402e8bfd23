"""Benchmark — scalar vs batched discrete-event online-WDEQ simulation.

Script mode (used by the CI benchmark-smoke job)::

    python benchmarks/bench_simulation.py --output BENCH_simulation.json

measures ``B`` scalar :func:`repro.simulation.engine.simulate` runs of the
online WDEQ policy against one lockstep
:func:`repro.batch.sim_kernels.simulate_batch` sweep over the same padded
batch (B=256 by default, packing included in the batched timing), and
records the speedup and the maximum completion-time disagreement in the
JSON.  The acceptance bar for the batched simulation path is a >= 5x
speedup at B=256.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.sim_kernels import (
    DeqBatchPolicy,
    WdeqBatchPolicy,
    default_batch_policies,
    simulate_batch,
)
from repro.core.batch import InstanceBatch
from repro.simulation.engine import simulate
from repro.simulation.policies import DeqPolicy, WdeqPolicy
from repro.workloads.generators import cluster_instances


@pytest.fixture(scope="module")
def sim_batch_64x16():
    instances = list(cluster_instances(16, 64, rng=np.random.default_rng(11)))
    return instances, InstanceBatch.from_instances(instances)


def test_simulate_wdeq_scalar_n50(benchmark, cluster_instance_n50):
    result = benchmark(simulate, cluster_instance_n50, WdeqPolicy())
    assert result.completion_times.size == 50


@pytest.mark.benchmark(group="batch-kernels")
def test_simulate_batch_wdeq_64x16(benchmark, sim_batch_64x16):
    _, batch = sim_batch_64x16
    result = benchmark(simulate_batch, batch, WdeqBatchPolicy())
    assert result.completion_times.shape == (64, 16)


@pytest.mark.benchmark(group="batch-kernels")
def test_simulate_batch_deq_64x16(benchmark, sim_batch_64x16):
    _, batch = sim_batch_64x16
    result = benchmark(simulate_batch, batch, DeqBatchPolicy())
    assert np.all(result.num_events >= 1)


def test_simulate_batch_matches_scalar(sim_batch_64x16):
    instances, batch = sim_batch_64x16
    result = simulate_batch(batch, DeqBatchPolicy())
    for b, inst in enumerate(instances[:8]):
        scalar = simulate(inst, DeqPolicy())
        np.testing.assert_allclose(
            result.completion_times[b, : inst.n], scalar.completion_times, rtol=1e-7
        )


# --------------------------------------------------------------------- #
# Script mode
# --------------------------------------------------------------------- #


def run_simulation_benchmark(
    batch_size: int = 256, task_count: int = 32, seed: int = 11, repeats: int = 3
) -> tuple[dict, dict]:
    """Scalar vs batched online-WDEQ simulation on the same ``B`` instances."""
    from _common import best_of

    instances = list(
        cluster_instances(task_count, batch_size, rng=np.random.default_rng(seed))
    )
    serial_seconds = best_of(
        lambda: [simulate(inst, WdeqPolicy()) for inst in instances], repeats
    )
    # The batched timing includes the packing step: that is the real cost a
    # caller starting from Instance objects pays.
    batch_seconds = best_of(
        lambda: simulate_batch(InstanceBatch.from_instances(instances), WdeqBatchPolicy()),
        repeats,
    )
    batch = InstanceBatch.from_instances(instances)
    batch_result = simulate_batch(batch, WdeqBatchPolicy())
    disagreement = 0.0
    for b, inst in enumerate(instances):
        scalar = simulate(inst, WdeqPolicy())
        disagreement = max(
            disagreement,
            float(
                np.max(
                    np.abs(batch_result.completion_times[b, : inst.n] - scalar.completion_times)
                )
            ),
        )
    # One lighter sweep over the full policy line-up keeps the whole batched
    # engine (not just WDEQ) under the regression gate.
    lineup_seconds = best_of(
        lambda: [simulate_batch(batch, p) for p in default_batch_policies(batch)], 1
    )
    tag = f"B{batch_size}_n{task_count}"
    benchmarks = {
        f"simulate_serial_{tag}": serial_seconds,
        f"simulate_batch_{tag}": batch_seconds,
        f"simulate_batch_lineup_{tag}": lineup_seconds,
    }
    derived = {
        f"simulate_batch_speedup_{tag}": serial_seconds / max(batch_seconds, 1e-12),
        "max_serial_vs_batch_disagreement": disagreement,
        "mean_events_per_row": float(batch_result.num_events.mean()),
    }
    return benchmarks, derived


def main(argv=None) -> int:
    import argparse

    from _common import write_payload

    parser = argparse.ArgumentParser(
        description="Discrete-event simulation benchmark (script mode)"
    )
    parser.add_argument("--smoke", action="store_true", help="reduced CI configuration")
    parser.add_argument("--output", default="BENCH_simulation.json", help="output JSON path")
    parser.add_argument("--instances", type=int, default=256, help="batch size B")
    parser.add_argument("--tasks", type=int, default=32, help="tasks per instance")
    parser.add_argument("--seed", type=int, default=11)
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
    benchmarks, derived = run_simulation_benchmark(
        batch_size=batch_size, task_count=task_count, seed=args.seed, repeats=args.repeats
    )
    write_payload("simulation", config, benchmarks, derived, args.output)
    for name, seconds in sorted(benchmarks.items()):
        print(f"  {name}: {seconds * 1e3:.2f} ms")
    for name, value in sorted(derived.items()):
        print(f"  {name}: {value:.3g}")
    if derived["max_serial_vs_batch_disagreement"] > 1e-6:
        print("ERROR: serial and batched completion times disagree beyond tolerance")
        return 1
    speedup_key = f"simulate_batch_speedup_B{batch_size}_n{task_count}"
    if not args.smoke and batch_size >= 256 and derived[speedup_key] < 5.0:
        print("ERROR: batched simulation is below the required 5x speedup at B>=256")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
