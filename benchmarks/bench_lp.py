"""Benchmark — per-instance SciPy vs batched lockstep ordered-relaxation LPs.

Script mode (used by the CI benchmark-smoke job)::

    python benchmarks/bench_lp.py --output BENCH_lp.json

measures ``B`` scalar :func:`repro.lp.interface.solve_ordered_relaxation`
solves (HiGHS, Smith ordering) against one
:func:`repro.lp.batch.solve_ordered_relaxation_batch` lockstep solve over
the same padded batch (B=256 x n=5 by default, packing and assembly included
in the batched timing), and records the speedup and the maximum objective
disagreement in the JSON.  The acceptance bar for the batched LP path is a
>= 5x speedup over per-instance SciPy at B=256.

The default task count is small on purpose: the batched solver exists for
the *ordering* workloads (E1-E3 enumerate permutations of n <= 5; the
lockstep tableau grows as O(n^4) per problem), not to race HiGHS on a single
large LP — ``bench_scaling.py`` covers that regime.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import InstanceBatch
from repro.lp.batch import optimal, smith_orders_batch, solve_ordered_relaxation_batch
from repro.lp.interface import solve_ordered_relaxation
from repro.workloads.generators import uniform_instances


@pytest.fixture(scope="module")
def lp_batch_64x5():
    instances = list(uniform_instances(5, 64, rng=np.random.default_rng(13)))
    return instances, InstanceBatch.from_instances(instances)


def test_solve_ordered_relaxation_scipy_n5(benchmark, uniform_instance_n5):
    order = uniform_instance_n5.smith_order()
    result = benchmark(
        solve_ordered_relaxation, uniform_instance_n5, order, build_schedule=False
    )
    assert result.objective > 0


@pytest.mark.benchmark(group="batch-kernels")
def test_solve_ordered_relaxation_batch_64x5(benchmark, lp_batch_64x5):
    _, batch = lp_batch_64x5
    solution = benchmark(solve_ordered_relaxation_batch, batch)
    assert solution.objectives.shape == (64,)


@pytest.mark.benchmark(group="batch-kernels")
def test_optimal_8x4(benchmark):
    instances = list(uniform_instances(4, 8, rng=np.random.default_rng(14)))
    batch = InstanceBatch.from_instances(instances)
    result = benchmark(optimal, batch, method="enumerate")
    assert result.orderings_evaluated == 8 * 24


def test_lp_batch_matches_scalar(lp_batch_64x5):
    instances, batch = lp_batch_64x5
    solution = solve_ordered_relaxation_batch(batch)
    for b, inst in enumerate(instances[:8]):
        scalar = solve_ordered_relaxation(
            inst, inst.smith_order(), build_schedule=False
        )
        assert solution.objectives[b] == pytest.approx(scalar.objective, rel=1e-6)


# --------------------------------------------------------------------- #
# Script mode
# --------------------------------------------------------------------- #


def run_lp_benchmark(
    batch_size: int = 256, task_count: int = 5, seed: int = 13, repeats: int = 3
) -> tuple[dict, dict]:
    """Per-instance SciPy vs one lockstep solve on the same ``B`` instances."""
    from _common import best_of

    instances = list(
        uniform_instances(task_count, batch_size, rng=np.random.default_rng(seed))
    )
    orders = [inst.smith_order() for inst in instances]
    serial_seconds = best_of(
        lambda: [
            solve_ordered_relaxation(inst, order, build_schedule=False)
            for inst, order in zip(instances, orders)
        ],
        repeats,
    )
    # The batched timing includes packing, ordering and tensor assembly: the
    # real cost a caller starting from Instance objects pays.
    batch_seconds = best_of(
        lambda: solve_ordered_relaxation_batch(InstanceBatch.from_instances(instances)),
        repeats,
    )
    batch = InstanceBatch.from_instances(instances)
    solution = solve_ordered_relaxation_batch(batch, smith_orders_batch(batch))
    scalar_objectives = np.array(
        [
            solve_ordered_relaxation(inst, order, build_schedule=False).objective
            for inst, order in zip(instances, orders)
        ]
    )
    disagreement = float(
        np.max(
            np.abs(solution.objectives - scalar_objectives)
            / np.maximum(1.0, np.abs(scalar_objectives))
        )
    )
    # A light exact-OPT sweep keeps the branch-and-bound path
    # (repro.lp.optimal and its chunking) under the regression gate.
    enum_instances = instances[: max(4, batch_size // 32)]
    enum_batch = InstanceBatch.from_instances(
        list(uniform_instances(4, len(enum_instances), rng=np.random.default_rng(seed + 1)))
    )
    enum_seconds = best_of(lambda: optimal(enum_batch).objectives, 1)
    tag = f"B{batch_size}_n{task_count}"
    benchmarks = {
        f"lp_scipy_serial_{tag}": serial_seconds,
        f"lp_batch_{tag}": batch_seconds,
        f"lp_exact_enumeration_B{enum_batch.batch_size}_n4": enum_seconds,
    }
    derived = {
        f"lp_batch_speedup_{tag}": serial_seconds / max(batch_seconds, 1e-12),
        "max_serial_vs_batch_disagreement": disagreement,
        "mean_simplex_pivots": float(solution.iterations.mean()),
    }
    return benchmarks, derived


def main(argv=None) -> int:
    import argparse

    from _common import write_payload

    parser = argparse.ArgumentParser(
        description="Batched ordered-relaxation LP benchmark (script mode)"
    )
    parser.add_argument("--smoke", action="store_true", help="reduced CI configuration")
    parser.add_argument("--output", default="BENCH_lp.json", help="output JSON path")
    parser.add_argument("--instances", type=int, default=256, help="batch size B")
    parser.add_argument("--tasks", type=int, default=5, help="tasks per instance")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    batch_size = 64 if args.smoke else args.instances
    task_count = args.tasks
    config = {
        "batch_size": batch_size,
        "task_count": task_count,
        "seed": args.seed,
        "repeats": args.repeats,
        "smoke": args.smoke,
    }
    benchmarks, derived = run_lp_benchmark(
        batch_size=batch_size, task_count=task_count, seed=args.seed, repeats=args.repeats
    )
    write_payload("lp", config, benchmarks, derived, args.output)
    for name, seconds in sorted(benchmarks.items()):
        print(f"  {name}: {seconds * 1e3:.2f} ms")
    for name, value in sorted(derived.items()):
        print(f"  {name}: {value:.3g}")
    if derived["max_serial_vs_batch_disagreement"] > 1e-6:
        print("ERROR: serial and batched LP objectives disagree beyond tolerance")
        return 1
    speedup_key = f"lp_batch_speedup_B{batch_size}_n{task_count}"
    if not args.smoke and batch_size >= 256 and derived[speedup_key] < 5.0:
        print("ERROR: batched LP solver is below the required 5x speedup at B>=256")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
