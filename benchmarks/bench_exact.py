"""Benchmark — exact-OPT branch-and-bound vs ordering enumeration, and the
shared-memory pool vs per-instance pickling.

Script mode (used by the CI benchmark-smoke job)::

    python benchmarks/bench_exact.py --output BENCH_exact.json

measures, on the synthetic cluster workload:

* the branch-and-bound exact engine (:mod:`repro.lp.exact`) on a whole
  ``B x n=10`` batch and on a single ``n=12`` instance — sizes at which the
  ``n!`` enumeration needs 3.6M / 479M LPs per instance and is infeasible
  to run outright.  The enumeration cost is therefore *extrapolated* from
  its measured per-LP throughput at ``n = 7`` (a conservative
  underestimate: its LPs are smaller than the ``n = 10`` ones), and the
  resulting speedup is recorded in ``derived`` and gated at >= 25x for the
  full configuration;
* the ``exact-opt`` shape: single ``cluster_instances`` of ``n = 7, 8, 9``
  tasks at ``P = 128``, one branch-and-bound call per instance (best-of
  time of the whole set), with the Algorithm 3 kernel calls per instance
  in ``derived``;
* a ``B >= 1024`` sweep cell evaluated through the per-instance pickling
  pool (`ExecutionContext.map` over ``Instance`` objects) against the
  zero-copy shared-memory transport of
  :meth:`repro.exec.ExecutionContext.map_batch`, on one pool, gated at
  >= 2x with bit-identical results.

Worst-case caveat recorded here on purpose: branch-and-bound stays
exponential, and instances whose cap spread makes many orderings near-ties
(for example one ``delta ~ 0`` task dominating the horizon) can fall back
towards enumeration-like behaviour.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.batch.kernels import combined_lower_bound_batch
from repro.core.batch import InstanceBatch
from repro.core.bounds import combined_lower_bound
from repro.exec import ExecutionContext
from repro.lp.batch import optimal
from repro.lp.exact import ExactSearchStats, branch_and_bound_optimal_batch
from repro.workloads.generators import cluster_instances


@pytest.fixture(scope="module")
def cluster_batch_8x6():
    return InstanceBatch.from_instances(list(cluster_instances(6, 8, rng=np.random.default_rng(42))))


@pytest.mark.benchmark(group="exact-opt")
def test_branch_and_bound_8x6(benchmark, cluster_batch_8x6):
    result = benchmark(optimal, cluster_batch_8x6)
    assert result.objectives.shape == (8,)


@pytest.mark.benchmark(group="exact-opt")
def test_enumeration_8x6(benchmark, cluster_batch_8x6):
    result = benchmark(lambda: optimal(cluster_batch_8x6, method="enumerate"))
    assert result.orderings_evaluated == 8 * math.factorial(6)


def test_engine_matches_enumeration(cluster_batch_8x6):
    engine = optimal(cluster_batch_8x6)
    reference = optimal(cluster_batch_8x6, method="enumerate")
    np.testing.assert_allclose(engine.objectives, reference.objectives, rtol=1e-6, atol=1e-8)


# --------------------------------------------------------------------- #
# Script mode
# --------------------------------------------------------------------- #


def _legacy_cell_item(instance):
    """Per-instance work of the legacy pickling-pool sweep cell."""
    return combined_lower_bound(instance)


def _shm_cell_rows(sub_batch):
    """Row-chunk work of the shared-memory sweep cell (same numbers)."""
    return combined_lower_bound_batch(sub_batch)


def run_exact_benchmark(
    batch_size: int,
    task_count: int,
    single_n: int,
    enum_n: int,
    seed: int = 42,
) -> "tuple[dict, dict]":
    """Engine-vs-enumeration timings; see the module docstring."""
    from _common import best_of

    batch = InstanceBatch.from_instances(
        list(cluster_instances(task_count, batch_size, rng=np.random.default_rng(seed)))
    )
    engine_seconds = best_of(lambda: optimal(batch), 1)
    engine_result = optimal(batch)

    single = InstanceBatch.from_instances(
        list(cluster_instances(single_n, 1, rng=np.random.default_rng(seed + 1)))
    )
    single_seconds = best_of(lambda: optimal(single), 1)

    enum_batch = InstanceBatch.from_instances(
        list(cluster_instances(enum_n, 2, rng=np.random.default_rng(seed + 2)))
    )
    enum_seconds = best_of(
        lambda: optimal(enum_batch, method="enumerate", max_tasks=enum_n), 1
    )
    enum_lps = 2 * math.factorial(enum_n)
    per_lp = enum_seconds / enum_lps
    extrapolated = per_lp * batch_size * math.factorial(task_count)

    tag = f"B{batch_size}_n{task_count}"
    benchmarks = {
        f"exact_bnb_{tag}": engine_seconds,
        f"exact_bnb_single_n{single_n}": single_seconds,
        f"exact_enumeration_B2_n{enum_n}": enum_seconds,
    }
    derived = {
        f"exact_bnb_lps_{tag}": float(engine_result.orderings_evaluated),
        f"enumeration_lps_{tag}": float(batch_size * math.factorial(task_count)),
        f"enumeration_extrapolated_seconds_{tag}": extrapolated,
        f"exact_speedup_vs_enumeration_{tag}": extrapolated / max(engine_seconds, 1e-12),
    }
    return benchmarks, derived


def run_exact_opt_shape_benchmark(per_size: int, seed: int = 42) -> "tuple[dict, dict]":
    """Single-instance searches in the ``exact-opt`` shape; see the module docstring."""
    from _common import best_of

    rng = np.random.default_rng(seed)
    batches = [
        InstanceBatch.from_instances(cluster_instances(n, 1, P=128.0, rng=rng))
        for _ in range(per_size)
        for n in (7, 8, 9)
    ]

    def solve_all():
        return [branch_and_bound_optimal_batch(batch) for batch in batches]

    seconds = best_of(solve_all, 3)
    stats = ExactSearchStats()
    for result in solve_all():
        stats.merge(result.stats)
    tag = f"P128_n7-9_x{len(batches)}"
    return (
        {f"exact_bnb_single_{tag}": seconds},
        {f"exact_greedy_calls_per_instance_{tag}": stats.greedy_calls / len(batches)},
    )


def run_shm_benchmark(
    cell_size: int, cell_tasks: int, workers: int, seed: int = 9
) -> "tuple[dict, dict]":
    """Per-instance pickling (`ctx.map`) vs shared-memory batch map (`ctx.map_batch`) on one pool."""
    from _common import best_of

    rng = np.random.default_rng(seed)
    batch = InstanceBatch.from_arrays(
        P=rng.uniform(1.0, 4.0, cell_size),
        volumes=rng.uniform(0.1, 1.0, (cell_size, cell_tasks)),
        weights=rng.uniform(0.1, 1.0, (cell_size, cell_tasks)),
        deltas=rng.uniform(0.05, 1.0, (cell_size, cell_tasks)),
    )
    instances = batch.to_instances()
    with ExecutionContext(backend="process-pool", workers=workers) as ctx:
        ctx.map(_legacy_cell_item, instances[: 2 * workers])  # warm the pool
        legacy_seconds = best_of(lambda: ctx.map(_legacy_cell_item, instances), 1)
        legacy_values = np.asarray(ctx.map(_legacy_cell_item, instances))
        ctx.map_batch(_shm_cell_rows, batch)  # warm the shm path
        shm_seconds = best_of(lambda: ctx.map_batch(_shm_cell_rows, batch), 1)
        shm_values = np.asarray(ctx.map_batch(_shm_cell_rows, batch))
    disagreement = float(
        np.max(np.abs(shm_values - legacy_values) / np.maximum(1.0, np.abs(legacy_values)))
    )
    tag = f"B{cell_size}_n{cell_tasks}_w{workers}"
    benchmarks = {
        f"sweep_cell_pickling_pool_{tag}": legacy_seconds,
        f"sweep_cell_shm_pool_{tag}": shm_seconds,
    }
    derived = {
        f"shm_speedup_vs_pickling_{tag}": legacy_seconds / max(shm_seconds, 1e-12),
        "max_shm_vs_pickling_disagreement": disagreement,
    }
    return benchmarks, derived


def main(argv=None) -> int:
    import argparse

    from _common import write_payload

    parser = argparse.ArgumentParser(
        description="Exact-OPT branch-and-bound + shared-memory pool benchmark (script mode)"
    )
    parser.add_argument("--smoke", action="store_true", help="reduced CI configuration")
    parser.add_argument("--output", default="BENCH_exact.json", help="output JSON path")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    # Pinned: the worker count is part of the benchmark keys, and the CI
    # baseline comparison needs identical keys across machines.
    workers = 2
    if args.smoke:
        batch_size, task_count, single_n, enum_n = 8, 8, 10, 5
        shape_per_size = 10
        cell_size, cell_tasks = 1024, 16
    else:
        batch_size, task_count, single_n, enum_n = 64, 10, 12, 7
        shape_per_size = 30
        cell_size, cell_tasks = 4096, 64
    config = {
        "batch_size": batch_size,
        "task_count": task_count,
        "single_n": single_n,
        "enum_n": enum_n,
        "exact_opt_shape_per_size": shape_per_size,
        "cell_size": cell_size,
        "cell_tasks": cell_tasks,
        "workers": workers,
        "seed": args.seed,
        "smoke": args.smoke,
    }
    benchmarks, derived = run_exact_benchmark(
        batch_size=batch_size,
        task_count=task_count,
        single_n=single_n,
        enum_n=enum_n,
        seed=args.seed,
    )
    shape_benchmarks, shape_derived = run_exact_opt_shape_benchmark(shape_per_size, seed=args.seed)
    benchmarks.update(shape_benchmarks)
    derived.update(shape_derived)
    shm_benchmarks, shm_derived = run_shm_benchmark(cell_size, cell_tasks, workers)
    benchmarks.update(shm_benchmarks)
    derived.update(shm_derived)
    write_payload("exact", config, benchmarks, derived, args.output)
    for name, seconds in sorted(benchmarks.items()):
        print(f"  {name}: {seconds * 1e3:.2f} ms")
    for name, value in sorted(derived.items()):
        print(f"  {name}: {value:.4g}")
    if derived["max_shm_vs_pickling_disagreement"] > 1e-9:
        print("ERROR: shared-memory and pickling pools disagree")
        return 1
    if not args.smoke:
        speedup = derived[f"exact_speedup_vs_enumeration_B{batch_size}_n{task_count}"]
        if speedup < 25.0:
            print("ERROR: exact engine is below the required 25x speedup over enumeration")
            return 1
        shm_speedup = derived[f"shm_speedup_vs_pickling_B{cell_size}_n{cell_tasks}_w{workers}"]
        if shm_speedup < 2.0:
            print("ERROR: shared-memory pool is below the required 2x speedup")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
