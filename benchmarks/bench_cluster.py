"""Benchmark — the multi-node cluster backend vs the local process pool.

Script mode (used by the CI benchmark-smoke job)::

    python benchmarks/bench_cluster.py --smoke --output BENCH_cluster.json

spawns two *real* localhost worker subprocesses (``malleable-repro
workers``), runs the same sweep-cell workload through three executors and
records the per-sweep wall time:

* ``cluster_sweep_*`` — the :class:`~repro.exec.cluster.ClusterCoordinator`
  sharding the cells over the two workers (socket dispatch, pickled
  records back per cell);
* ``pool_sweep_*`` — ``backend="process-pool"`` with two forked local
  nodes driven by the same coordinator (same parallelism and the same
  cell pipeline, socket pairs instead of TCP);
* ``serial_sweep_*`` — the single-process reference.

``derived`` carries the cluster/pool overhead ratio plus the coordinator's
dispatch stats, and ``cluster_batch_repush_*`` checks the per-node batch
reuse: a repeated ``map_batch`` over the same rows must push **zero** new
batches (rows ship once per host, then only chunk indices travel).

The cluster numbers include the coordinator's connection handshake
amortised away (the coordinator is connected once, outside the timed
region) but *not* worker start-up — workers are long-lived by design.

Run the pytest-benchmark variant with ``pytest benchmarks/bench_cluster.py
--benchmark-only`` (it uses in-process worker nodes, no subprocesses).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exec import ExecutionContext
from repro.scenarios import ScenarioSpec, SweepRunner

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")
BENCH_DIR = str(Path(__file__).resolve().parent)

_ADDRESS_RE = re.compile(r"cluster worker (\S+) listening on (\S+:\d+)")

START_TIMEOUT = 30.0


def sweep_spec(cells: int, count: int) -> ScenarioSpec:
    """A sweep with ``cells`` cells of ``count`` instances each."""
    return ScenarioSpec(
        name=f"bench-cluster-c{cells}",
        generator="uniform_instances",
        grid={"n": [4 + i for i in range(cells)]},
        count=count,
        policies=("WDEQ", "DEQ"),
    )


def spawn_workers(count: int) -> "tuple[subprocess.Popen, list[str]]":
    """Launch ``count`` worker nodes in one subprocess; returns (proc, hosts)."""
    env = dict(os.environ)
    # BENCH_DIR so workers can unpickle `bench_cluster._batch_total_volume`
    # by reference (functions ship as module+name, never as code).
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + BENCH_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "workers", "--port", "0", "--count", str(count)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    hosts: "list[str]" = []
    deadline = time.monotonic() + START_TIMEOUT
    assert process.stdout is not None
    while len(hosts) < count:
        if time.monotonic() > deadline:
            process.kill()
            raise TimeoutError(f"workers printed {len(hosts)}/{count} addresses")
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(f"worker process exited early (rc={process.poll()})")
        match = _ADDRESS_RE.search(line)
        if match:
            hosts.append(match.group(2))
    return process, hosts


def run_sweep_benchmark(
    cells: int, count: int, workers: int = 2, seed: int = 7, repeats: int = 3
) -> "tuple[dict, dict]":
    """Time one full sweep per executor; cache bypassed (map_cells direct)."""
    from _common import best_of

    spec = sweep_spec(cells, count)
    tag = f"c{cells}_w{workers}"
    benchmarks: dict = {}
    derived: dict = {}

    process, hosts = spawn_workers(workers)
    try:
        with ExecutionContext(backend="cluster", hosts=hosts, seed=seed) as cluster_ctx:
            payloads = SweepRunner(spec, cluster_ctx).payloads()
            cluster_ctx.cluster()  # connect outside the timed region
            benchmarks[f"cluster_sweep_{tag}"] = best_of(
                lambda: cluster_ctx.map_cells(payloads), repeats
            )
            stats = dict(cluster_ctx.coordinator.stats)
            derived[f"cluster_dispatched_{tag}"] = float(stats["dispatched"])
            derived[f"cluster_retries_{tag}"] = float(stats["retries"])

            # Batch reuse: pushing the same rows twice must be free the
            # second time (fingerprint hit on every node).
            import importlib

            from repro.core.batch import InstanceBatch
            from repro.workloads import uniform_instances

            # Resolve the chunk function through its importable module name:
            # when this file runs as a script the module-level reference
            # lives in ``__main__``, which the workers cannot import.
            fn = importlib.import_module("bench_cluster")._batch_total_volume
            instances = list(uniform_instances(n=24, count=16, rng=seed))
            batch = InstanceBatch.from_instances(instances)
            cluster_ctx.map_batch(fn, batch)
            pushed_first = cluster_ctx.coordinator.stats["batches_pushed"]
            cluster_ctx.map_batch(fn, batch)
            repushed = cluster_ctx.coordinator.stats["batches_pushed"] - pushed_first
            derived[f"cluster_batch_repush_{tag}"] = float(repushed)
            assert repushed == 0, "batch rows were re-shipped on a warm node"
    finally:
        process.terminate()
        process.wait(timeout=START_TIMEOUT)
        if process.stdout is not None:
            process.stdout.close()

    with ExecutionContext(backend="process-pool", workers=workers, seed=seed) as pool_ctx:
        payloads = SweepRunner(spec, pool_ctx).payloads()
        benchmarks[f"pool_sweep_{tag}"] = best_of(
            lambda: pool_ctx.map_cells(payloads), repeats
        )

    with ExecutionContext(seed=seed) as serial_ctx:
        payloads = SweepRunner(spec, serial_ctx).payloads()
        benchmarks[f"serial_sweep_{tag}"] = best_of(
            lambda: serial_ctx.map_cells(payloads), repeats
        )

    derived[f"cluster_vs_pool_{tag}"] = benchmarks[f"cluster_sweep_{tag}"] / max(
        benchmarks[f"pool_sweep_{tag}"], 1e-12
    )
    derived[f"cells_{tag}"] = float(cells)
    return benchmarks, derived


def _batch_total_volume(sub):
    """Module-level so cluster workers can unpickle it by reference."""
    return [float(v) for v in sub.volumes.sum(axis=1)]


# --------------------------------------------------------------------- #
# pytest-benchmark variant (in-process worker nodes — no subprocesses)
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def local_cluster():
    from repro.exec.cluster import ClusterCoordinator, WorkerNode

    nodes = [WorkerNode(port=0, worker_id=f"bench{i}") for i in range(2)]
    for node in nodes:
        node.start()
    coordinator = ClusterCoordinator([node.address for node in nodes])
    coordinator.connect()
    yield coordinator
    coordinator.close()
    for node in nodes:
        node.stop()


@pytest.mark.benchmark(group="cluster")
def test_cluster_map_cells(benchmark, local_cluster):
    from repro.scenarios.runner import run_cell

    spec = sweep_spec(cells=2, count=2)
    with ExecutionContext(backend="cluster", coordinator=local_cluster, seed=7) as ctx:
        payloads = SweepRunner(spec, ctx).payloads()
        results = benchmark(local_cluster.map, run_cell, payloads)
    assert len(results) == len(payloads)


@pytest.mark.benchmark(group="cluster")
def test_serial_map_cells(benchmark):
    spec = sweep_spec(cells=2, count=2)
    with ExecutionContext(seed=7) as ctx:
        payloads = SweepRunner(spec, ctx).payloads()
        results = benchmark(ctx.map_cells, payloads)
    assert len(results) == len(payloads)


# --------------------------------------------------------------------- #
# Script mode
# --------------------------------------------------------------------- #


def main(argv=None) -> int:
    import argparse

    from _common import write_payload

    parser = argparse.ArgumentParser(
        description="Cluster backend benchmark (script mode)"
    )
    parser.add_argument("--smoke", action="store_true", help="reduced CI configuration")
    parser.add_argument("--output", default="BENCH_cluster.json", help="output JSON path")
    parser.add_argument("--workers", type=int, default=2, help="localhost worker nodes")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    if args.smoke:
        cells, count, repeats = 4, 2, 2
    else:
        cells, count, repeats = 8, 6, 3
    config = {
        "cells": cells,
        "count": count,
        "workers": args.workers,
        "seed": args.seed,
        "smoke": args.smoke,
    }
    benchmarks, derived = run_sweep_benchmark(
        cells=cells, count=count, workers=args.workers, seed=args.seed, repeats=repeats
    )
    write_payload("cluster", config, benchmarks, derived, args.output)
    for name, seconds in sorted(benchmarks.items()):
        print(f"  {name}: {seconds * 1e3:.4f} ms")
    for name, value in sorted(derived.items()):
        print(f"  {name}: {value:.4g}")
    tag = f"c{cells}_w{args.workers}"
    if derived[f"cluster_batch_repush_{tag}"] != 0:
        print("ERROR: warm nodes re-shipped batch rows")
        return 1
    if derived[f"cluster_retries_{tag}"] != 0:
        print("ERROR: a healthy localhost fleet needed retries")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
