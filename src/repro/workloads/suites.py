"""Named workload suites — one per experiment of DESIGN.md.

A :class:`WorkloadSuite` bundles a generator, its parameters and the
experiment it belongs to, so benchmarks and the CLI can refer to workloads by
name instead of repeating generator arguments everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.core.batch import InstanceBatch
from repro.core.instance import Instance
from repro.workloads import generators

__all__ = ["WorkloadSuite", "WORKLOAD_SUITES", "get_suite"]


@dataclass
class WorkloadSuite:
    """A named, reproducible family of random instances.

    Attributes
    ----------
    name:
        Suite identifier (used by the CLI and the benchmarks).
    experiment:
        Experiment id of DESIGN.md this suite belongs to.
    description:
        One-line description.
    factory:
        Callable ``(n, count, rng) -> iterator of Instance``.
    default_sizes:
        Task counts the experiment sweeps over by default.
    default_count:
        Number of instances per size used by the experiment's quick run.
    paper_count:
        Number of instances per size used by the paper (when stated).
    """

    name: str
    experiment: str
    description: str
    factory: Callable[[int, int, np.random.Generator], Iterator[Instance]]
    default_sizes: tuple[int, ...]
    default_count: int
    paper_count: int | None = None
    extra: dict = field(default_factory=dict)

    def generate(
        self, n: int, count: int | None = None, seed: int | None = 0
    ) -> Iterator[Instance]:
        """Yield ``count`` instances of size ``n`` (reproducible for a given seed)."""
        rng = np.random.default_rng(seed)
        return self.factory(n, count if count is not None else self.default_count, rng)

    def generate_batch(
        self, n: int, count: int | None = None, seed: int | None = 0
    ) -> InstanceBatch:
        """The same workload as :meth:`generate`, packed as one struct-of-arrays batch.

        This is the native input of the batched kernels:
        the kernels in :mod:`repro.batch` consume the returned
        :class:`~repro.core.batch.InstanceBatch` directly, and
        ``batch.to_instances()`` recovers exactly the instances
        :meth:`generate` would have yielded (same seed, same stream).
        """
        return InstanceBatch.from_instances(self.generate(n, count, seed))


def _uniform(n: int, count: int, rng: np.random.Generator) -> Iterator[Instance]:
    return generators.uniform_instances(n, count, P=1.0, rng=rng)


def _constant_weight(n: int, count: int, rng: np.random.Generator) -> Iterator[Instance]:
    return generators.constant_weight_instances(n, count, P=1.0, rng=rng)


def _constant_weight_volume(n: int, count: int, rng: np.random.Generator) -> Iterator[Instance]:
    return generators.constant_weight_volume_instances(n, count, P=1.0, rng=rng)


def _large_delta(n: int, count: int, rng: np.random.Generator) -> Iterator[Instance]:
    return generators.large_delta_instances(n, count, P=1.0, rng=rng)


def _homogeneous(n: int, count: int, rng: np.random.Generator) -> Iterator[Instance]:
    return generators.homogeneous_halfdelta_instances(n, count, rng=rng)


def _cluster(n: int, count: int, rng: np.random.Generator) -> Iterator[Instance]:
    return generators.cluster_instances(n, count, P=64.0, rng=rng)


def _heavy_tailed(n: int, count: int, rng: np.random.Generator) -> Iterator[Instance]:
    return generators.heavy_tailed_instances(n, count, P=64.0, rng=rng)


def _bandwidth(n: int, count: int, rng: np.random.Generator) -> Iterator[Instance]:
    return generators.bandwidth_scenario_instances(n, count, rng=rng)


WORKLOAD_SUITES: dict[str, WorkloadSuite] = {
    suite.name: suite
    for suite in [
        WorkloadSuite(
            name="conjecture12-uniform",
            experiment="E1",
            description="Uniform random tasks (delta<P, w<1, V<1), the Section V-A family",
            factory=_uniform,
            default_sizes=(2, 3, 4, 5),
            default_count=50,
            paper_count=10_000,
        ),
        WorkloadSuite(
            name="conjecture12-constant-weight",
            experiment="E1",
            description="Same as conjecture12-uniform with all weights equal to 1",
            factory=_constant_weight,
            default_sizes=(2, 3, 4, 5),
            default_count=50,
            paper_count=10_000,
        ),
        WorkloadSuite(
            name="conjecture12-constant-weight-volume",
            experiment="E1",
            description="Same as conjecture12-uniform with w = V = 1",
            factory=_constant_weight_volume,
            default_sizes=(2, 3, 4, 5),
            default_count=50,
            paper_count=10_000,
        ),
        WorkloadSuite(
            name="theorem11-large-delta",
            experiment="E4",
            description="Homogeneous weights with delta_i > P/2 (hypothesis of Theorem 11)",
            factory=_large_delta,
            default_sizes=(2, 3, 4, 5, 6),
            default_count=40,
        ),
        WorkloadSuite(
            name="section5b-homogeneous",
            experiment="E2/E3",
            description="P=1, V=w=1, delta in [1/2,1] (Section V-B / Conjectures 12-13)",
            factory=_homogeneous,
            default_sizes=(2, 3, 4, 5, 8, 10, 12, 15),
            default_count=100,
        ),
        WorkloadSuite(
            name="cluster",
            experiment="E5/E6/E7",
            description="Synthetic multicore cluster workload (log-normal volumes, priority weights)",
            factory=_cluster,
            default_sizes=(10, 20, 50, 100),
            default_count=20,
        ),
        WorkloadSuite(
            name="heavy-tailed",
            experiment="scenarios",
            description="Cluster workload with Pareto (heavy-tailed) priority weights",
            factory=_heavy_tailed,
            default_sizes=(16, 32, 64),
            default_count=20,
        ),
        WorkloadSuite(
            name="bandwidth",
            experiment="E8",
            description="Master-worker code distribution scenario of Figure 1",
            factory=_bandwidth,
            default_sizes=(5, 10, 20, 50),
            default_count=20,
        ),
    ]
}


def get_suite(name: str) -> WorkloadSuite:
    """Look up a workload suite by name."""
    try:
        return WORKLOAD_SUITES[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown workload suite {name!r}; available: {sorted(WORKLOAD_SUITES)}"
        ) from exc
