"""Pluggable execution backends for the experiment harness.

This package owns the *how* of running an experiment — seeding, scale,
worker nodes, shared-memory transport, result caching — so
the experiment modules only describe the *what*.  The central public type is
:class:`~repro.exec.context.ExecutionContext`; every experiment ``run``
function accepts one (``ctx=None`` meaning "default serial context") and
the CLI builds one from its flags.  Every off-process context runs through
the :class:`~repro.exec.cluster.ClusterCoordinator` of :mod:`repro.exec.cluster`
(imported lazily here to keep the package import light) over local nodes
it forks or remote nodes it dials, and splits maps with
:func:`~repro.exec.context.chunk_ranges`; local nodes read every batch of
:meth:`~repro.exec.context.ExecutionContext.map_batch` from the
shared-memory segments of :mod:`repro.exec.shm`.

Typical usage::

    from repro.exec import ExecutionContext
    from repro.experiments import run_experiment

    with ExecutionContext(seed=7, workers=4) as ctx:
        result = run_experiment("E5", ctx=ctx)
"""

from repro.exec.context import BACKENDS, CHUNKS_PER_WORKER, ExecutionContext, chunk_ranges

__all__ = ["BACKENDS", "CHUNKS_PER_WORKER", "ExecutionContext", "chunk_ranges"]


def __getattr__(name: str):
    # Lazy re-exports of the cluster layer (socket/threading machinery that
    # most callers never touch).
    if name in {"ClusterCoordinator", "WorkerNode", "ClusterError"}:
        from repro.exec import cluster

        return getattr(cluster, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
