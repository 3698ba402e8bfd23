"""The :class:`ExecutionContext`: one object that says *how* experiments run.

Every experiment and sweep takes one context, which bundles the seed, the
scale, the execution backend, the worker nodes and the result cache.  A
backend says *where* work runs, never *what* computes it: the LP solver is
picked by the problem size (:func:`repro.lp.exact.solve_ordered_lps`), so an
experiment prints the same table and a sweep writes the same records on every
backend.  Three backends are supported:

``serial``
    The in-process loop.  Default, zero dependencies.
``process-pool``
    Per-instance work is sharded over ``workers`` local worker nodes that
    the context forks on first use and joins in :meth:`close`; batch maps
    reach them through the shared-memory segments of :mod:`repro.exec.shm`.
``cluster``
    Work is sharded over long-lived
    :class:`~repro.exec.cluster.WorkerNode` processes reached over TCP —
    localhost ports or remote hosts (``hosts=...`` names them).

Both off-process backends run through one engine, a
:class:`~repro.exec.cluster.ClusterCoordinator` over local or remote nodes,
with one failure model (:mod:`repro.exec.cluster`).
"""

from __future__ import annotations

import functools
import os
from dataclasses import InitVar, dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.batch.cache import ResultCache, cache_key

__all__ = ["BACKENDS", "CHUNKS_PER_WORKER", "ExecutionContext", "chunk_ranges"]

#: The recognised execution backends.
BACKENDS = ("serial", "process-pool", "cluster")

#: File name used for the persistent result cache inside ``--cache-dir``.
CACHE_FILE_NAME = "results-cache.json"


#: Chunk jobs per worker of an off-process map — two keeps the nodes busy
#: when chunk runtimes are uneven without multiplying the round trips.
CHUNKS_PER_WORKER = 2


def chunk_ranges(count: int, workers: int) -> "list[tuple[int, int]]":
    """Split ``count`` items into at most ``workers * CHUNKS_PER_WORKER``
    contiguous ``[lo, hi)`` ranges, dropping empty ones.  Shared by
    :meth:`ExecutionContext.map` and
    :meth:`repro.exec.cluster.ClusterCoordinator.map_batch`, so the
    adaptive-chunking heuristic lives in exactly one place.  The streamed
    replay orders its rows for these contiguous ranges and the coordinator's
    round-robin dealing (``repro.scenarios.stream._dispatch_order``), so a
    change here changes which slices share a worker.
    """
    bounds = np.linspace(0, count, min(count, workers * CHUNKS_PER_WORKER) + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def _apply_chunk(fn: Callable[[Any], Any], chunk: Sequence[Any]) -> list:
    """Node body of one :meth:`ExecutionContext.map` chunk job (module-level, so it pickles)."""
    return [fn(item) for item in chunk]


@dataclass
class ExecutionContext:
    """Bundles seed, scale, backend, worker nodes and cache for one experiment run.

    Parameters
    ----------
    seed:
        Base seed for every workload generator the experiments draw from.
    paper_scale:
        When true, experiments use the paper's (much larger) instance counts.
    backend:
        One of :data:`BACKENDS`; see the module docstring.  The deprecated
        ``"vectorized"`` is still accepted and becomes ``serial`` (or
        ``process-pool`` with ``workers > 1``); it will be removed together
        with ``shm``.
    workers:
        Local worker nodes for the ``process-pool`` backend.  ``0``/``1``
        means none (``process-pool`` then uses one per CPU); ``workers > 1`` on
        the default ``serial`` backend promotes the context to
        ``process-pool`` — a context that reports ``serial`` never shards.
        The nodes are forked on first use and drained and joined by
        :meth:`close`.
    cache:
        Optional :class:`~repro.batch.cache.ResultCache` consulted by
        :meth:`cached`.  A cache constructed with a backing path is saved by
        :meth:`close`, which is how ``--cache-dir`` persists results across
        CLI invocations.
    shm:
        Deprecated and ignored: :meth:`map_batch` on local nodes always
        publishes through :mod:`repro.exec.shm`.  Still accepted so existing
        ``shm=True`` call sites keep constructing; it will be removed.
    hosts:
        Worker addresses for the ``cluster`` backend:
        ``"host:port,host:port"`` or a sequence of ``host:port`` strings.
        Required (unless an explicit ``coordinator`` is supplied) when
        ``backend="cluster"``, ignored otherwise.
    cell_timeout:
        Cluster backend: seconds (> 0) one job may take on a remote worker
        before the worker is declared dead and the job is reassigned.  Local
        nodes have no job timeout.
    cluster_retries:
        Bound (>= 0) on re-executions per job on any off-process context
        after its worker was lost.  An exception raised by the mapped
        function fails the map at once.
    coordinator:
        Explicit :class:`~repro.exec.cluster.ClusterCoordinator`.  Built
        lazily when not given — from ``hosts`` on ``cluster``, over forked
        local nodes otherwise; a context that built its own coordinator
        also closes it in :meth:`close`.

    Examples
    --------
    >>> from repro.exec import ExecutionContext
    >>> ctx = ExecutionContext(seed=7)
    >>> ctx.backend
    'serial'
    >>> ctx.map(lambda x: x * 2, [1, 2, 3])
    [2, 4, 6]
    """

    seed: int = 0
    paper_scale: bool = False
    backend: str = "serial"
    workers: int = 0
    cache: ResultCache | None = None
    shm: InitVar[bool] = False
    hosts: Any = ()
    cell_timeout: float = 120.0
    cluster_retries: int = 2
    coordinator: Any = None
    _owns_coordinator: bool = field(default=False, repr=False)
    #: Jobs dispatched by the most recent :meth:`map` / :meth:`map_batch` /
    #: :meth:`map_cells` call (0 when it ran in-process).
    last_submission_count: int = field(default=0, init=False, repr=False, compare=False)
    _local_nodes: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self, shm: bool) -> None:
        if self.backend == "vectorized":
            self.backend = "serial"  # deprecated alias; workers > 1 promote it below
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown execution backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be non-negative, got {self.workers}")
        if not self.cell_timeout > 0:
            raise ValueError(f"cell_timeout must be positive, got {self.cell_timeout}")
        if self.cluster_retries < 0:
            raise ValueError(f"cluster_retries must be non-negative, got {self.cluster_retries}")
        if self.backend == "serial" and self.workers > 1:
            # Asking for workers IS asking for the process-pool backend; a context
            # reporting "serial" must never shard (serial guarantees the
            # in-process loop, e.g. for non-picklable functions).
            self.backend = "process-pool"
        if self.backend == "cluster" and self.coordinator is None and not self.hosts:
            raise ValueError("the cluster backend requires hosts (or an explicit coordinator)")
        if self.backend != "cluster":
            nodes = self.workers
            if self.backend == "process-pool" and nodes <= 1:
                nodes = os.cpu_count() or 1
            if nodes > 1:
                self._local_nodes = nodes

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_options(
        cls,
        seed: int = 0,
        paper_scale: bool = False,
        workers: int = 0,
        cache_dir: str | os.PathLike | None = None,
        backend: str = "auto",
        hosts: "str | Iterable[str] | None" = None,
        cell_timeout: float = 120.0,
        cluster_retries: int = 2,
    ) -> "ExecutionContext":
        """Build a context from CLI-style flags.

        ``--backend`` picks the backend directly; the default ``auto`` infers
        it from ``--workers N``: ``process-pool`` for ``N > 1``, ``serial``
        otherwise.  ``--backend cluster``
        additionally requires ``--hosts host:port,host:port`` naming the
        worker nodes (launch them with ``malleable-repro workers``).
        ``--cache-dir`` attaches a :class:`ResultCache` persisted to
        ``<cache_dir>/results-cache.json`` (created on demand, reloaded on
        the next invocation, saved by :meth:`close`).
        """
        if backend and backend != "auto":
            if backend not in BACKENDS:
                raise ValueError(
                    f"unknown execution backend {backend!r}; expected one of {BACKENDS}"
                )
            chosen = backend
        elif workers > 1:
            chosen = "process-pool"
        else:
            chosen = "serial"
        if chosen == "cluster" and not hosts:
            raise ValueError("--backend cluster requires --hosts host:port[,host:port...]")
        cache = None
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)
            cache = ResultCache(path=os.path.join(os.fspath(cache_dir), CACHE_FILE_NAME))
        return cls(
            seed=seed,
            paper_scale=paper_scale,
            backend=chosen,
            workers=workers,
            cache=cache,
            hosts=hosts or (),
            cell_timeout=cell_timeout,
            cluster_retries=cluster_retries,
        )

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #

    def rng(self, salt: int = 0) -> np.random.Generator:
        """A fresh generator seeded from ``seed + salt``.

        Experiments call this once per sweep (per size, per family, ...) so
        every sweep restarts from a deterministic stream exactly as the
        historical per-loop ``np.random.default_rng(seed)`` calls did.
        """
        return np.random.default_rng(self.seed + salt)

    def scale(self, quick: int, paper: int | None = None) -> int:
        """Pick the quick or paper-scale count for a sweep parameter."""
        if self.paper_scale and paper is not None:
            return paper
        return quick

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    @property
    def off_process(self) -> bool:
        """True when :meth:`map` and friends ship work to worker nodes."""
        return self.backend == "cluster" or self._local_nodes > 1

    def cluster(self):
        """The connected coordinator of an off-process context (built lazily).

        An explicit ``coordinator`` is used as-is, otherwise one over
        ``hosts`` or the forked local nodes is built on first use and
        closed by :meth:`close`.  Connecting is idempotent.
        """
        if not self.off_process:
            raise ValueError(f"backend {self.backend!r} with workers={self.workers} runs in-process")
        if self.coordinator is None:
            from repro.exec.cluster import ClusterCoordinator

            self.coordinator = ClusterCoordinator(
                self.hosts,
                cell_timeout=self.cell_timeout,
                max_retries=self.cluster_retries,
                local_nodes=self._local_nodes,
            )
            self._owns_coordinator = True
        self.coordinator.connect()
        return self.coordinator

    def map_cells(
        self,
        payloads: "Iterable[Mapping[str, Any]]",
        on_result: "Callable[[int, list], None] | None" = None,
    ) -> list:
        """Run scenario cell payloads through the backend, results in order.

        The cell-level dispatch point of :class:`~repro.scenarios.runner.SweepRunner`:
        an off-process context sends one job per cell of the module-level
        :func:`repro.scenarios.runner.run_cell` to its worker nodes; an
        in-process one runs the cells in a loop.  ``on_result``
        (``index, records``) fires once per completed cell — the sweep
        runner uses it to persist the cell cache incrementally so an
        interrupted cluster sweep resumes from the last completed cell.
        """
        from repro.scenarios.runner import run_cell

        payloads = list(payloads)
        if self.off_process and payloads:
            coordinator = self.cluster()
            results = coordinator.map(run_cell, payloads, on_result=on_result)
            self.last_submission_count = coordinator.last_job_count
            return results
        results = self.map(run_cell, payloads)
        if on_result is not None:
            for index, records in enumerate(results):
                on_result(index, records)
        return results

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
        """Apply ``fn`` to every item through the configured backend.

        In-process contexts run the plain loop; off-process contexts shard
        the items over their worker nodes (order-preserving, identical
        results — ``fn`` must then be picklable, and importable on remote
        nodes).  This is the single entry point experiments use for
        per-instance work, so switching backends never touches experiment
        logic.

        The nodes receive **adaptive chunks**: at most ``workers *
        CHUNKS_PER_WORKER`` jobs, each carrying a contiguous slice, so a
        100k-item map costs O(workers) round trips.  Maps of one item run
        in-process.  :attr:`last_submission_count` records the jobs of
        the call.
        """
        items = list(items)
        if not self.off_process or len(items) <= 1:
            self.last_submission_count = 0
            return [fn(item) for item in items]
        coordinator = self.cluster()
        ranges = chunk_ranges(len(items), coordinator.live_workers())
        chunks = coordinator.map(functools.partial(_apply_chunk, fn), [items[lo:hi] for lo, hi in ranges])
        self.last_submission_count = coordinator.last_job_count
        return [result for chunk in chunks for result in chunk]

    def map_batch(
        self,
        fn: Callable[..., Any],
        batch: Any,
        extra: "Mapping[str, Any] | None" = None,
    ) -> list:
        """Map ``fn`` over row-chunks of an ``InstanceBatch``, row order kept.

        ``fn`` receives a contiguous row slice of ``batch`` (and, when
        ``extra`` per-row arrays are supplied, a dict of their matching
        slices as a second argument) and must return one result per row;
        the concatenation over chunks is returned as a flat list.  ``fn``
        must be row-independent — chunk boundaries must not change values —
        which is what makes the backends interchangeable:

        * an in-process context applies ``fn`` to the whole batch at once;
        * an off-process context splits the rows into ``CHUNKS_PER_WORKER
          x`` its node count chunk jobs through
          :meth:`~repro.exec.cluster.ClusterCoordinator.map_batch`: local
          nodes read the rows from **one** segment published per call by
          :func:`repro.exec.shm.publish_batch` (unlinked on return), remote
          nodes receive them once per node.  Off-process row slices are
          rebuilt without task names.
        """
        from repro.core.batch import InstanceBatch  # local: keep import cheap

        if not isinstance(batch, InstanceBatch):
            raise TypeError(f"map_batch expects an InstanceBatch, got {type(batch).__name__}")
        if self.off_process and batch.batch_size > 1:
            coordinator = self.cluster()
            results = coordinator.map_batch(fn, batch, extra)
            self.last_submission_count = coordinator.last_job_count
            return results
        self.last_submission_count = 0
        if not extra:
            return list(fn(batch))
        from repro.exec.shm import batch_arrays

        arrays = batch_arrays(batch, extra)
        return list(fn(batch, {name: arrays[name] for name in extra}))

    def cached(
        self, name: str, params: Mapping[str, Any], compute: Callable[[], Any]
    ) -> Any:
        """Memoize ``compute()`` under ``(name, seed, params)``.

        Without a cache this simply calls ``compute()``.  ``params`` must be
        JSON-canonicalisable (see :func:`repro.batch.cache.cache_key`).  The
        key never mentions the backend: every backend computes the same
        values, so serial, pooled and cluster runs share one ``--cache-dir``.
        """
        if self.cache is None:
            return compute()
        return self.cache.get_or_compute(cache_key(name, self.seed, params), compute)

    def close(self) -> None:
        """Release resources: close an owned coordinator, save a backed cache.

        Closing the coordinator drains and joins the local nodes it forked.
        A failed cache save raises: the previous cache file is left intact
        (see :meth:`ResultCache.save`), and the caller learns the new
        results were not persisted.
        """
        if self.coordinator is not None and self._owns_coordinator:
            self.coordinator.close()
            self.coordinator = None
            self._owns_coordinator = False
        if self.cache is not None and self.cache.path:
            self.cache.save()

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
