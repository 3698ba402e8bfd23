"""The :class:`ExecutionContext`: one object that says *how* experiments run.

Before this module existed, execution options reached the experiments as a
sprawl of per-experiment keyword arguments (``seed``, ``paper_scale``,
``runner``, ``use_batch``, ``cache``) that the registry filtered by signature
inspection.  The context bundles them into a single explicit value that every
experiment accepts, so "which backend runs this" is a first-class, pluggable
concept instead of a kwargs-routing convention.

Three backends are supported:

``serial``
    The historical in-process loop.  Default, zero dependencies, exactly
    reproduces the scalar code paths.
``vectorized``
    Experiments route their per-instance sweeps through the padded-batch
    NumPy kernels of :mod:`repro.batch` (closed-form kernels *and* the
    discrete-event simulation kernel of :mod:`repro.batch.sim_kernels`)
    wherever a kernel exists; everything else falls back to the serial loop
    (or the runner, when ``workers > 1``).
``process-pool``
    Per-instance work is sharded over a
    :class:`~repro.batch.runner.BatchRunner` worker pool.
``cluster``
    Work is sharded over socket-connected
    :class:`~repro.exec.cluster.WorkerNode` processes — localhost ports or
    remote hosts — through a :class:`~repro.exec.cluster.ClusterCoordinator`
    (``hosts=...`` names them).  Cells run vectorized on each node; see
    :mod:`repro.exec.cluster` for the protocol and failure model.

A context with ``backend="vectorized"`` and ``workers > 1`` combines both
levers: vectorized kernels where they exist, the pool for the remaining
scalar work — this is what ``malleable-repro all --batch --workers N``
builds.

The LP layer follows the same pattern: :meth:`ExecutionContext.ordered_relaxation`
solves the Corollary 1 LPs of a whole batch through the backend the context's
``lp_backend`` selection resolves to — the lockstep kernel of
:mod:`repro.lp.batch` on a ``vectorized`` context, per-instance SciPy solves
sharded over the worker pool on ``process-pool``, a serial SciPy loop
otherwise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.batch.cache import ResultCache, cache_key
from repro.batch.runner import BatchRunner

__all__ = ["BACKENDS", "LP_BACKENDS", "ExecutionContext"]

#: The recognised execution backends.
BACKENDS = ("serial", "vectorized", "process-pool", "cluster")

#: The recognised LP-backend selections.  ``auto`` resolves per execution
#: backend (the batched lockstep kernel on ``vectorized``, SciPy otherwise);
#: ``scipy`` / ``simplex`` pin one scalar solver — see
#: :meth:`ExecutionContext.resolved_lp_backend`.
LP_BACKENDS = ("auto", "scipy", "simplex")

#: File name used for the persistent result cache inside ``--cache-dir``.
CACHE_FILE_NAME = "results-cache.json"


def _apply_batch_chunk(fn: Callable[..., Any], sub_batch: Any, extra: "Mapping[str, Any] | None") -> list:
    """Worker body of the pickling (non-shm) :meth:`ExecutionContext.map_batch` path."""
    if extra:
        return list(fn(sub_batch, dict(extra)))
    return list(fn(sub_batch))


@dataclass
class ExecutionContext:
    """Bundles seed, scale, backend, runner and cache for one experiment run.

    Parameters
    ----------
    seed:
        Base seed for every workload generator the experiments draw from.
    paper_scale:
        When true, experiments use the paper's (much larger) instance counts.
    backend:
        One of :data:`BACKENDS`; see the module docstring.
    workers:
        Worker processes for the ``process-pool`` backend (and for the scalar
        remainder of the ``vectorized`` backend).  ``0``/``1`` means no pool;
        ``workers > 1`` (or an explicit ``runner``) on the default ``serial``
        backend promotes the context to ``process-pool`` — a context that
        reports ``serial`` never shards.
    runner:
        Explicit :class:`~repro.batch.runner.BatchRunner`.  Built
        automatically from ``workers`` when not given; a context that built
        its own runner also closes it in :meth:`close`.
    cache:
        Optional :class:`~repro.batch.cache.ResultCache` consulted by
        :meth:`cached`.  A cache constructed with a backing path is saved by
        :meth:`close`, which is how ``--cache-dir`` persists results across
        CLI invocations.
    shm:
        Publish :meth:`map_batch` inputs through the zero-copy
        shared-memory transport of :mod:`repro.exec.shm` instead of
        pickling sub-batches into the worker processes.  Only observable
        on a context with a process pool; results are identical either way
        (asserted by ``tests/test_exact.py``), the difference is that the
        per-chunk payload shrinks to a segment name + row range.
    lp_backend:
        Which solver the LP layer should use, one of :data:`LP_BACKENDS`.
        The default ``"auto"`` picks the batched lockstep kernel of
        :mod:`repro.lp.batch` on the ``vectorized`` backend and SciPy/HiGHS
        everywhere else; ``"scipy"`` / ``"simplex"`` pin the scalar solver
        (still sharded over the worker pool on a ``process-pool`` context).
        The *resolved* solver is part of every :meth:`cached` key, so
        neither switching ``--lp-backend`` nor an ``auto`` that resolves
        differently across backends can return results computed by another
        solver.
    hosts:
        Worker addresses for the ``cluster`` backend:
        ``"host:port,host:port"`` or a sequence of ``host:port`` strings.
        Required (unless an explicit ``coordinator`` is supplied) when
        ``backend="cluster"``, ignored otherwise.
    cell_timeout:
        Cluster backend: seconds one cell may take on a worker before the
        worker is declared dead and the cell is reassigned.
    cluster_retries:
        Cluster backend: bound on re-executions per cell (reassignments
        after worker death and remote failures both count).
    coordinator:
        Explicit :class:`~repro.exec.cluster.ClusterCoordinator` (mirrors
        ``runner``: built lazily from ``hosts`` when not given; a context
        that built its own coordinator also closes it in :meth:`close`).

    Examples
    --------
    >>> from repro.exec import ExecutionContext
    >>> ctx = ExecutionContext(seed=7, backend="vectorized")
    >>> ctx.vectorized
    True
    >>> ctx.map(lambda x: x * 2, [1, 2, 3])
    [2, 4, 6]
    """

    seed: int = 0
    paper_scale: bool = False
    backend: str = "serial"
    workers: int = 0
    runner: BatchRunner | None = None
    cache: ResultCache | None = None
    lp_backend: str = "auto"
    shm: bool = False
    hosts: Any = ()
    cell_timeout: float = 120.0
    cluster_retries: int = 2
    coordinator: Any = None
    _owns_runner: bool = field(default=False, repr=False)
    _owns_coordinator: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown execution backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.lp_backend not in LP_BACKENDS:
            raise ValueError(
                f"unknown LP backend {self.lp_backend!r}; expected one of {LP_BACKENDS}"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be non-negative, got {self.workers}")
        if self.backend == "serial" and (self.workers > 1 or self.runner is not None):
            # Asking for workers IS asking for the pool backend; a context
            # reporting "serial" must never shard (serial guarantees the
            # in-process loop, e.g. for non-picklable functions).
            self.backend = "process-pool"
        if self.backend == "cluster" and self.coordinator is None and not self.hosts:
            raise ValueError("the cluster backend requires hosts (or an explicit coordinator)")
        if self.runner is None and self.backend != "cluster":
            pool_workers = self.workers
            if self.backend == "process-pool" and pool_workers <= 1:
                pool_workers = os.cpu_count() or 1
            if pool_workers > 1:
                self.runner = BatchRunner(workers=pool_workers, cache=self.cache)
                self._owns_runner = True
        if self.cache is None and self.runner is not None:
            self.cache = self.runner.cache

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_options(
        cls,
        seed: int = 0,
        paper_scale: bool = False,
        batch: bool = False,
        workers: int = 0,
        cache_dir: str | os.PathLike | None = None,
        lp_backend: str = "auto",
        shm: bool = False,
        backend: str = "auto",
        hosts: "str | Iterable[str] | None" = None,
        cell_timeout: float = 120.0,
        cluster_retries: int = 2,
    ) -> "ExecutionContext":
        """Build a context from CLI-style flags.

        ``--backend`` picks the backend directly; the default ``auto`` keeps
        the historical flag inference: ``--batch`` selects the
        ``vectorized`` backend, ``--workers N`` (for ``N > 1``) the
        ``process-pool`` backend, and both together a vectorized context
        with a worker pool for the scalar remainder.  ``--backend cluster``
        additionally requires ``--hosts host:port,host:port`` naming the
        worker nodes (launch them with ``malleable-repro workers``).
        ``--cache-dir`` attaches a :class:`ResultCache` persisted to
        ``<cache_dir>/results-cache.json`` (created on demand, reloaded on
        the next invocation, saved by :meth:`close`); ``--lp-backend``
        selects the LP solver (see :data:`LP_BACKENDS`); ``--shm`` switches
        the pool's batch maps onto the shared-memory transport.
        """
        if backend and backend != "auto":
            if backend not in BACKENDS:
                raise ValueError(
                    f"unknown execution backend {backend!r}; expected one of {BACKENDS}"
                )
            chosen = backend
        elif batch:
            chosen = "vectorized"
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
            lp_backend=lp_backend,
            shm=shm,
            hosts=hosts or (),
            cell_timeout=cell_timeout,
            cluster_retries=cluster_retries,
        )

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #

    @property
    def vectorized(self) -> bool:
        """True when experiments should prefer the padded-batch kernels."""
        return self.backend == "vectorized"

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

    def resolved_lp_backend(self) -> str:
        """The concrete LP solver this context selects.

        ``"batch"`` (the lockstep kernel of :mod:`repro.lp.batch`) on a
        ``vectorized`` context with ``lp_backend="auto"``; otherwise the
        pinned scalar solver, with ``auto`` defaulting to ``"scipy"``.  The
        scalar solvers still benefit from a worker pool: the batched LP entry
        point shards them over :meth:`map`.
        """
        if self.lp_backend == "auto":
            return "batch" if self.vectorized else "scipy"
        return self.lp_backend

    def ordered_relaxation(
        self,
        batch,
        orders=None,
        build_schedules: bool = False,
    ):
        """Solve the Corollary 1 LP for every row of an ``InstanceBatch``.

        The execution-layer entry point to the LP subsystem: resolves the
        context's LP backend (:meth:`resolved_lp_backend`) and forwards to
        :func:`repro.lp.batch.solve_ordered_relaxation_batch` — the lockstep
        kernel on a ``vectorized`` context, scalar solves sharded over the
        worker pool on a ``process-pool`` context, a plain serial loop
        otherwise.  Returns a
        :class:`~repro.lp.batch.BatchedOrderedSolution`.
        """
        from repro.lp.batch import solve_ordered_relaxation_batch

        return solve_ordered_relaxation_batch(
            batch,
            orders=orders,
            backend=self.resolved_lp_backend(),  # type: ignore[arg-type]
            ctx=self,
            build_schedules=build_schedules,
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def cluster(self):
        """The connected coordinator of a ``cluster`` context (built lazily).

        Mirrors how ``runner`` backs the pool backend: an explicit
        ``coordinator`` is used as-is, otherwise one is constructed from
        ``hosts`` / ``cell_timeout`` / ``cluster_retries`` on first use and
        closed by :meth:`close`.  Connecting is idempotent.
        """
        if self.backend != "cluster":
            raise ValueError(f"cluster() requires backend='cluster', not {self.backend!r}")
        if self.coordinator is None:
            from repro.exec.cluster import ClusterCoordinator

            self.coordinator = ClusterCoordinator(
                self.hosts,
                cell_timeout=self.cell_timeout,
                max_retries=self.cluster_retries,
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
        on a ``cluster`` context the payloads shard over the worker nodes;
        every other backend routes them through :meth:`map` with the
        module-level :func:`repro.scenarios.runner.run_cell`.  ``on_result``
        (``index, records``) fires once per completed cell — the sweep
        runner uses it to persist the cell cache incrementally so an
        interrupted cluster sweep resumes from the last completed cell.
        """
        payloads = list(payloads)
        if self.backend == "cluster":
            return self.cluster().map_cells(payloads, on_result=on_result)
        from repro.scenarios.runner import run_cell

        results = self.map(run_cell, payloads)
        if on_result is not None:
            for index, records in enumerate(results):
                on_result(index, records)
        return results

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
        """Apply ``fn`` to every item through the configured backend.

        Serial contexts run the plain in-process loop; contexts with a
        runner shard the items over its workers (order-preserving, identical
        results — ``fn`` must then be picklable); ``cluster`` contexts
        shard them over the worker nodes (``fn`` must be picklable *and*
        importable on the nodes).  This is the single entry point
        experiments use for per-instance work, so switching backends never
        touches experiment logic.
        """
        if self.backend == "cluster":
            return self.cluster().map(fn, list(items))
        if self.runner is not None:
            return self.runner.map(fn, items)
        return [fn(item) for item in items]

    def map_batch(
        self,
        fn: Callable[..., Any],
        batch: Any,
        extra: "Mapping[str, Any] | None" = None,
        chunks: int | None = None,
    ) -> list:
        """Map ``fn`` over row-chunks of an ``InstanceBatch``, row order kept.

        ``fn`` receives a contiguous row slice of ``batch`` (and, when
        ``extra`` per-row arrays are supplied, a dict of their matching
        slices as a second argument) and must return one result per row;
        the concatenation over chunks is returned as a flat list.  ``fn``
        must be row-independent — chunk boundaries must not change values —
        which is what makes the backends interchangeable:

        * without a worker pool the whole batch is one chunk in-process;
        * a pool context pickles each sub-batch into a worker, one future
          per chunk (O(workers) submissions);
        * with ``shm=True`` the batch is published **once** through
          :func:`repro.exec.shm.publish_batch` and each future carries only
          ``(handle, lo, hi)`` — the zero-copy path for large sweeps.

        ``batch`` may also be an already-published
        :class:`repro.exec.shm.SharedBatch` — the publish step is then
        skipped (and the published extra arrays are used), which is how a
        sweep maps several functions over one cell for a single
        publication.  ``chunks`` defaults to ``2 x`` the pool's worker
        count.
        """
        from repro.core.batch import InstanceBatch  # local: keep import cheap
        from repro.exec.shm import SharedBatch

        shared_in: SharedBatch | None = None
        if isinstance(batch, SharedBatch):
            if extra is not None:
                raise ValueError("pass extra arrays to publish_batch, not to map_batch, for a SharedBatch")
            shared_in = batch
            batch = shared_in.batch
            extra = shared_in.extra
        if not isinstance(batch, InstanceBatch):
            raise TypeError(f"map_batch expects an InstanceBatch, got {type(batch).__name__}")
        B = batch.batch_size
        extra_arrays = {name: np.asarray(value) for name, value in (extra or {}).items()}
        for name, value in extra_arrays.items():
            if value.shape[:1] != (B,):
                raise ValueError(
                    f"extra array {name!r} must have leading dimension {B}, got {value.shape}"
                )
        if self.backend == "cluster":
            # Rows ship once per node (content-fingerprinted PushBatch);
            # chunk jobs carry only (batch_id, lo, hi).
            return self.cluster().map_batch(fn, batch, extra_arrays or None, chunks)
        if self.runner is None or self.runner.workers <= 1 or B <= 1:
            if extra_arrays:
                return list(fn(batch, extra_arrays))
            return list(fn(batch))
        from repro.batch.runner import chunk_ranges

        ranges = chunk_ranges(B, self.runner.workers, chunks)
        pool = self.runner._get_pool()
        if self.shm:
            from repro.exec.shm import apply_shared_chunk, publish_batch

            shared = shared_in if shared_in is not None else publish_batch(batch, **extra_arrays)
            try:
                futures = [
                    pool.submit(apply_shared_chunk, (fn, shared.handle, lo, hi))
                    for lo, hi in ranges
                ]
                self.runner.last_submission_count = len(futures)
                results: list = []
                for future in futures:
                    results.extend(future.result())
            finally:
                if shared_in is None:  # caller-published batches outlive the call
                    shared.close()
            return results
        from repro.exec.shm import slice_batch

        futures = []
        for lo, hi in ranges:
            sub = slice_batch(batch, lo, hi)
            if extra_arrays:
                sliced = {name: value[lo:hi] for name, value in extra_arrays.items()}
                futures.append(pool.submit(_apply_batch_chunk, fn, sub, sliced))
            else:
                futures.append(pool.submit(_apply_batch_chunk, fn, sub, None))
        self.runner.last_submission_count = len(futures)
        results = []
        for future in futures:
            results.extend(future.result())
        return results

    def publish(self, batch: Any, **extra: Any) -> Any:
        """Publish a batch once for repeated :meth:`map_batch` calls.

        Thin wrapper over :func:`repro.exec.shm.publish_batch`; the
        returned :class:`~repro.exec.shm.SharedBatch` is a context manager
        that unlinks its segment on exit and can be passed to
        :meth:`map_batch` in place of the batch on any backend.
        """
        from repro.exec.shm import publish_batch

        return publish_batch(batch, **extra)

    def cached(
        self, name: str, params: Mapping[str, Any], compute: Callable[[], Any]
    ) -> Any:
        """Memoize ``compute()`` under ``(name, seed, LP solver, params)``.

        Without a cache this simply calls ``compute()``.  ``params`` must be
        JSON-canonicalisable (see :func:`repro.batch.cache.cache_key`); the
        context adds its own seed and *resolved* LP solver to the key —
        results computed by one solver must never be served to a run using
        another from a shared ``--cache-dir``.  Keying on the resolved value
        (not the raw selection) also separates ``auto`` contexts that
        resolve differently (a vectorized ``auto`` uses the lockstep LP
        kernel); the context's values are merged last so caller-supplied
        ``params`` entries cannot shadow them (regression-tested in
        ``tests/test_exec.py``).
        """
        if self.cache is None:
            return compute()
        key_params = {
            **dict(params),
            "lp_backend": self.resolved_lp_backend(),
        }
        return self.cache.get_or_compute(cache_key(name, self.seed, key_params), compute)

    def close(self) -> None:
        """Release resources: shut down an owned runner/coordinator, save a backed cache."""
        if self.runner is not None and self._owns_runner:
            self.runner.close()
        if self.coordinator is not None and self._owns_coordinator:
            self.coordinator.close()
        if self.cache is not None and getattr(self.cache, "_path", None):
            try:
                self.cache.save()
            except OSError:  # pragma: no cover - disk full / permissions
                pass

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
