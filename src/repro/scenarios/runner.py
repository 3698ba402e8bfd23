"""The sweep engine: expand a scenario spec and execute it on any backend.

:class:`SweepRunner` turns a :class:`~repro.scenarios.spec.ScenarioSpec` into
grid cells (:mod:`repro.scenarios.grid`), shards the cells through
:meth:`repro.exec.ExecutionContext.map` — so ``--workers`` distributes whole
cells over a process pool — and evaluates each cell with the pipeline the
spec names:

``policies``
    Materialise the cell's instances / release times once
    (:func:`repro.scenarios.families.build_cell_workload`), then run the
    selected online policies.  On a ``vectorized`` context the whole cell is
    one :func:`repro.batch.sim_kernels.simulate_batch` call per policy; on
    the other backends each instance runs through the scalar
    :func:`repro.simulation.engine.simulate`.  Both paths share the same
    inputs and the same metric definitions, so their summary tables agree up
    to floating-point noise (asserted by ``tests/test_scenarios.py``).
``bandwidth``
    The master–worker transfer-strategy comparison of experiment E8.
``solver-timing``
    Best-of-3 wall-clock timings of the polynomial solvers (experiment E7).

Results are flat dict records (see :mod:`repro.scenarios.store`), optionally
persisted through a :class:`~repro.scenarios.store.ResultsStore`.

Examples
--------
>>> from repro.exec import ExecutionContext
>>> from repro.scenarios import SweepRunner, get_scenario
>>> spec = get_scenario("e5-policy-comparison").with_overrides(
...     grid={"n": [6]}, count=2, policies=("WDEQ",))
>>> with ExecutionContext(seed=0, backend="vectorized") as ctx:
...     result = SweepRunner(spec, ctx).run()
>>> sorted(result.records[0]["metrics"])
['max_ratio', 'mean_makespan', 'mean_objective', 'mean_ratio']
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.exec import ExecutionContext
from repro.scenarios.grid import ScenarioCell, expand_grid, split_cell_params
from repro.scenarios.spec import METRIC_NAMES, ScenarioSpec
from repro.scenarios.store import ResultsStore, summary_table

__all__ = ["SweepRunner", "SweepResult", "run_cell"]


# --------------------------------------------------------------------- #
# Cell pipelines (module-level so payloads pickle into worker processes)
# --------------------------------------------------------------------- #


def _policies_cell(
    spec: ScenarioSpec,
    cell: ScenarioCell,
    backend: str,
) -> list[dict[str, Any]]:
    """Evaluate one ``policies`` cell; identical inputs on every backend."""
    from repro.core.batch import InstanceBatch
    from repro.scenarios.families import build_cell_workload

    gen_kwargs, count, arrival, weight = split_cell_params(spec, cell)
    if spec.generator == "trace_replay" and int(gen_kwargs.get("chunk_size") or 0) > 0:
        return _streamed_trace_cell(spec, cell, gen_kwargs, count, arrival, weight)
    instances, releases = build_cell_workload(
        spec.generator, gen_kwargs, count, arrival, weight, cell.seed
    )
    wanted = spec.policies
    per_policy: dict[str, dict[str, float]] = {}
    if backend == "vectorized":
        from repro.batch.kernels import combined_lower_bound_batch
        from repro.batch.sim_kernels import default_batch_policies, simulate_batch

        batch = InstanceBatch.from_instances(instances)
        policies = [
            p for p in default_batch_policies(batch) if not wanted or p.name in wanted
        ]
        bounds = combined_lower_bound_batch(batch)
        safe = np.where(bounds > 0, bounds, 1.0)
        for policy in policies:
            result = simulate_batch(batch, policy, release_times=releases)
            objectives = result.weighted_completion_times()
            ratios = np.where(bounds > 0, objectives / safe, 1.0)
            per_policy[policy.name] = {
                "mean_ratio": float(ratios.mean()),
                "max_ratio": float(ratios.max()),
                "mean_objective": float(objectives.mean()),
                "mean_makespan": float(result.makespans().mean()),
            }
    else:
        from repro.core.bounds import combined_lower_bound
        from repro.simulation.engine import simulate
        from repro.simulation.nonclairvoyant import default_policies

        values: dict[str, list[tuple[float, float, float]]] = {}
        for b, inst in enumerate(instances):
            bound = combined_lower_bound(inst)
            n = inst.n
            row_releases = releases[b, :n] if releases is not None else None
            for policy in default_policies(inst):
                if wanted and policy.name not in wanted:
                    continue
                result = simulate(inst, policy, release_times=row_releases)
                objective = result.weighted_completion_time()
                ratio = objective / bound if bound > 0 else 1.0
                values.setdefault(policy.name, []).append(
                    (ratio, objective, result.makespan())
                )
        for name, triples in values.items():
            ratios = np.array([t[0] for t in triples])
            objectives = np.array([t[1] for t in triples])
            makespans = np.array([t[2] for t in triples])
            per_policy[name] = {
                "mean_ratio": float(ratios.mean()),
                "max_ratio": float(ratios.max()),
                "mean_objective": float(objectives.mean()),
                "mean_makespan": float(makespans.mean()),
            }
    return [
        _record(spec, cell, label, len(instances), metrics)
        for label, metrics in per_policy.items()
    ]


def _streamed_trace_cell(
    spec: ScenarioSpec,
    cell: ScenarioCell,
    gen_kwargs: Mapping[str, Any],
    count: int,
    arrival: Mapping[str, Any],
    weight: Mapping[str, Any],
) -> list[dict[str, Any]]:
    """Evaluate a ``trace_replay`` cell without materialising the trace.

    Taken whenever the cell carries a positive ``chunk_size`` parameter: the
    trace streams through :func:`repro.scenarios.stream.replay_stream` in
    ``chunk_size``-instance batches and online accumulators produce the same
    metrics — up to floating-point reassociation — as the in-memory path on
    the same ``count``-instance prefix.  Peak memory is O(chunk), so a
    million-row trace replays in a bounded footprint on every backend.
    """
    from repro.core.exceptions import InvalidInstanceError
    from repro.scenarios.stream import replay_stream

    kwargs = dict(gen_kwargs)
    trace = kwargs.pop("trace")
    P = float(kwargs.pop("P", 1.0))
    chunk_size = int(kwargs.pop("chunk_size"))
    fmt = str(kwargs.pop("format", "auto"))
    if kwargs:
        raise InvalidInstanceError(
            "trace_replay accepts only 'trace', 'P', 'chunk_size' and "
            f"'format' parameters, got {sorted(kwargs)}"
        )
    per_policy, total = replay_stream(
        trace,
        P,
        chunk_size=chunk_size,
        policies=spec.policies,
        max_instances=count,
        fmt=fmt,
        weight=weight or None,
        arrival=arrival or None,
        seed=cell.seed,
    )
    return [
        _record(spec, cell, label, total, metrics)
        for label, metrics in per_policy.items()
    ]


def _bandwidth_cell(
    spec: ScenarioSpec, cell: ScenarioCell, backend: str
) -> list[dict[str, Any]]:
    """Evaluate one ``bandwidth`` cell (transfer strategies of E8)."""
    from repro.bandwidth.network import BandwidthScenario
    from repro.bandwidth.transfer import plan_transfers

    gen_kwargs, count, _, _ = split_cell_params(spec, cell)
    n = int(gen_kwargs.get("n", 10))
    horizon_slack = float(gen_kwargs.get("horizon_slack", 2.0))
    server_bandwidth = float(gen_kwargs.get("server_bandwidth", 1000.0))
    rng = np.random.default_rng(cell.seed)
    throughputs: dict[str, list[float]] = {}
    objectives: dict[str, list[float]] = {}
    for _ in range(count):
        scenario = BandwidthScenario.random(
            n, server_bandwidth=server_bandwidth, horizon_slack=horizon_slack, rng=rng
        )
        for plan in plan_transfers(scenario):
            throughputs.setdefault(plan.strategy, []).append(plan.throughput(scenario))
            objectives.setdefault(plan.strategy, []).append(
                plan.weighted_completion_time(scenario)
            )
    return [
        _record(
            spec,
            cell,
            strategy,
            count,
            {
                "mean_throughput": float(np.mean(throughputs[strategy])),
                "mean_objective": float(np.mean(objectives[strategy])),
            },
        )
        for strategy in throughputs
    ]


def _solver_timing_cell(
    spec: ScenarioSpec, cell: ScenarioCell, backend: str
) -> list[dict[str, Any]]:
    """Time the polynomial solvers on one instance (E7's scaling sweep)."""
    from repro.algorithms.greedy import greedy_completion_times
    from repro.algorithms.lateness import minimize_max_lateness
    from repro.algorithms.makespan import minimal_makespan
    from repro.algorithms.water_filling import water_filling_schedule
    from repro.algorithms.wdeq import wdeq_schedule
    from repro.scenarios.families import build_cell_workload

    gen_kwargs, count, _, _ = split_cell_params(spec, cell)
    repeats = int(gen_kwargs.pop("repeats", 3))
    lp_max_n = int(gen_kwargs.pop("lp_max_n", 0))
    exact_max_n = int(gen_kwargs.pop("exact_max_n", 0))
    instances, _ = build_cell_workload(spec.generator, gen_kwargs, 1, {}, {}, cell.seed)
    inst = instances[0]
    order = inst.smith_order()
    completions = wdeq_schedule(inst).completion_times_by_task()

    def best_of(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best * 1e3

    solvers = {
        "WDEQ": lambda: wdeq_schedule(inst),
        "WF normal form": lambda: water_filling_schedule(inst, completions),
        "greedy": lambda: greedy_completion_times(inst, order),
        "C_max": lambda: minimal_makespan(inst),
        "L_max": lambda: minimize_max_lateness(inst, completions),
    }
    if 0 < inst.n <= lp_max_n:
        # The ordered-relaxation LP is polynomial per *ordering* but much
        # heavier than the combinatorial solvers, so the spec opts in via
        # params.lp_max_n (experiment E7's grid caps it at moderate n).
        from repro.lp.interface import solve_ordered_relaxation

        solvers["ordered LP (HiGHS)"] = lambda: solve_ordered_relaxation(
            inst, order, build_schedule=False
        )
    if 0 < inst.n <= exact_max_n:
        # Exact OPT is NP-hard; the branch-and-bound engine of
        # repro.lp.exact makes it affordable to ~n=12-14, and the spec opts
        # in via params.exact_max_n the same way lp_max_n gates the LP row.
        from repro.core.batch import InstanceBatch
        from repro.lp.batch import optimal

        exact_batch = InstanceBatch.from_instances([inst])
        solvers["exact OPT (branch-and-bound)"] = lambda: optimal(
            exact_batch, method="branch-and-bound"
        )
    return [
        _record(spec, cell, name, 1, {"best_ms": best_of(fn)})
        for name, fn in solvers.items()
    ]


_PIPELINES = {
    "policies": _policies_cell,
    "bandwidth": _bandwidth_cell,
    "solver-timing": _solver_timing_cell,
}


def _record(
    spec: ScenarioSpec,
    cell: ScenarioCell,
    label: str,
    count: int,
    metrics: Mapping[str, float],
) -> dict[str, Any]:
    return {
        "scenario": spec.name,
        "cell": cell.index,
        "params": dict(cell.params),
        "label": label,
        "count": count,
        "seed": cell.seed,
        "metrics": dict(metrics),
    }


def run_cell(payload: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Execute one grid cell described by a plain-dict payload.

    The payload — ``{"spec": spec.to_dict(), "cell": {...}, "backend": ...}``
    — is built by :class:`SweepRunner` and contains only JSON-serialisable
    values, so it pickles cleanly into the process-pool backend's workers.
    Returns one record per evaluated label (see
    :mod:`repro.scenarios.store` for the schema).
    """
    spec = ScenarioSpec.from_dict(payload["spec"])
    cell_data = payload["cell"]
    cell = ScenarioCell(
        scenario=cell_data["scenario"],
        index=cell_data["index"],
        params=dict(cell_data["params"]),
        seed=cell_data["seed"],
    )
    backend = payload.get("backend", "serial")
    return _PIPELINES[spec.pipeline](spec, cell, backend)


# --------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------- #


@dataclass
class SweepResult:
    """Outcome of one sweep: the spec, all records and the summary table."""

    spec: ScenarioSpec
    records: list[dict[str, Any]]
    headers: list[str] = field(default_factory=list)
    rows: list[list[object]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.headers:
            self.headers, self.rows = summary_table(self.records, self.spec.metrics)

    def to_text(self) -> str:
        """Monospace summary table (what ``malleable-repro sweep`` prints)."""
        from repro.viz.tables import format_table

        return format_table(self.headers, self.rows)

    def to_markdown(self) -> str:
        """Markdown summary table."""
        from repro.viz.tables import format_markdown_table

        return format_markdown_table(self.headers, self.rows)


class SweepRunner:
    """Expand a scenario spec into cells and execute them through a context.

    Parameters
    ----------
    spec:
        The scenario to run.
    ctx:
        Execution context; ``None`` builds a default serial context.  The
        backend decides both *where* cells run (in-process or sharded over
        the context's worker pool) and *how* each ``policies`` cell executes
        (scalar engine vs :func:`repro.batch.sim_kernels.simulate_batch`).

    Examples
    --------
    >>> from repro.scenarios import ScenarioSpec, SweepRunner
    >>> spec = ScenarioSpec(name="tiny", generator="uniform_instances",
    ...                     grid={"n": [3]}, count=2, policies=("WDEQ",))
    >>> result = SweepRunner(spec).run()
    >>> [r["label"] for r in result.records]
    ['WDEQ']
    """

    def __init__(self, spec: ScenarioSpec, ctx: ExecutionContext | None = None):
        self.spec = spec
        self.ctx = ctx if ctx is not None else ExecutionContext()

    def cells(self) -> list[ScenarioCell]:
        """The deterministic grid expansion (seeded from the context)."""
        return expand_grid(self.spec, base_seed=self.ctx.seed)

    def payloads(self) -> list[dict[str, Any]]:
        """One picklable payload per cell for :func:`run_cell`."""
        # Cluster cells run the vectorized pipeline on their node: one
        # simulate_batch call per cell, and bitwise agreement with a local
        # vectorized run of the same cells.
        backend = (
            "vectorized"
            if self.ctx.vectorized or self.ctx.backend == "cluster"
            else "serial"
        )
        spec_dict = self.spec.to_dict()
        return [
            {
                "spec": spec_dict,
                "cell": {
                    "scenario": cell.scenario,
                    "index": cell.index,
                    "params": dict(cell.params),
                    "seed": cell.seed,
                },
                "backend": backend,
            }
            for cell in self.cells()
        ]

    def dry_run_table(self) -> tuple[list[str], list[list[object]]]:
        """The expanded grid as a table — what ``sweep --dry-run`` prints."""
        headers = ["cell", "seed", "params", "pipeline", "count"]
        rows: list[list[object]] = []
        for cell in self.cells():
            _, count, _, _ = split_cell_params(self.spec, cell)
            rows.append([cell.index, cell.seed, cell.label(), self.spec.pipeline, count])
        return headers, rows

    def cell_cache_keys(self, payloads: list[dict[str, Any]] | None = None) -> list[str]:
        """The ``ResultCache`` key of every cell, in payload order.

        The keys are **backend-invariant**: they cover the spec, the cell,
        and the resolved LP solver — but never *where* the cell ran.  A
        cache populated by a cluster sweep is served verbatim by a serial or
        vectorized rerun and vice versa (differential-tested in
        ``tests/test_cluster.py``); cells computed under one LP solver are
        never served to another.
        """
        from repro.batch.cache import cache_key

        if payloads is None:
            payloads = self.payloads()
        return [
            cache_key(
                f"scenario:{self.spec.name}",
                self.ctx.seed,
                {
                    "cell": p["cell"],
                    "spec": p["spec"],
                    "lp_backend": self.ctx.resolved_lp_backend(),
                },
            )
            for p in payloads
        ]

    def run(self, store: ResultsStore | None = None) -> SweepResult:
        """Execute every cell; optionally persist records + summary to ``store``.

        Cells run through :meth:`ExecutionContext.map_cells`, so a
        process-pool context shards whole cells over its workers and a
        ``cluster`` context shards them over its worker nodes.  On every
        backend the deterministic pipelines consult the context's cache
        first (keyed per :meth:`cell_cache_keys`) and only the missing cells
        are executed, so re-running an identical sweep with a persistent
        cache (``--cache-dir``) skips recomputation — timings
        (``solver-timing``) are never cached.  On the cluster backend a
        path-backed cache is additionally *saved after every completed
        cell*: a coordinator killed mid-sweep resumes from the last
        completed cell, re-dispatching exactly the uncached remainder.
        """
        payloads = self.payloads()
        cache = self.ctx.cache
        if cache is not None and self.spec.pipeline != "solver-timing":
            keys = self.cell_cache_keys(payloads)
            sentinel = object()
            results = [cache.get(key, sentinel) for key in keys]
            missing = [i for i, value in enumerate(results) if value is sentinel]
            if missing:
                persist = self.ctx.backend == "cluster" and cache.path is not None

                def _on_result(local_index: int, cell_records: list) -> None:
                    cache.put(keys[missing[local_index]], cell_records)
                    if persist:
                        cache.save()

                computed = self.ctx.map_cells(
                    [payloads[i] for i in missing], on_result=_on_result
                )
                for i, cell_records in zip(missing, computed):
                    results[i] = cell_records
        else:
            results = self.ctx.map_cells(payloads)
        records = [record for cell_records in results for record in cell_records]
        result = SweepResult(spec=self.spec, records=records)
        if store is not None:
            store.write_records(records)
            store.write_summary(records, self.spec.metrics, title=f"Sweep: {self.spec.name}")
        return result


def available_metrics() -> tuple[str, ...]:
    """The metric names the ``policies`` pipeline can report."""
    return METRIC_NAMES
