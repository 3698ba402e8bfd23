"""Declarative scenario specifications — *what* to sweep, as data.

A :class:`ScenarioSpec` names a workload generator (from
:mod:`repro.workloads.generators` or a scenario family of
:mod:`repro.scenarios.families`), its fixed parameters, the parameter axes to
sweep (the *grid*), the arrival process and weight distribution that shape the
online workload, and the policies / metrics to evaluate.  It carries no code:
the same spec runs unchanged on the serial, process-pool and cluster
backends of :class:`repro.exec.ExecutionContext` through
:class:`repro.scenarios.runner.SweepRunner`.

Specs are plain data and round-trip losslessly through dictionaries
(:meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict`) and TOML files
(:meth:`ScenarioSpec.from_toml`), which is how ``malleable-repro sweep
spec.toml`` consumes them.

Examples
--------
>>> from repro.scenarios import ScenarioSpec
>>> spec = ScenarioSpec(
...     name="demo",
...     generator="cluster_instances",
...     params={"P": 64.0},
...     grid={"n": (8, 16)},
...     count=4,
...     policies=("WDEQ", "DEQ"),
... )
>>> [cell.params["n"] for cell in spec.expand()]
[8, 16]
"""

from __future__ import annotations

import os
import tomllib
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

__all__ = [
    "ScenarioSpec",
    "PIPELINES",
    "POLICY_NAMES",
    "METRIC_NAMES",
    "PIPELINE_METRICS",
    "TRACE_FORMATS",
]

#: The cell-execution pipelines understood by the sweep runner.
PIPELINES = ("policies", "bandwidth", "solver-timing")

#: Online policies selectable by name (the scalar and batched default
#: line-ups of :func:`repro.simulation.nonclairvoyant.default_policies` and
#: :func:`repro.batch.sim_kernels.default_batch_policies` use these names).
POLICY_NAMES = ("WDEQ", "DEQ", "WRR (no cap)", "Smith priority")

#: Metrics the ``policies`` pipeline can report per cell and policy.
METRIC_NAMES = ("mean_ratio", "max_ratio", "mean_objective", "mean_makespan")

#: Metrics each pipeline can report (what ``metrics = [...]`` may select).
PIPELINE_METRICS: dict[str, tuple[str, ...]] = {
    "policies": METRIC_NAMES,
    "bandwidth": ("mean_throughput", "mean_objective"),
    "solver-timing": ("best_ms",),
}

#: Arrival processes understood by :mod:`repro.scenarios.families`.
ARRIVAL_PROCESSES = ("none", "poisson", "bursty-poisson", "trace")

#: Weight distributions understood by :mod:`repro.scenarios.families`.
WEIGHT_DISTS = ("pareto", "lognormal")

#: Trace file formats understood by :mod:`repro.scenarios.stream`
#: (``"auto"`` decides by file extension, falling back to content sniffing).
TRACE_FORMATS = ("auto", "csv", "jsonl")


def _freeze(value: Any) -> Any:
    """Recursively convert lists to tuples so specs are hashable-ish data."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, Mapping):
        return {k: _freeze(v) for k, v in value.items()}
    return value


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze` for JSON/TOML-friendly dict output."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _thaw(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: a workload family plus a parameter sweep.

    Attributes
    ----------
    name:
        Scenario identifier (used in result records and the registry).
    generator:
        Name of a generator in :mod:`repro.workloads.generators` (e.g.
        ``"cluster_instances"``) or the special family ``"trace_replay"``
        (tasks read from a CSV/JSONL file in ``params.chunk_size``-instance
        chunks, default 4096, see
        :func:`repro.scenarios.families.cell_chunks`).
    description:
        One-line human-readable description.
    pipeline:
        How a grid cell is evaluated: ``"policies"`` (simulate online
        policies and report objective/ratio statistics through the batched
        engine — the default), ``"bandwidth"`` (the
        master–worker transfer strategies of experiment E8) or
        ``"solver-timing"`` (wall-clock timings of the polynomial solvers,
        experiment E7).
    params:
        Fixed keyword arguments of the generator (e.g. ``{"P": 64.0}``).
    grid:
        Swept axes: ``axis name -> sequence of values``.  Axis names are
        generator parameters; the prefixes ``arrivals.`` and ``weights.``
        route an axis into the arrival / weight specification instead (e.g.
        ``{"arrivals.rate": (0.5, 2.0)}``).  The special axis ``count``
        overrides :attr:`count` per cell.
    count:
        Instances drawn per grid cell.
    policies:
        Policy names (subset of :data:`POLICY_NAMES`) evaluated by the
        ``policies`` pipeline; empty means the full default line-up.
    metrics:
        Metric names shown in the summary table — a subset of what the
        pipeline produces (see :data:`PIPELINE_METRICS`); empty means all
        of them.
    arrivals:
        Optional arrival process, e.g. ``{"process": "bursty-poisson",
        "rate": 1.0, "burst_size": 4, "spread": 0.05}``.  ``None`` means the
        paper's setting (everything released at time zero).
    weights:
        Optional weight redistribution applied to the generated instances,
        e.g. ``{"dist": "pareto", "alpha": 1.2, "scale": 1.0}``.
    seed:
        Base salt mixed into every cell's seed (added to the execution
        context's seed), so two scenarios with the same grid draw different
        instances.
    """

    name: str
    generator: str
    description: str = ""
    pipeline: str = "policies"
    params: Mapping[str, Any] = field(default_factory=dict)
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    count: int = 10
    policies: tuple[str, ...] = ()
    metrics: tuple[str, ...] = ()
    arrivals: Mapping[str, Any] | None = None
    weights: Mapping[str, Any] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze(dict(self.params)))
        object.__setattr__(self, "grid", _freeze(dict(self.grid)))
        object.__setattr__(self, "policies", tuple(self.policies))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        if self.arrivals is not None:
            object.__setattr__(self, "arrivals", _freeze(dict(self.arrivals)))
        if self.weights is not None:
            object.__setattr__(self, "weights", _freeze(dict(self.weights)))
        self.validate()

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check the spec's internal consistency (raises ``ValueError``)."""
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.pipeline not in PIPELINES:
            raise ValueError(
                f"unknown pipeline {self.pipeline!r}; expected one of {PIPELINES}"
            )
        if self.count <= 0:
            raise ValueError(f"count must be positive, got {self.count}")
        for axis, values in self.grid.items():
            if not isinstance(values, tuple) or len(values) == 0:
                raise ValueError(f"grid axis {axis!r} must be a non-empty list of values")
        if self.policies and self.pipeline != "policies":
            raise ValueError(
                f"policies only apply to the 'policies' pipeline, not {self.pipeline!r}"
            )
        unknown = set(self.policies) - set(POLICY_NAMES)
        if unknown:
            raise ValueError(
                f"unknown policies {sorted(unknown)}; expected a subset of {POLICY_NAMES}"
            )
        allowed_metrics = PIPELINE_METRICS[self.pipeline]
        unknown = set(self.metrics) - set(allowed_metrics)
        if unknown:
            raise ValueError(
                f"unknown metrics {sorted(unknown)} for pipeline {self.pipeline!r}; "
                f"expected a subset of {allowed_metrics}"
            )
        if self.arrivals is not None:
            process = self.arrivals.get("process")
            if process not in ARRIVAL_PROCESSES:
                raise ValueError(
                    f"unknown arrival process {process!r}; expected one of {ARRIVAL_PROCESSES}"
                )
        if self.weights is not None:
            dist = self.weights.get("dist")
            if dist not in WEIGHT_DISTS:
                raise ValueError(
                    f"unknown weight distribution {dist!r}; expected one of {WEIGHT_DISTS}"
                )
        # The trace family needs its path immediately to fail fast on typos.
        if self.generator == "trace_replay":
            if "trace" not in self.params:
                raise ValueError(
                    "generator 'trace_replay' requires params.trace (a CSV/JSONL path)"
                )
            chunk_size = self.params.get("chunk_size")
            if chunk_size is not None and (
                not isinstance(chunk_size, int)
                or isinstance(chunk_size, bool)
                or chunk_size <= 0
            ):
                raise ValueError(
                    f"trace_replay params.chunk_size must be a positive integer, "
                    f"got {chunk_size!r}"
                )
            fmt = self.params.get("format")
            if fmt is not None and fmt not in TRACE_FORMATS:
                raise ValueError(
                    f"trace_replay params.format must be one of {TRACE_FORMATS}, got {fmt!r}"
                )
        else:
            from repro.scenarios.families import workload_generator

            workload_generator(self.generator)

    # ------------------------------------------------------------------ #
    # Round trips
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """Lossless plain-dict form (JSON/TOML-friendly, lists not tuples)."""
        payload: dict[str, Any] = {
            "name": self.name,
            "generator": self.generator,
            "description": self.description,
            "pipeline": self.pipeline,
            "params": _thaw(self.params),
            "grid": _thaw(self.grid),
            "count": self.count,
            "policies": list(self.policies),
            "metrics": list(self.metrics),
            "seed": self.seed,
        }
        if self.arrivals is not None:
            payload["arrivals"] = _thaw(self.arrivals)
        if self.weights is not None:
            payload["weights"] = _thaw(self.weights)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (or a parsed TOML table)."""
        known = {
            "name", "generator", "description", "pipeline", "params", "grid",
            "count", "policies", "metrics", "arrivals", "weights", "seed",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown scenario keys {sorted(unknown)}; expected {sorted(known)}")
        data = dict(payload)
        for key in ("policies", "metrics"):
            if key in data:
                data[key] = tuple(data[key])
        return cls(**data)

    @classmethod
    def from_toml(cls, path: str | os.PathLike) -> "ScenarioSpec":
        """Load a spec from a TOML file.

        The file holds one ``[scenario]`` table whose keys mirror the
        dataclass fields, with ``params`` / ``grid`` / ``arrivals`` /
        ``weights`` as sub-tables::

            [scenario]
            name = "poisson-bursts"
            generator = "cluster_instances"
            count = 8
            policies = ["WDEQ", "DEQ"]

            [scenario.params]
            P = 64.0

            [scenario.grid]
            n = [8, 16]
            "arrivals.rate" = [0.5, 2.0]

            [scenario.arrivals]
            process = "bursty-poisson"
            burst_size = 4

        Relative ``params.trace`` paths are resolved against the TOML file's
        directory, so committed specs can ship their traces alongside.
        """
        with open(path, "rb") as handle:
            document = tomllib.load(handle)
        if "scenario" not in document:
            raise ValueError(f"{os.fspath(path)}: missing the [scenario] table")
        spec = cls.from_dict(document["scenario"])
        trace = spec.params.get("trace")
        if trace is not None and not os.path.isabs(trace):
            resolved = os.path.join(os.path.dirname(os.path.abspath(path)), trace)
            params = dict(spec.params)
            params["trace"] = resolved
            spec = replace(spec, params=params)
        return spec

    # ------------------------------------------------------------------ #
    # Derived
    # ------------------------------------------------------------------ #

    def with_overrides(self, **changes: Any) -> "ScenarioSpec":
        """A copy with fields replaced (grid/params merged, not replaced).

        ``grid`` and ``params`` entries are merged into the existing tables;
        every other keyword replaces the field wholesale.  Experiments use
        this to narrow a registry spec to their quick-test parameters.
        """
        if "grid" in changes:
            changes["grid"] = {**dict(self.grid), **dict(changes["grid"])}
        if "params" in changes:
            changes["params"] = {**dict(self.params), **dict(changes["params"])}
        return replace(self, **changes)

    def expand(self, base_seed: int = 0):
        """Expand the grid into cells; see :func:`repro.scenarios.grid.expand_grid`."""
        from repro.scenarios.grid import expand_grid

        return expand_grid(self, base_seed=base_seed)
