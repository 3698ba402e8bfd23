"""Scenario families: arrival processes, weight reshaping, trace replay.

The generators in :mod:`repro.workloads.generators` produce the paper's
*clairvoyant-release* setting — every task available at time zero.  The
families in this module extend a generated workload along the two axes the
scenario engine sweeps:

* **arrival processes** (:func:`draw_release_times`) attach a release time to
  every task: a plain Poisson job stream, or *bursty* Poisson arrivals where
  whole groups of tasks land together — the arrival pattern of gang-submitted
  array jobs that stresses an online policy far more than a smooth stream;
* **weight reshaping** (:func:`redraw_weights`) replaces the generated
  weights with heavy-tailed (Pareto) or log-normal draws, modelling the
  few-very-important-jobs priority distributions seen in production traces;
* **trace replay** (:func:`load_trace`) reads tasks (and optional release
  times) from a CSV or JSONL file, so a recorded workload can be replayed
  through every policy and backend.  The reader is the strictly validating,
  chunked streamer of :mod:`repro.scenarios.stream`; ``load_trace`` is its
  in-memory convenience wrapper.

All functions draw from an explicit :class:`numpy.random.Generator`, so a
scenario cell is reproducible on every backend: the instances and release
times are materialised once (identically) and only *execution* differs
between the serial engine and :func:`repro.batch.sim_kernels.simulate_batch`.

Examples
--------
>>> import numpy as np
>>> rng = np.random.default_rng(0)
>>> releases = draw_release_times(
...     {"process": "bursty-poisson", "rate": 1.0, "burst_size": 3}, 2, 6, rng
... )
>>> releases.shape
(2, 6)
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.core.exceptions import InvalidInstanceError
from repro.core.instance import Instance, Task

__all__ = ["draw_release_times", "redraw_weights", "load_trace", "workload_generator", "build_cell_workload"]

#: Smallest weight/volume kept after redistribution (mirrors
#: :data:`repro.workloads.generators.MIN_VALUE`).
MIN_VALUE = 1e-3


# --------------------------------------------------------------------- #
# Arrival processes
# --------------------------------------------------------------------- #


def draw_release_times(
    arrival: Mapping[str, Any], count: int, n: int, rng: np.random.Generator
) -> np.ndarray | None:
    """Draw a ``(count, n)`` release-time matrix for an arrival spec.

    Supported ``arrival["process"]`` values:

    ``"none"``
        Everything released at time zero (returns ``None``, the paper's
        setting).
    ``"poisson"``
        Tasks arrive as a Poisson process of rate ``rate`` (default 1.0):
        release times are the cumulative sum of exponential inter-arrival
        gaps, independently per instance.
    ``"bursty-poisson"``
        Bursts arrive as a Poisson process of rate ``rate``; each burst
        releases ``burst_size`` consecutive tasks (default 4) jittered
        uniformly over ``spread`` time units (default 0.0).  The limit
        ``burst_size=1, spread=0`` recovers the plain Poisson process.
    """
    process = arrival.get("process", "none")
    if process in (None, "none"):
        return None
    rate = float(arrival.get("rate", 1.0))
    if rate <= 0:
        raise InvalidInstanceError(f"arrival rate must be positive, got {rate}")
    if process == "poisson":
        gaps = rng.exponential(scale=1.0 / rate, size=(count, n))
        return np.cumsum(gaps, axis=1)
    if process == "bursty-poisson":
        burst_size = int(arrival.get("burst_size", 4))
        if burst_size <= 0:
            raise InvalidInstanceError(f"burst_size must be positive, got {burst_size}")
        spread = float(arrival.get("spread", 0.0))
        if spread < 0:
            raise InvalidInstanceError(f"spread must be non-negative, got {spread}")
        num_bursts = -(-n // burst_size)  # ceil
        burst_gaps = rng.exponential(scale=1.0 / rate, size=(count, num_bursts))
        burst_times = np.cumsum(burst_gaps, axis=1)
        # Task i belongs to burst i // burst_size; jitter keeps tasks of one
        # burst distinct so completion order inside a burst is not degenerate.
        membership = np.arange(n) // burst_size
        releases = burst_times[:, membership]
        if spread > 0:
            releases = releases + rng.uniform(0.0, spread, size=(count, n))
        return releases
    if process == "trace":
        raise InvalidInstanceError(
            "arrival process 'trace' is implied by the trace_replay generator; "
            "it cannot be combined with a synthetic generator"
        )
    raise InvalidInstanceError(f"unknown arrival process {process!r}")


# --------------------------------------------------------------------- #
# Weight reshaping
# --------------------------------------------------------------------- #


def redraw_weights(
    instances: list[Instance], weight: Mapping[str, Any], rng: np.random.Generator
) -> list[Instance]:
    """Replace every task weight with a draw from the requested distribution.

    Supported ``weight["dist"]`` values:

    ``"pareto"``
        ``scale * (1 + Pareto(alpha))`` — a genuinely heavy-tailed priority
        distribution (``alpha`` defaults to 1.5; smaller means heavier tail,
        and for ``alpha <= 1`` the mean is infinite).
    ``"lognormal"``
        ``LogNormal(mu, sigma)`` with ``mu`` default 0.0, ``sigma`` default
        1.0.

    Volumes and caps are untouched, so the reshaped family remains a valid
    instance of the model; weights are floored at ``MIN_VALUE``.
    """
    dist = weight.get("dist")
    if dist is None:
        return instances
    reshaped = []
    for inst in instances:
        n = inst.n
        if dist == "pareto":
            alpha = float(weight.get("alpha", 1.5))
            if alpha <= 0:
                raise InvalidInstanceError(f"pareto alpha must be positive, got {alpha}")
            scale = float(weight.get("scale", 1.0))
            draws = scale * (1.0 + rng.pareto(alpha, size=n))
        elif dist == "lognormal":
            mu = float(weight.get("mu", 0.0))
            sigma = float(weight.get("sigma", 1.0))
            draws = rng.lognormal(mean=mu, sigma=sigma, size=n)
        else:
            raise InvalidInstanceError(f"unknown weight distribution {dist!r}")
        draws = np.maximum(draws, MIN_VALUE)
        reshaped.append(
            Instance(
                P=inst.P,
                tasks=[
                    Task(volume=t.volume, weight=float(w), delta=t.delta, name=t.name)
                    for t, w in zip(inst.tasks, draws)
                ],
            )
        )
    return reshaped


# --------------------------------------------------------------------- #
# Trace replay
# --------------------------------------------------------------------- #


def load_trace(
    path: str | os.PathLike,
    P: float,
    max_instances: int | None = None,
    fmt: str = "auto",
) -> tuple[list[Instance], np.ndarray | None]:
    """Read instances (and optional release times) from a CSV or JSONL trace.

    The file needs the columns/keys ``instance``, ``volume``, ``weight`` and
    ``delta``; an optional ``release`` column carries per-task release times.
    Rows sharing an ``instance`` value form one instance (rows must be
    grouped, i.e. consecutive — a reappearing key raises), and every
    instance runs on a platform of size ``P``.

    This is the in-memory convenience wrapper over the streaming reader
    :func:`repro.scenarios.stream.stream_trace`, and shares its strict
    validation: empty/missing ``release`` cells raise (they are never
    zero-filled), non-positive fields raise, and a ``delta`` above ``P`` is
    clamped with a warning naming the first offending row.
    ``max_instances`` stops *reading* after that many instances.

    Returns ``(instances, releases)`` where ``releases`` is a dense
    ``(B, n_max)`` matrix aligned with the padded batch convention (zero on
    padding slots), or ``None`` when the trace has no ``release`` column.
    """
    from repro.scenarios.stream import stream_trace

    chunks = list(
        stream_trace(path, P, chunk_size=None, max_instances=max_instances, fmt=fmt)
    )
    chunk = chunks[0]  # chunk_size=None packs the whole trace into one chunk
    return chunk.batch.to_instances(), chunk.releases


# --------------------------------------------------------------------- #
# Putting a cell's workload together
# --------------------------------------------------------------------- #


def workload_generator(name: str) -> Callable[..., Iterable[Instance]]:
    """The instance family ``name``: a ``*_instances`` name of ``repro.workloads.generators.__all__``."""
    from repro.workloads import generators

    families = tuple(f for f in generators.__all__ if f.endswith("_instances"))
    if name not in families:
        raise InvalidInstanceError(
            f"unknown workload generator {name!r}; expected 'trace_replay' or one of {families}"
        )
    return getattr(generators, name)


def build_cell_workload(
    generator: str,
    gen_kwargs: Mapping[str, Any],
    count: int,
    arrival: Mapping[str, Any],
    weight: Mapping[str, Any],
    seed: int,
) -> tuple[list[Instance], np.ndarray | None]:
    """Materialise one grid cell's instances and release times.

    Resolves ``generator`` (a name in :mod:`repro.workloads.generators`, or
    ``"trace_replay"``), draws ``count`` instances from a
    ``default_rng(seed)`` stream, applies the weight redistribution and the
    arrival process.  The result is identical on every backend — this is the
    single source of truth every backend's sweep shares.
    """
    rng = np.random.default_rng(seed)
    if generator == "trace_replay":
        kwargs = dict(gen_kwargs)
        trace = kwargs.pop("trace")
        P = float(kwargs.pop("P", 1.0))
        # chunk_size routes the cell to the streaming replay path of the
        # runner; when the in-memory path runs anyway (direct calls, tests)
        # it only controls reader batching, which is invisible here.
        kwargs.pop("chunk_size", None)
        fmt = str(kwargs.pop("format", "auto"))
        if kwargs:
            raise InvalidInstanceError(
                "trace_replay accepts only 'trace', 'P', 'chunk_size' and "
                f"'format' parameters, got {sorted(kwargs)}"
            )
        instances, releases = load_trace(trace, P=P, max_instances=count, fmt=fmt)
        process = arrival.get("process") if arrival else None
        if releases is not None:
            if process not in (None, "none", "trace"):
                # Mirror of the draw_release_times 'trace' guard: the trace
                # already fixes every arrival, so a synthetic process in the
                # spec can only mean a misconfigured sweep — failing beats
                # silently ignoring it.
                raise InvalidInstanceError(
                    f"trace {os.fspath(trace)!r} supplies release times; "
                    f"arrival process {process!r} conflicts — drop the "
                    "arrivals table or declare process = 'trace'"
                )
        elif process == "trace":
            raise InvalidInstanceError(
                f"arrival process 'trace' requires a 'release' column in "
                f"trace {os.fspath(trace)!r}"
            )
    else:
        factory = workload_generator(generator)
        kwargs = dict(gen_kwargs)
        n = int(kwargs.pop("n", 8))
        instances = list(factory(n, count, rng=rng, **kwargs))
        releases = None
    if weight:
        instances = redraw_weights(instances, weight, rng)
    if arrival and releases is None:
        n_max = max(inst.n for inst in instances)
        full = draw_release_times(arrival, len(instances), n_max, rng)
        releases = full
    if releases is not None:
        # Align to the padded-batch convention: zero outside each row's tasks.
        n_max = max(inst.n for inst in instances)
        aligned = np.zeros((len(instances), n_max))
        for b, inst in enumerate(instances):
            n = inst.n
            aligned[b, :n] = releases[b, :n]
        releases = aligned
    return instances, releases
