"""Scenario families: arrival processes, weight reshaping, a cell's chunks.

The generators in :mod:`repro.workloads.generators` produce the paper's
*clairvoyant-release* setting — every task available at time zero.  The
families in this module extend a generated workload along the two axes the
scenario engine sweeps:

* **arrival processes** (:func:`draw_release_times`) attach a release time to
  every task: a plain Poisson job stream, or *bursty* Poisson arrivals where
  whole groups of tasks land together — the arrival pattern of gang-submitted
  array jobs that stresses an online policy far more than a smooth stream;
* **weight reshaping** (:func:`draw_weights`) replaces the generated
  weights with heavy-tailed (Pareto) or log-normal draws, modelling the
  few-very-important-jobs priority distributions seen in production traces.

:func:`cell_chunks` puts a grid cell's workload together: the instances of
a generator, or of a recorded CSV/JSONL trace read by the strictly
validating, chunked streamer of :mod:`repro.scenarios.stream`, with the
cell's weights and arrivals applied chunk by chunk.  Every ``policies``
cell, and :func:`repro.scenarios.stream.replay_stream`, folds these chunks.

All functions draw from an explicit :class:`numpy.random.Generator`, so a
scenario cell is reproducible on every backend: the chunks are the same
wherever they are simulated.

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

import itertools
import os
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.core.batch import InstanceBatch
from repro.core.exceptions import InvalidInstanceError
from repro.core.instance import Instance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.stream import TraceChunk

__all__ = ["draw_release_times", "draw_weights", "workload_generator", "cell_chunks"]

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


def draw_weights(weight: Mapping[str, Any], n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` task weights from the distribution ``weight`` names.

    Supported ``weight["dist"]`` values:

    ``"pareto"``
        ``scale * (1 + Pareto(alpha))`` — a genuinely heavy-tailed priority
        distribution (``alpha`` defaults to 1.5; smaller means heavier tail,
        and for ``alpha <= 1`` the mean is infinite).
    ``"lognormal"``
        ``LogNormal(mu, sigma)`` with ``mu`` default 0.0, ``sigma`` default
        1.0.

    The draws are floored at ``MIN_VALUE``.  The scenario sweeps redraw
    every instance's weights with it, one call per instance in row order,
    and the service load generator draws each client's weights with it.
    """
    dist = weight.get("dist")
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
    return np.maximum(draws, MIN_VALUE)


def _redraw_weights(
    batch: InstanceBatch, weight: Mapping[str, Any], rng: np.random.Generator
) -> InstanceBatch:
    """``batch`` with every row's weights replaced by :func:`draw_weights`.

    Volumes and caps are untouched, so the reshaped family remains a valid
    instance of the model.
    """
    weights = np.zeros_like(batch.weights)
    for b, n in enumerate(batch.counts.tolist()):
        weights[b, :n] = draw_weights(weight, n, rng)
    return replace(batch, weights=weights)


# --------------------------------------------------------------------- #
# A cell's workload, chunk by chunk
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


def cell_chunks(
    generator: str,
    gen_kwargs: Mapping[str, Any],
    count: int | None,
    arrival: Mapping[str, Any],
    weight: Mapping[str, Any],
    seed: int,
) -> Iterator[TraceChunk]:
    """Yield one grid cell's workload as :class:`~repro.scenarios.stream.TraceChunk` s.

    ``generator`` is a ``*_instances`` family of
    :mod:`repro.workloads.generators`, whose ``count`` instances come as one
    chunk, or ``"trace_replay"``, whose first ``count`` instances (all of
    them for ``None``) come as the ``stream_trace`` chunks of
    ``params.chunk_size`` instances (default
    :data:`~repro.scenarios.stream.DEFAULT_CHUNK_SIZE`).  One
    ``default_rng(seed)`` draws, in order, the synthetic instances, then per
    chunk the ``weight`` redistribution (:func:`draw_weights`, row by row)
    and the ``arrival`` release times (zero on padding slots).

    Synthetic arrivals are drawn over the whole chunk, so a trace cell with
    one reads a chunk ahead and raises, before yielding any chunk, when the
    trace needs a second: the draws would depend on where the chunks are
    cut.  A trace with a ``release`` column fixes every arrival,
    and only the ``"trace"`` process (or none) may go with it.  The chunks
    are the same on every backend: this is the one source of every
    ``policies`` cell.
    """
    # Looked up per call, so a patched ``stream.stream_trace`` takes effect.
    from repro.scenarios import stream

    rng = np.random.default_rng(seed)
    process = arrival.get("process") if arrival else None
    synthetic = process not in (None, "none", "trace")
    kwargs = dict(gen_kwargs)
    chunks: Iterator[TraceChunk]
    if generator == "trace_replay":
        trace = os.fspath(kwargs.pop("trace"))
        P = float(kwargs.pop("P", 1.0))
        chunk_size = int(kwargs.pop("chunk_size", None) or stream.DEFAULT_CHUNK_SIZE)
        fmt = str(kwargs.pop("format", "auto"))
        if kwargs:
            raise InvalidInstanceError(
                "trace_replay accepts only 'trace', 'P', 'chunk_size' and "
                f"'format' parameters, got {sorted(kwargs)}"
            )
        chunks = stream.stream_trace(trace, P, chunk_size=chunk_size, max_instances=count, fmt=fmt)
        if synthetic:
            # Read one chunk ahead, so a trace that needs a second chunk
            # raises before any chunk is simulated.  A first chunk with
            # releases raises its own conflict in the loop below.
            head = list(itertools.islice(chunks, 2))
            if len(head) > 1 and head[0].releases is None:
                raise InvalidInstanceError(
                    f"synthetic arrivals (process {process!r}) are drawn over the "
                    f"whole workload, but trace {trace!r} does not fit in one "
                    "chunk: raise params.chunk_size to at least the instance count, "
                    "or replay a trace with a 'release' column"
                )
            chunks = itertools.chain(head, chunks)
    else:
        factory = workload_generator(generator)
        n = int(kwargs.pop("n", 8))
        batch = InstanceBatch.from_instances(factory(n, count, rng=rng, **kwargs))
        chunks = iter([stream.TraceChunk(batch=batch, releases=None, start=0)])
    for chunk in chunks:
        releases = chunk.releases
        if releases is not None and synthetic:
            # The trace already fixes every arrival, so a synthetic process
            # in the spec can only mean a misconfigured sweep — failing
            # beats silently ignoring it.
            raise InvalidInstanceError(
                f"trace {trace!r} supplies release times; arrival process "
                f"{process!r} conflicts — drop the arrivals table or declare "
                "process = 'trace'"
            )
        if releases is None and process == "trace" and generator == "trace_replay":
            raise InvalidInstanceError(
                f"arrival process 'trace' requires a 'release' column in trace {trace!r}"
            )
        batch = chunk.batch
        if weight.get("dist") is not None:
            batch = _redraw_weights(batch, weight, rng)
        if releases is None and process not in (None, "none"):
            drawn = draw_release_times(arrival, batch.batch_size, batch.n_max, rng)
            releases = np.where(batch.mask, drawn, 0.0)
        yield replace(chunk, batch=batch, releases=releases)
