"""Streamed replay: validated `InstanceBatch` chunks from disk, folded online.

A trace is read **row by row** (:func:`iter_trace_rows`), grouped into
instances, and yielded as padded :class:`~repro.core.batch.InstanceBatch`
chunks of a configurable size (:func:`stream_trace`) — peak memory is
``O(chunk_size)``, never ``O(trace)``, so million-row production traces
replay in a bounded footprint, and ``max_instances`` stops *reading* early
instead of truncating after the fact.

Two trace formats share one validation path:

``csv``
    A header row with at least the columns ``instance``, ``volume``,
    ``weight`` and ``delta``, in any order; an optional ``release`` column
    carries per-task release times.  Rows are read in a single pass with
    :func:`csv.reader` and column indices resolved once from the header;
    blank lines are skipped (and not counted as data rows) and a short row
    reads its missing cells as empty.
``jsonl``
    One JSON object per line with the same keys; the first row decides
    whether the trace carries release times.

Validation is strict — the silent-corruption modes of the original loader
are errors here: an empty/missing ``release`` cell raises (instead of
fabricating ``0.0``), a reappearing ``instance`` key raises (instead of
silently splitting the group), non-positive or non-finite fields raise, a
JSON boolean in a numeric field raises (instead of reading as ``1.0``), a
used CSV column that appears twice in the header raises (instead of
silently taking one copy), and a ``delta`` above ``P`` is clamped *loudly*
(one warning per file, naming the first offending data row).  ``P`` itself
must be positive and finite.

:func:`stream_trace` collects each chunk's rows as flat per-column lists
plus the task count of each instance, and fills every padded array of the
chunk with one scatter.

:func:`replay_chunks` is the ``policies`` pipeline of every sweep cell:
it folds a cell's chunks (:func:`repro.scenarios.families.cell_chunks`)
online.  It computes each chunk's Lemma 1 lower bounds once, ships them to
every policy next to the release times, and per-chunk
:func:`repro.batch.sim_kernels.simulate_batch` calls feed
:class:`StreamingMoments` accumulators (Chan's parallel mean/variance
update), so it never holds more than one chunk; a one-chunk cell's metrics
are those of the chunk's values.  :func:`replay_stream` is the same fold
over a trace file.  Chunks can optionally be dispatched through
:meth:`repro.exec.ExecutionContext.map_batch`, riding the local worker
nodes and the shared-memory transport unchanged.

A chunk is padded to its widest instance, but most rows are narrower, so
the rows are dispatched **width-sorted**: ordered by task count, with light
and heavy slices paired per worker, and every simulated slice trimmed to
its own widest row, so it runs at its own width and for its own event
count.  The triples are put back in trace order before folding.  The
engine's row sums do not depend on the padding width, so in-process and
pooled replays agree bit for bit.

Examples
--------
>>> from repro.scenarios.stream import stream_trace
>>> chunks = list(stream_trace(
...     "scenarios/traces/sample_trace.csv", P=8.0, chunk_size=3
... ))  # doctest: +SKIP
>>> [c.batch.batch_size for c in chunks]  # doctest: +SKIP
[3, 3, 2]
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.core.batch import InstanceBatch
from repro.core.exceptions import InvalidInstanceError
from repro.exec.context import CHUNKS_PER_WORKER
from repro.scenarios.spec import TRACE_FORMATS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec import ExecutionContext

__all__ = [
    "TraceChunk",
    "StreamingMoments",
    "iter_trace_rows",
    "stream_trace",
    "replay_chunks",
    "replay_stream",
]

#: Columns every trace row must carry (``release`` is optional per file).
REQUIRED_COLUMNS = ("instance", "volume", "weight", "delta")

#: Default number of instances per streamed chunk.
DEFAULT_CHUNK_SIZE = 4096


def _row_error(path: str, row_number: int, message: str) -> InvalidInstanceError:
    return InvalidInstanceError(f"trace {path!r}, data row {row_number}: {message}")


def _parse_field(path: str, row_number: int, name: str, value: Any) -> float:
    # JSON booleans are ints to ``float()``; a trace cell is never a bool.
    if isinstance(value, bool):
        raise _row_error(path, row_number, f"column {name!r} is not a number: {value!r}")
    try:
        parsed = float(value)
    except (TypeError, ValueError):
        raise _row_error(path, row_number, f"column {name!r} is not a number: {value!r}") from None
    if not math.isfinite(parsed):
        raise _row_error(path, row_number, f"column {name!r} must be finite, got {parsed}")
    return parsed


def _check_ranges(path: str, row_number: int, volume: float, weight: float, delta: float) -> None:
    if volume <= 0:
        raise _row_error(path, row_number, f"volume must be positive, got {volume}")
    if weight < 0:
        raise _row_error(path, row_number, f"weight must be non-negative, got {weight}")
    if delta <= 0:
        raise _row_error(path, row_number, f"delta must be positive, got {delta}")


def _detect_format(path: str, fmt: str) -> str:
    if fmt not in TRACE_FORMATS:
        raise InvalidInstanceError(
            f"unknown trace format {fmt!r}; expected one of {TRACE_FORMATS}"
        )
    if fmt != "auto":
        return fmt
    suffix = os.path.splitext(path)[1].lower()
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    if suffix == ".csv":
        return "csv"
    # Unknown extension: sniff — a JSONL trace starts with an object.
    with open(path, encoding="utf-8") as handle:
        head = handle.read(64).lstrip()
    return "jsonl" if head.startswith("{") else "csv"


def iter_trace_rows(
    path: str | os.PathLike, fmt: str = "auto"
) -> Iterator[tuple[int, str, float, float, float, float | None]]:
    """Yield validated trace rows one at a time, never loading the file.

    Yields ``(row_number, instance_key, volume, weight, delta, release)``
    with 1-based data-row numbers (the CSV header is row 0); ``release`` is
    ``None`` exactly when the trace has no release column.  ``fmt`` is
    ``"csv"``, ``"jsonl"`` or ``"auto"`` (decided by the file extension,
    falling back to content sniffing).

    Raises :class:`~repro.core.exceptions.InvalidInstanceError` for missing
    required columns or a used CSV column repeated in the header, and,
    naming the offending data row, for: non-numeric (JSON booleans
    included) or non-finite fields, ``volume <= 0``, ``weight < 0``,
    ``delta <= 0``, and a ``release`` cell that is empty or missing in a
    trace that carries release times (the old loader silently zero-filled
    those — fabricated arrival times corrupt every downstream metric).
    Blank lines are skipped and do not count as data rows.
    """
    path = os.fspath(path)
    resolved = _detect_format(path, fmt)
    yield from _iter_csv_rows(path) if resolved == "csv" else _iter_jsonl_rows(path)


def _parse_release(path: str, row_number: int, cell: Any) -> float:
    if cell is None or cell == "":
        raise _row_error(
            path, row_number,
            "empty 'release' cell in a trace with release times "
            "(a fabricated 0.0 arrival would corrupt the replay)",
        )
    return _parse_field(path, row_number, "release", cell)


def _iter_csv_rows(path: str) -> Iterator[tuple[int, str, float, float, float, float | None]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or not set(REQUIRED_COLUMNS).issubset(header):
            raise InvalidInstanceError(
                f"trace {path!r} must have columns {sorted(REQUIRED_COLUMNS)}; got {header}"
            )
        has_release = "release" in header
        used = (*REQUIRED_COLUMNS, "release") if has_release else REQUIRED_COLUMNS
        for name in used:
            if header.count(name) > 1:
                raise InvalidInstanceError(
                    f"trace {path!r}: column {name!r} appears more than once in the header"
                )
        i_key, i_vol, i_wgt, i_dlt = (header.index(name) for name in REQUIRED_COLUMNS)
        i_rel = header.index("release") if has_release else -1
        width = max(i_key, i_vol, i_wgt, i_dlt, i_rel) + 1
        isfinite = math.isfinite
        row_number = 0
        row: list[Any]  # cells are str, or None past the end of a short row
        for row in reader:
            if not row:
                continue  # a blank line is skipped and not counted
            row_number += 1
            if len(row) < width:
                row += [None] * (width - len(row))
            key = row[i_key]
            if not key:
                raise _row_error(path, row_number, "column 'instance' is empty")
            # Fast path: parse every cell at once; on any failure re-parse
            # cell by cell, in column order, for the error naming the cell.
            try:
                volume = float(row[i_vol])
                weight = float(row[i_wgt])
                delta = float(row[i_dlt])
                release = float(row[i_rel]) if has_release else None
                ok = isfinite(volume) and isfinite(weight) and isfinite(delta) and (
                    release is None or isfinite(release)
                )
            except (TypeError, ValueError):
                ok = False
            if not ok:
                volume = _parse_field(path, row_number, "volume", row[i_vol])
                weight = _parse_field(path, row_number, "weight", row[i_wgt])
                delta = _parse_field(path, row_number, "delta", row[i_dlt])
                release = _parse_release(path, row_number, row[i_rel]) if has_release else None
            if volume <= 0 or weight < 0 or delta <= 0:
                _check_ranges(path, row_number, volume, weight, delta)
            yield row_number, key, volume, weight, delta, release


def _iter_jsonl_rows(path: str) -> Iterator[tuple[int, str, float, float, float, float | None]]:
    has_release: bool | None = None
    with open(path, encoding="utf-8") as handle:
        row_number = 0
        for line in handle:
            line = line.strip()
            if not line:
                continue
            row_number += 1
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise _row_error(path, row_number, f"invalid JSON: {exc}") from None
            if not isinstance(row, dict):
                raise _row_error(path, row_number, f"expected a JSON object, got {type(row).__name__}")
            missing = [name for name in REQUIRED_COLUMNS if name not in row]
            if missing:
                raise _row_error(path, row_number, f"missing keys {missing}")
            key = str(row["instance"])
            if not key:
                raise _row_error(path, row_number, "key 'instance' is empty")
            volume = _parse_field(path, row_number, "volume", row["volume"])
            weight = _parse_field(path, row_number, "weight", row["weight"])
            delta = _parse_field(path, row_number, "delta", row["delta"])
            if has_release is None:
                has_release = "release" in row
            release: float | None = None
            if has_release:
                if "release" not in row or row["release"] is None:
                    raise _row_error(
                        path, row_number,
                        "missing 'release' key in a trace with release times "
                        "(a fabricated 0.0 arrival would corrupt the replay)",
                    )
                release = _parse_field(path, row_number, "release", row["release"])
            elif "release" in row:
                raise _row_error(
                    path, row_number,
                    "unexpected 'release' key (the first row declared a trace "
                    "without release times)",
                )
            _check_ranges(path, row_number, volume, weight, delta)
            yield row_number, key, volume, weight, delta, release


@dataclass(frozen=True)
class TraceChunk:
    """One streamed slice of a trace: a padded batch plus its release times.

    Attributes
    ----------
    batch:
        ``chunk_size`` (or fewer, for the final chunk) instances packed as a
        :class:`~repro.core.batch.InstanceBatch`; the padding width is the
        chunk-local maximum task count, not the whole trace's.
    releases:
        Dense ``(B, n_max)`` release-time matrix aligned with the batch
        (zero on padding slots), or ``None`` when the trace has no release
        column.
    start:
        Index of the chunk's first instance within the trace (0-based).
    """

    batch: InstanceBatch
    releases: np.ndarray | None
    start: int


def _build_chunk(
    volumes: list[float],
    weights: list[float],
    deltas: list[float],
    releases: list[float],
    sizes: list[int],
    P: float,
    start: int,
) -> TraceChunk:
    """Pack flat per-column lists of consecutive groups into one chunk.

    ``releases`` is empty for a trace without release times.  Row ``k`` of
    the flat lists lands at ``(rows[k], cols[k])``: its group's index, and
    its offset within that group.  Each array is filled by one scatter
    instead of a per-instance slice loop.
    """
    counts = np.asarray(sizes)
    B = counts.size
    n_max = int(counts.max())
    starts = np.cumsum(counts) - counts
    rows = np.repeat(np.arange(B), counts)
    cols = np.arange(len(volumes)) - np.repeat(starts, counts)

    def scatter(values: list[float], fill: float) -> np.ndarray:
        out = np.full((B, n_max), fill)
        out[rows, cols] = values
        return out

    batch = InstanceBatch.from_arrays(
        P=np.full(B, float(P)),
        volumes=scatter(volumes, 0.0),
        weights=scatter(weights, 0.0),
        deltas=scatter(deltas, 1.0),
        mask=np.arange(n_max) < counts[:, None],
    )
    return TraceChunk(
        batch=batch,
        releases=scatter(releases, 0.0) if releases else None,
        start=start,
    )


def stream_trace(
    path: str | os.PathLike,
    P: float,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    max_instances: int | None = None,
    fmt: str = "auto",
) -> Iterator[TraceChunk]:
    """Stream a trace as validated :class:`TraceChunk` slices.

    Rows sharing an ``instance`` key form one instance and must be
    consecutive; a key that *reappears* after its group closed raises
    (naming the row) instead of silently splitting the instance in two.
    A ``delta`` above ``P`` is clamped to ``P`` with a single warning per
    file naming the first offending data row.  ``max_instances`` stops
    **reading** after that many complete groups — the remainder of the file
    is never parsed.

    Raises :class:`~repro.core.exceptions.InvalidInstanceError` for a
    non-positive or non-finite ``P``, a missing or non-positive
    ``chunk_size`` and a non-positive ``max_instances``.

    Peak memory is ``O(chunk_size x n_max_of_chunk)`` plus the set of seen
    instance keys; the full trace is never materialised.
    """
    path = os.fspath(path)
    if chunk_size is None or chunk_size <= 0:
        raise InvalidInstanceError(f"chunk_size must be positive, got {chunk_size}")
    if max_instances is not None and max_instances <= 0:
        raise InvalidInstanceError(f"max_instances must be positive, got {max_instances}")
    if not (P > 0) or not math.isfinite(P):
        raise InvalidInstanceError(f"platform size P must be positive and finite, got {P!r}")
    seen: set[str] = set()
    # The pending groups, column by column: flat per-row lists plus the size
    # of each completed group.  The open group's rows sit after
    # ``group_start``.
    volumes: list[float] = []
    weights: list[float] = []
    deltas: list[float] = []
    releases: list[float] = []
    sizes: list[int] = []
    group_start = 0
    current_key: str | None = None
    clamp_warned = False
    emitted = 0
    cut = False
    for row_number, key, volume, weight, delta, release in iter_trace_rows(path, fmt=fmt):
        if delta > P:
            if not clamp_warned:
                warnings.warn(
                    f"trace {path!r}: delta={delta} exceeds P={P} first at data "
                    f"row {row_number}; clamping to P",
                    UserWarning,
                    stacklevel=2,
                )
                clamp_warned = True
            delta = P
        if key != current_key:
            if key in seen:
                raise _row_error(
                    path, row_number,
                    f"instance key {key!r} reappears after its group ended "
                    "(rows of one instance must be consecutive)",
                )
            seen.add(key)
            if current_key is not None:
                sizes.append(len(volumes) - group_start)
                group_start = len(volumes)
                if max_instances is not None and emitted + len(sizes) >= max_instances:
                    cut = True
                    break
                if len(sizes) == chunk_size:
                    # Drop the parsed lists before the yield, and the chunk
                    # after it: a pool forked while the consumer holds the
                    # chunk would inherit the lists, and the next chunk's
                    # parse would keep this chunk alive.
                    chunk = _build_chunk(volumes, weights, deltas, releases, sizes, P, emitted)
                    emitted += len(sizes)
                    volumes, weights, deltas, releases, sizes = [], [], [], [], []
                    group_start = 0
                    yield chunk
                    del chunk
            current_key = key
        volumes.append(volume)
        weights.append(weight)
        deltas.append(delta)
        if release is not None:
            releases.append(release)
    if not cut and len(volumes) > group_start:
        sizes.append(len(volumes) - group_start)
    if sizes:
        chunk = _build_chunk(volumes, weights, deltas, releases, sizes, P, emitted)
        emitted += len(sizes)
        del volumes, weights, deltas, releases, sizes
        yield chunk
    if emitted == 0:
        raise InvalidInstanceError(f"trace {path!r} contains no tasks")


# --------------------------------------------------------------------- #
# Online accumulators
# --------------------------------------------------------------------- #


@dataclass
class StreamingMoments:
    """Online mean / variance / extrema over a stream of value batches.

    Welford's single-value update generalised to whole NumPy batches via
    Chan's parallel formula: each :meth:`update` folds a batch's count,
    mean and sum-of-squared-deviations into the running state, and
    :meth:`merge` combines two independent accumulators — so chunked,
    sharded and single-pass computations of the same values agree up to
    floating-point reassociation (property-tested in
    ``tests/test_stream.py``).
    """

    count: int = 0
    mean: float = 0.0
    m2: float = field(default=0.0, repr=False)
    max: float = float("-inf")
    min: float = float("inf")

    def update(self, values: np.ndarray) -> None:
        """Fold a batch of values into the running moments."""
        values = np.asarray(values, dtype=float).ravel()
        n = int(values.size)
        if n == 0:
            return
        batch_mean = float(values.mean())
        batch_m2 = float(((values - batch_mean) ** 2).sum())
        if self.count == 0:
            # Taken as they are, so a one-chunk fold is the plain mean by
            # construction rather than through ``0 + mean * n / n``.
            self.mean, self.m2 = batch_mean, batch_m2
        else:
            total = self.count + n
            delta = batch_mean - self.mean
            self.m2 += batch_m2 + delta * delta * self.count * n / total
            self.mean += delta * n / total
        self.count += n
        self.max = max(self.max, float(values.max()))
        self.min = min(self.min, float(values.min()))

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Combine with an independently accumulated ``other`` (pure)."""
        if other.count == 0:
            return StreamingMoments(self.count, self.mean, self.m2, self.max, self.min)
        if self.count == 0:
            return StreamingMoments(other.count, other.mean, other.m2, other.max, other.min)
        total = self.count + other.count
        delta = other.mean - self.mean
        return StreamingMoments(
            count=total,
            mean=self.mean + delta * other.count / total,
            m2=self.m2 + other.m2 + delta * delta * self.count * other.count / total,
            max=max(self.max, other.max),
            min=min(self.min, other.min),
        )

    @property
    def variance(self) -> float:
        """Population variance of the values seen so far (0 for < 2 values)."""
        return self.m2 / self.count if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation of the values seen so far."""
        return math.sqrt(self.variance)


# --------------------------------------------------------------------- #
# Streamed policy replay
# --------------------------------------------------------------------- #


def _simulate_rows(
    policy_name: str,
    batch: InstanceBatch,
    extra: Mapping[str, np.ndarray],
) -> list[tuple[float, float, float]]:
    """Per-row ``(ratio, objective, makespan)`` triples for one policy.

    ``extra`` carries the per-row Lemma 1 lower bounds under ``"bounds"``
    (shape ``(B,)``, computed once per chunk by :func:`replay_stream` and
    shared by every policy) and, for a trace with release times, the
    ``(B, n_max)`` release matrix under ``"releases"``.

    The rows are first trimmed to the widest row they hold (real tasks are
    a prefix of every row), so a slice of narrow rows is simulated at its
    own width and for its own event count rather than the chunk's.  Every
    row sum of the engine is padding-invariant, so trimming changes no
    value.

    Module-level and row-independent, so
    :meth:`repro.exec.ExecutionContext.map_batch` can pickle a
    ``functools.partial`` of it into worker nodes and slice the chunk (and
    its extra arrays) over the shared-memory transport.
    """
    from repro.batch.sim_kernels import default_batch_policies, simulate_batch

    releases = extra.get("releases")
    width = max(int(batch.counts.max()), 1)
    if width < batch.n_max:
        # Contiguous copies: the kernels run faster on them than on views.
        volumes, weights, deltas, mask = (
            np.ascontiguousarray(array[:, :width])
            for array in (batch.volumes, batch.weights, batch.deltas, batch.mask)
        )
        batch = InstanceBatch(P=batch.P, volumes=volumes, weights=weights, deltas=deltas, mask=mask)
        if releases is not None:
            releases = np.ascontiguousarray(releases[:, :width])
    policy = next(
        (p for p in default_batch_policies(batch) if p.name == policy_name), None
    )
    if policy is None:
        raise InvalidInstanceError(f"unknown policy {policy_name!r}")
    bounds = extra["bounds"]
    safe = np.where(bounds > 0, bounds, 1.0)
    result = simulate_batch(batch, policy, release_times=releases)
    objectives = result.weighted_completion_times()
    ratios = np.where(bounds > 0, objectives / safe, 1.0)
    makespans = result.makespans()
    return list(zip(ratios.tolist(), objectives.tolist(), makespans.tolist()))


def _dispatch_order(counts: np.ndarray) -> np.ndarray:
    """Row order that sends a chunk to :func:`_simulate_rows` width-sorted.

    Rows sorted by task count (stable) and cut into
    :data:`~repro.exec.context.CHUNKS_PER_WORKER` equal rounds, every other
    round reversed (ascending, descending, ...).  Off process,
    :func:`~repro.exec.context.chunk_ranges` cuts the rows into
    ``CHUNKS_PER_WORKER x workers`` contiguous slices, ``workers`` per
    round, and :func:`~repro.exec.cluster.assign_cells` deals slice ``i``
    to worker ``i % workers``, so worker ``k`` gets the ``k``-th slice of
    every round: the ``k``-th narrowest of one round and the ``k``-th widest
    of the next, instead of all the wide rows landing on one worker.  That
    is the initial deal; work stealing may still move a slice.
    """
    order = np.argsort(counts, kind="stable")
    cuts = np.linspace(0, order.size, CHUNKS_PER_WORKER + 1).astype(int)[1:-1]
    rounds = np.split(order, cuts)
    return np.concatenate([r[::-1] if i % 2 else r for i, r in enumerate(rounds)])


def _policy_rows(
    batch: InstanceBatch,
    releases: np.ndarray | None,
    names: list[str],
    ctx: "ExecutionContext | None",
) -> Iterator[tuple[str, np.ndarray]]:
    """Yield ``(name, values)`` per policy: its ``(B, 3)`` per-row
    ``(ratio, objective, makespan)`` of one chunk, in the chunk's row order.

    The rows are dispatched width-sorted (:func:`_dispatch_order`), one
    :func:`_simulate_rows` map per policy, and each policy's triples are put
    back in row order before they are yielded.  The sorted copies of the
    chunk live only while the generator runs.
    """
    # Looked up per call, not imported at module level, so a patched
    # ``repro.batch.kernels.combined_lower_bound_batch`` takes effect.
    from repro.batch.kernels import combined_lower_bound_batch

    order = _dispatch_order(batch.counts)
    batch = InstanceBatch(
        P=batch.P[order],
        volumes=batch.volumes[order],
        weights=batch.weights[order],
        deltas=batch.deltas[order],
        mask=batch.mask[order],
    )
    # The bound depends on the instance alone (the redrawn weights
    # included): one per chunk, shared by every policy.
    extra = {"bounds": combined_lower_bound_batch(batch)}
    if releases is not None:
        extra["releases"] = releases[order]
    for name in names:
        worker = functools.partial(_simulate_rows, name)
        if ctx is not None:
            triples = ctx.map_batch(worker, batch, extra=extra)
        else:
            triples = worker(batch, extra)
        values = np.empty((batch.batch_size, 3))
        values[order] = np.asarray(triples, dtype=float).reshape(batch.batch_size, 3)
        yield name, values


def replay_chunks(
    chunks: Iterable[TraceChunk],
    policies: tuple[str, ...] = (),
    ctx: "ExecutionContext | None" = None,
    on_chunk: Callable[[TraceChunk, dict[str, dict[str, float]]], None] | None = None,
) -> tuple[dict[str, dict[str, float]], int]:
    """Simulate every chunk with the online policies and fold the values.

    Each chunk is simulated with every requested policy (``policies`` empty
    means the full default line-up) and its per-row ratios / objectives /
    makespans are folded into :class:`StreamingMoments`.  Returns
    ``(per_policy_metrics, total)``: ``mean_ratio``, ``max_ratio``,
    ``mean_objective`` and ``mean_makespan`` per policy, over ``total``
    instances.

    The Lemma 1 lower bound that scores every policy is computed once per
    chunk, in the calling process, and shipped to each policy's run as the
    per-row ``bounds`` extra array.  ``ctx`` dispatches each chunk's rows
    through :meth:`~repro.exec.ExecutionContext.map_batch` — the
    process-pool and shared-memory transports apply per chunk, unchanged.
    The rows go out width-sorted and each slice is simulated trimmed to
    its widest row (see :func:`_dispatch_order` and
    :func:`_simulate_rows`); the results are folded in row order, so
    the metrics are the same bits with or without ``ctx``.  ``on_chunk`` is
    called after each chunk with the chunk and its *chunk-local* metrics
    (what :func:`repro.scenarios.store.merge_records` aggregates back into
    the exact stream totals).
    """
    from repro.batch.sim_kernels import default_batch_policies

    accumulators: dict[str, dict[str, StreamingMoments]] = {}
    total = 0
    for chunk in chunks:
        batch = chunk.batch
        names = [
            p.name
            for p in default_batch_policies(batch)
            if not policies or p.name in policies
        ]
        chunk_metrics: dict[str, dict[str, float]] = {}
        for name, values in _policy_rows(batch, chunk.releases, names, ctx):
            if name not in accumulators:
                accumulators[name] = {
                    "ratio": StreamingMoments(),
                    "objective": StreamingMoments(),
                    "makespan": StreamingMoments(),
                }
            accumulators[name]["ratio"].update(values[:, 0])
            accumulators[name]["objective"].update(values[:, 1])
            accumulators[name]["makespan"].update(values[:, 2])
            chunk_metrics[name] = {
                "mean_ratio": float(values[:, 0].mean()),
                "max_ratio": float(values[:, 0].max()),
                "mean_objective": float(values[:, 1].mean()),
                "mean_makespan": float(values[:, 2].mean()),
            }
        total += batch.batch_size
        if on_chunk is not None:
            on_chunk(chunk, chunk_metrics)
    per_policy = {
        name: {
            "mean_ratio": acc["ratio"].mean,
            "max_ratio": acc["ratio"].max,
            "mean_objective": acc["objective"].mean,
            "mean_makespan": acc["makespan"].mean,
        }
        for name, acc in accumulators.items()
    }
    return per_policy, total


def replay_stream(
    trace: str | os.PathLike,
    P: float,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    policies: tuple[str, ...] = (),
    max_instances: int | None = None,
    fmt: str = "auto",
    weight: Mapping[str, Any] | None = None,
    arrival: Mapping[str, Any] | None = None,
    seed: int = 0,
    ctx: "ExecutionContext | None" = None,
    on_chunk: Callable[[TraceChunk, dict[str, dict[str, float]]], None] | None = None,
) -> tuple[dict[str, dict[str, float]], int]:
    """Replay a trace through the online policies without loading it whole.

    :func:`replay_chunks` over the ``trace_replay`` chunks of
    :func:`repro.scenarios.families.cell_chunks`: the trace streams in
    ``chunk_size``-instance slices (at most ``max_instances`` instances),
    with the ``weight`` redistribution and the ``arrival`` process of a
    sweep cell drawn from one ``default_rng(seed)`` stream.  Synthetic
    arrivals need the trace to fit in one chunk.  Returns
    ``(per_policy_metrics, total)``, the values a ``trace_replay`` sweep
    cell with the same parameters records; ``ctx`` and ``on_chunk`` are
    those of :func:`replay_chunks`.
    """
    from repro.scenarios.families import cell_chunks

    params = {"trace": trace, "P": P, "chunk_size": chunk_size, "format": fmt}
    chunks = cell_chunks("trace_replay", params, max_instances, arrival or {}, weight or {}, seed)
    return replay_chunks(chunks, policies, ctx, on_chunk)
