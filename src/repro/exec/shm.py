"""Zero-copy shared-memory publication of instance batches.

A pooled :meth:`repro.exec.ExecutionContext.map_batch` never pickles the
rows of its :class:`~repro.core.batch.InstanceBatch` into the workers; it
ships them through this module instead:

* :func:`publish_batch` copies the batch's struct-of-arrays (plus any extra
  per-row arrays, e.g. orderings) into **one**
  :class:`multiprocessing.shared_memory.SharedMemory` segment and returns a
  :class:`SharedBatch` whose :attr:`~SharedBatch.handle` is a tiny picklable
  descriptor (segment name + array layout — a few hundred bytes regardless
  of batch size).
* Workers call :func:`attach_batch` on the handle and get NumPy views
  straight into the shared pages — no copy, no pickle, O(1) per call.
* :func:`apply_shared_chunk` is the worker body: each of the O(workers)
  submissions carries a ``(fn, handle, lo, hi)`` payload instead of the
  data itself.

The publisher owns the segment: :meth:`SharedBatch.close` both closes and
unlinks it (``SharedBatch`` is a context manager).  Workers must treat the
attached arrays as read-only inputs and return fresh arrays — results
travel back through the ordinary pickle channel, which is fine because they
are small (a few floats per row) compared to the inputs.

Examples
--------
>>> import numpy as np
>>> from repro.core.batch import InstanceBatch
>>> from repro.exec.shm import publish_batch, attach_batch
>>> batch = InstanceBatch.from_arrays(P=[2.0], volumes=np.ones((1, 3)),
...                                   weights=np.ones((1, 3)), deltas=np.ones((1, 3)))
>>> with publish_batch(batch, marker=np.arange(1.0)) as shared:
...     attached, extra, keep_alive = attach_batch(shared.handle)
...     bool(np.array_equal(attached.volumes, batch.volumes)), sorted(extra)
...     keep_alive.close()
(True, ['marker'])
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

from repro.core.batch import InstanceBatch

__all__ = [
    "SharedArrayField",
    "SharedBatchHandle",
    "SharedBatch",
    "publish_batch",
    "attach_arrays",
    "attach_batch",
    "slice_batch",
    "apply_shared_chunk",
]

#: Field names an ``InstanceBatch`` contributes to a published segment.
_BATCH_FIELDS = ("P", "volumes", "weights", "deltas", "mask")


@dataclass(frozen=True)
class SharedArrayField:
    """Layout of one array inside a shared segment (all offsets in bytes)."""

    name: str
    offset: int
    shape: tuple
    dtype: str


@dataclass(frozen=True)
class SharedBatchHandle:
    """Picklable descriptor of a published batch: segment name + layout.

    This is what crosses the process boundary — a few hundred bytes no
    matter how large the batch is.  ``extra`` lists the names of the
    caller-supplied arrays published alongside the batch fields.
    """

    segment: str
    fields: tuple
    extra: tuple

    @property
    def batch_size(self) -> int:
        """Number of rows of the published batch."""
        for field in self.fields:
            if field.name == "volumes":
                return int(field.shape[0])
        raise KeyError("handle does not describe an InstanceBatch")


class SharedBatch:
    """A published batch: owns the shared segment for its lifetime.

    Create through :func:`publish_batch`.  The publisher must keep this
    object alive while workers are attached and call :meth:`close` (or use
    it as a context manager) afterwards — closing unlinks the segment.
    """

    def __init__(self, shm: shared_memory.SharedMemory, handle: SharedBatchHandle):
        self._shm = shm
        self.handle = handle
        self._closed = False

    def close(self) -> None:
        """Close and unlink the shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already removed
            pass

    def __enter__(self) -> "SharedBatch":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _aligned(size: int, alignment: int = 64) -> int:
    return -(-size // alignment) * alignment


def _attach_untracked(segment: str) -> shared_memory.SharedMemory:
    """Attach to ``segment`` without registering it with the resource tracker.

    The publisher owns the segment: it registered it at creation and
    unlinks it in :meth:`SharedBatch.close`.  Python < 3.13 also registers
    *attached* segments as if the attaching process had created them, so
    every worker's duplicate registration would collide with the
    publisher's unlink (set-dedup in the tracker turns the extra
    unregistrations into KeyError noise at shutdown).  Python >= 3.13
    exposes ``track=False`` for exactly this; older versions get the
    equivalent by silencing the tracker for the duration of the attach.
    """
    try:
        return shared_memory.SharedMemory(name=segment, track=False)  # type: ignore[call-arg]
    except TypeError:  # pragma: no cover - Python < 3.13
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
        try:
            return shared_memory.SharedMemory(name=segment)
        finally:
            resource_tracker.register = original  # type: ignore[assignment]


def publish_batch(
    batch: InstanceBatch, **extra: "np.ndarray | Any"
) -> SharedBatch:
    """Copy ``batch`` (and any extra per-row arrays) into one shared segment.

    ``extra`` arrays are published verbatim under their keyword names —
    callers use this for per-row data that travels with the batch, e.g. the
    completion orderings of an LP dispatch.  Task names are not published
    (they are Python objects); :func:`attach_batch` therefore rebuilds
    name-less instances, which is what the numeric kernels consume anyway.
    """
    arrays: dict[str, np.ndarray] = {
        name: np.ascontiguousarray(getattr(batch, name)) for name in _BATCH_FIELDS
    }
    for name, value in extra.items():
        if name in arrays:
            raise ValueError(f"extra array name {name!r} collides with a batch field")
        arrays[name] = np.ascontiguousarray(value)
    offset = 0
    fields = []
    for name, array in arrays.items():
        fields.append(
            SharedArrayField(name=name, offset=offset, shape=tuple(array.shape), dtype=str(array.dtype))
        )
        offset = _aligned(offset + array.nbytes)
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for field, array in zip(fields, arrays.values()):
        target = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf, offset=field.offset)
        target[...] = array
    handle = SharedBatchHandle(
        segment=shm.name,
        fields=tuple(f for f in fields if f.name in _BATCH_FIELDS),
        extra=tuple(f for f in fields if f.name not in _BATCH_FIELDS),
    )
    return SharedBatch(shm, handle)


def attach_arrays(
    handle: SharedBatchHandle,
) -> "tuple[dict[str, np.ndarray], shared_memory.SharedMemory]":
    """Attach to a published segment; zero-copy views keyed by field name.

    Returns ``(arrays, segment)`` — the caller must keep ``segment`` alive
    while using the views and ``close()`` it afterwards (never ``unlink()``:
    the publisher owns the segment).
    """
    shm = _attach_untracked(handle.segment)
    arrays = {
        field.name: np.ndarray(field.shape, dtype=np.dtype(field.dtype), buffer=shm.buf, offset=field.offset)
        for field in (*handle.fields, *handle.extra)
    }
    return arrays, shm


def attach_batch(
    handle: SharedBatchHandle,
) -> "tuple[InstanceBatch, dict[str, np.ndarray], shared_memory.SharedMemory]":
    """Rebuild the published :class:`InstanceBatch` from shared pages.

    Returns ``(batch, extra_arrays, segment)``; the batch's arrays are
    zero-copy read-only views into the segment, which must be kept alive
    while they are used (see :func:`attach_arrays`).
    """
    arrays, shm = attach_arrays(handle)
    for array in arrays.values():
        array.setflags(write=False)
    batch = InstanceBatch(
        P=arrays["P"],
        volumes=arrays["volumes"],
        weights=arrays["weights"],
        deltas=arrays["deltas"],
        mask=arrays["mask"],
    )
    extra = {field.name: arrays[field.name] for field in handle.extra}
    return batch, extra, shm


def slice_batch(batch: InstanceBatch, lo: int, hi: int) -> InstanceBatch:
    """A zero-copy row slice ``[lo, hi)`` of a batch (shares the arrays)."""
    return InstanceBatch(
        P=batch.P[lo:hi],
        volumes=batch.volumes[lo:hi],
        weights=batch.weights[lo:hi],
        deltas=batch.deltas[lo:hi],
        mask=batch.mask[lo:hi],
        names=batch.names[lo:hi] if batch.names else (),
    )


def apply_shared_chunk(payload: "tuple[Any, Any, int, int]") -> list:
    """Worker body of :meth:`ExecutionContext.map_batch` (shared-memory path).

    ``payload`` is ``(fn, handle, lo, hi)``: attach to the published
    segment, apply ``fn`` to the row slice (and the sliced extra arrays,
    when any were published), detach, and return the chunk's results as a
    list.  Module-level so it pickles into worker processes; the pickled
    payload is O(1) in the batch size.
    """
    fn, handle, lo, hi = payload
    batch, extra, shm = attach_batch(handle)
    try:
        sub = slice_batch(batch, lo, hi)
        if extra:
            result = fn(sub, {name: array[lo:hi] for name, array in extra.items()})
        else:
            result = fn(sub)
        # Materialise before detaching: results must not alias the shared
        # pages, which become invalid once the segment is closed.
        return [item.copy() if isinstance(item, np.ndarray) else item for item in list(result)]
    finally:
        shm.close()
