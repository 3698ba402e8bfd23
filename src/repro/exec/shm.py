"""Zero-copy shared-memory publication of instance batches.

An off-process :meth:`repro.exec.ExecutionContext.map_batch` on local
worker nodes never encodes the rows of its
:class:`~repro.core.batch.InstanceBatch` onto the wire; it ships them
through this module instead:

* :func:`publish_batch` copies the batch's struct-of-arrays (plus any extra
  per-row arrays, e.g. orderings) into **one**
  :class:`multiprocessing.shared_memory.SharedMemory` segment and returns a
  :class:`SharedBatch` whose :attr:`~SharedBatch.handle` is a tiny
  descriptor (segment name + array layout — a few hundred bytes regardless
  of batch size).  The coordinator of :mod:`repro.exec.cluster` sends that
  layout in its ``PushBatch`` message.
* Nodes call :func:`attach_arrays` on the layout and get read-only NumPy
  views straight into the shared pages — no copy, no pickle — and run
  :func:`apply_rows`, the one chunk body of every transport.

The publisher owns the segment: :meth:`SharedBatch.close` both closes and
unlinks it (``SharedBatch`` is a context manager).  Nodes must treat the
attached arrays as read-only inputs; results travel back through the
ordinary reply channel, which is fine because they are small (a few floats
per row) compared to the inputs.

Examples
--------
>>> import numpy as np
>>> from repro.core.batch import InstanceBatch
>>> from repro.exec.shm import apply_rows, attach_arrays, publish_batch
>>> batch = InstanceBatch.from_arrays(P=[2.0], volumes=np.ones((1, 3)),
...                                   weights=np.ones((1, 3)), deltas=np.ones((1, 3)))
>>> with publish_batch(batch, marker=np.arange(1.0)) as shared:
...     handle = shared.handle
...     arrays, segment = attach_arrays(handle.segment, (*handle.fields, *handle.extra))
...     apply_rows(lambda sub, extra: [float(sub.volumes.sum() + extra["marker"][0])],
...                arrays, 0, 1)
...     arrays.clear(); segment.close()
[3.0]
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.core.batch import InstanceBatch

__all__ = [
    "SharedArrayField",
    "SharedBatchHandle",
    "SharedBatch",
    "batch_arrays",
    "pack_arrays",
    "array_views",
    "publish_batch",
    "attach_arrays",
    "apply_rows",
]

#: Field names an ``InstanceBatch`` contributes to a shipped batch — the
#: same set for a shared segment and for a wire push.
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


def batch_arrays(batch: InstanceBatch, extra: "Mapping[str, Any] | None" = None) -> "dict[str, np.ndarray]":
    """The batch's struct-of-arrays plus the extra per-row arrays, validated.

    C-contiguous and keyed by name: what every transport ships.  An extra
    array must not reuse a batch field name and needs one entry per row.
    """
    arrays: dict[str, np.ndarray] = {
        name: np.ascontiguousarray(getattr(batch, name)) for name in _BATCH_FIELDS
    }
    for name, value in (extra or {}).items():
        if name in arrays:
            raise ValueError(f"extra array name {name!r} collides with a batch field")
        value = np.ascontiguousarray(value)
        if value.shape[:1] != (batch.batch_size,):
            raise ValueError(
                f"extra array {name!r} must have leading dimension {batch.batch_size}, got {value.shape}"
            )
        arrays[name] = value
    return arrays


def _layout(arrays: "Mapping[str, np.ndarray]") -> "tuple[list[SharedArrayField], int]":
    """Aligned byte offsets of named arrays in one buffer, and its size."""
    offset, fields = 0, []
    for name, array in arrays.items():
        fields.append(SharedArrayField(name, offset, tuple(array.shape), str(array.dtype)))
        offset = _aligned(offset + array.nbytes)
    return fields, max(offset, 1)


def _fill(buffer: Any, fields: "list[SharedArrayField]", arrays: "Mapping[str, np.ndarray]") -> None:
    for field, array in zip(fields, arrays.values()):
        np.ndarray(array.shape, dtype=array.dtype, buffer=buffer, offset=field.offset)[...] = array


def pack_arrays(arrays: "Mapping[str, np.ndarray]") -> "tuple[list[SharedArrayField], bytearray]":
    """Named arrays in one private buffer, laid out exactly like a segment."""
    fields, size = _layout(arrays)
    buffer = bytearray(size)
    _fill(buffer, fields, arrays)
    return fields, buffer


def array_views(buffer: Any, fields: "Iterable[SharedArrayField]") -> "dict[str, np.ndarray]":
    """Read-only zero-copy views of the laid-out arrays in ``buffer``, keyed by name."""
    arrays = {}
    for field in fields:
        array = np.ndarray(tuple(field.shape), dtype=np.dtype(field.dtype), buffer=buffer, offset=field.offset)
        array.setflags(write=False)
        arrays[field.name] = array
    return arrays


def publish_batch(
    batch: InstanceBatch, **extra: "np.ndarray | Any"
) -> SharedBatch:
    """Copy ``batch`` (and any extra per-row arrays) into one shared segment.

    ``extra`` arrays are published verbatim under their keyword names —
    callers use this for per-row data that travels with the batch, e.g. the
    completion orderings of an LP dispatch.  Task names are not published
    (they are Python objects); :func:`apply_rows` therefore rebuilds
    name-less instances, which is what the numeric kernels consume anyway.
    """
    arrays = batch_arrays(batch, extra)
    fields, size = _layout(arrays)
    shm = shared_memory.SharedMemory(create=True, size=size)
    _fill(shm.buf, fields, arrays)
    handle = SharedBatchHandle(
        segment=shm.name,
        fields=tuple(f for f in fields if f.name in _BATCH_FIELDS),
        extra=tuple(f for f in fields if f.name not in _BATCH_FIELDS),
    )
    return SharedBatch(shm, handle)


def attach_arrays(
    segment: str, fields: "Iterable[SharedArrayField]"
) -> "tuple[dict[str, np.ndarray], shared_memory.SharedMemory]":
    """Attach to a published segment: :func:`array_views` of its pages.

    Returns ``(arrays, segment)`` — the caller must keep ``segment`` alive
    while using the views, drop them, and ``close()`` it afterwards (never
    ``unlink()``: the publisher owns the segment).
    """
    shm = _attach_untracked(segment)
    return array_views(shm.buf, fields), shm


def apply_rows(fn: "Callable[..., Any]", arrays: "Mapping[str, np.ndarray]", lo: int, hi: int) -> list:
    """The chunk body of every off-process ``map_batch``.

    Applies ``fn`` to rows ``[lo, hi)`` of the batch laid out in ``arrays``
    (:func:`array_views` of a segment or of a pushed buffer) — with the
    matching slices of the extra arrays as a second argument when there
    are any — and returns the results as a list.
    """
    sub = InstanceBatch(**{name: arrays[name][lo:hi] for name in _BATCH_FIELDS})
    extra = {name: array[lo:hi] for name, array in arrays.items() if name not in _BATCH_FIELDS}
    return list(fn(sub, extra) if extra else fn(sub))
