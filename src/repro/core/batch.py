"""Struct-of-arrays batch representation of scheduling instances.

:class:`InstanceBatch` packs ``B`` instances into dense ``(B, n_max)``
arrays, padding the rows of smaller instances with inert tasks (zero volume,
zero weight, ``mask = False``).  It is the exchange format between the
object-level model (:class:`~repro.core.instance.Instance`) and the
vectorized kernels of :mod:`repro.batch`: every kernel takes an
``InstanceBatch`` and replays a scalar algorithm with the per-instance loop
turned into an array operation over the whole batch.

The conversion is lossless: :meth:`InstanceBatch.from_instances` records the
task names alongside the numeric arrays, and
:meth:`InstanceBatch.to_instances` rebuilds the exact original instances
(same ``P``, volumes, weights, caps and names), which the round-trip tests
assert.

Examples
--------
>>> from repro.core.instance import Instance, Task
>>> from repro.core.batch import InstanceBatch
>>> insts = [Instance(P=2.0, tasks=[Task(volume=1.0, weight=1.0, delta=1.0)]),
...          Instance(P=4.0, tasks=[Task(volume=2.0, weight=3.0, delta=2.0),
...                                 Task(volume=1.0, weight=1.0, delta=4.0)])]
>>> batch = InstanceBatch.from_instances(insts)
>>> batch.batch_size, batch.n_max
(2, 2)
>>> batch.mask.tolist()
[[True, False], [True, True]]
>>> batch.to_instances() == insts
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.exceptions import InvalidInstanceError
from repro.core.instance import Instance, Task

__all__ = ["InstanceBatch"]


@dataclass(frozen=True)
class InstanceBatch:
    """A batch of instances packed into padded ``(B, n_max)`` arrays.

    Attributes
    ----------
    P:
        Platform sizes, shape ``(B,)``.
    volumes, weights, deltas:
        Task parameters, shape ``(B, n_max)``; padding slots hold zero
        volume, zero weight and a cap of 1 (the cap value is irrelevant, it
        only needs to be positive so the kernels never divide by zero).
    mask:
        Boolean ``(B, n_max)``; ``True`` marks real tasks.  Real tasks of
        every row occupy a prefix of the row.
    names:
        Per-row tuples of the original task names (``None`` entries for
        unnamed tasks), kept so :meth:`to_instances` is lossless.  Empty when
        the batch was built directly from arrays.
    """

    P: np.ndarray
    volumes: np.ndarray
    weights: np.ndarray
    deltas: np.ndarray
    mask: np.ndarray
    names: tuple = field(default=(), compare=False)

    @property
    def batch_size(self) -> int:
        """Number of instances ``B`` in the batch."""
        return int(self.volumes.shape[0])

    @property
    def n_max(self) -> int:
        """Padded task count (the largest ``n`` in the batch)."""
        return int(self.volumes.shape[1])

    @property
    def counts(self) -> np.ndarray:
        """Number of real tasks per row, shape ``(B,)``."""
        return self.mask.sum(axis=1)

    @classmethod
    def from_instances(cls, instances: Iterable[Instance]) -> "InstanceBatch":
        """Pack an iterable of instances into one padded batch."""
        instances = list(instances)
        if not instances:
            raise InvalidInstanceError("cannot build a batch from zero instances")
        B = len(instances)
        n_max = max(max(inst.n for inst in instances), 1)
        P = np.array([inst.P for inst in instances], dtype=float)
        volumes = np.zeros((B, n_max))
        weights = np.zeros((B, n_max))
        deltas = np.ones((B, n_max))
        mask = np.zeros((B, n_max), dtype=bool)
        names = []
        for b, inst in enumerate(instances):
            n = inst.n
            volumes[b, :n] = inst.volumes
            weights[b, :n] = inst.weights
            deltas[b, :n] = inst.deltas
            mask[b, :n] = True
            names.append(tuple(t.name for t in inst.tasks))
        return cls(
            P=P, volumes=volumes, weights=weights, deltas=deltas, mask=mask,
            names=tuple(names),
        )

    @classmethod
    def from_arrays(
        cls,
        P: Sequence[float] | np.ndarray,
        volumes: np.ndarray,
        weights: np.ndarray,
        deltas: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> "InstanceBatch":
        """Build a batch directly from padded arrays (no ``Instance`` objects).

        ``mask`` defaults to "every slot is a real task".  Used by callers
        that generate workloads natively in array form; padding slots (where
        ``mask`` is ``False``) are normalised to the inert convention (zero
        volume, zero weight, unit cap).
        """
        volumes = np.asarray(volumes, dtype=float)
        weights = np.asarray(weights, dtype=float)
        deltas = np.asarray(deltas, dtype=float)
        if volumes.ndim != 2 or volumes.shape != weights.shape or volumes.shape != deltas.shape:
            raise InvalidInstanceError(
                "volumes, weights and deltas must share one (B, n_max) shape"
            )
        P = np.asarray(P, dtype=float)
        if P.shape != (volumes.shape[0],):
            raise InvalidInstanceError(f"expected {volumes.shape[0]} platform sizes, got {P.shape}")
        if mask is None:
            mask = np.ones(volumes.shape, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != volumes.shape:
                raise InvalidInstanceError("mask shape must match the task arrays")
        return cls(
            P=P,
            volumes=np.where(mask, volumes, 0.0),
            weights=np.where(mask, weights, 0.0),
            deltas=np.where(mask, deltas, 1.0),
            mask=mask,
        )

    def instance(self, b: int) -> Instance:
        """Rebuild the ``b``-th instance (names restored when recorded)."""
        n = int(self.mask[b].sum())
        row_names = self.names[b] if b < len(self.names) else (None,) * n
        tasks = [
            Task(
                volume=float(self.volumes[b, i]),
                weight=float(self.weights[b, i]),
                delta=float(self.deltas[b, i]),
                name=row_names[i] if i < len(row_names) else None,
            )
            for i in range(n)
        ]
        return Instance(P=float(self.P[b]), tasks=tasks)

    def to_instances(self) -> list[Instance]:
        """Unpack the batch back into the original list of instances.

        Together with :meth:`from_instances` this is a lossless round trip:
        ``InstanceBatch.from_instances(insts).to_instances() == insts``.
        """
        return [self.instance(b) for b in range(self.batch_size)]
