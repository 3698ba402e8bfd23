"""Online (non-clairvoyant) allocation policies.

A policy is asked, every time the set of active tasks changes, to split the
``P`` processors among the active tasks.  It sees the public columns of the
active tasks only — their ids, weights, caps, the work done so far and the
time since release, as 1-D arrays in ascending task order — but **never**
the volumes, which is what makes the policy non-clairvoyant in the sense of
Section III of the paper.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.algorithms.wdeq import wdeq_allocation
from repro.core.exceptions import SimulationError

__all__ = [
    "OnlinePolicy",
    "WdeqPolicy",
    "DeqPolicy",
    "FairShareNoCapPolicy",
    "PriorityPolicy",
]


class OnlinePolicy(abc.ABC):
    """Base class for non-clairvoyant allocation policies."""

    #: Human-readable name used by the experiment reports.
    name: str = "policy"

    @abc.abstractmethod
    def allocate(
        self,
        P: float,
        task_ids: np.ndarray,
        weights: np.ndarray,
        deltas: np.ndarray,
        work_done: np.ndarray,
        elapsed: np.ndarray,
    ) -> np.ndarray:
        """Share ``P`` processors among the active tasks.

        Every argument but ``P`` holds one entry per active task, in
        ascending ``task_ids`` order: the weights and caps (public
        information), the work processed so far (known because the policy
        granted the processors) and the time since release.  Must return
        the rates in the same order with ``0 <= rate <= delta_i`` and total
        at most ``P``; the engine validates this and raises
        :class:`~repro.core.exceptions.SimulationError` on violation.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class WdeqPolicy(OnlinePolicy):
    """Weighted Dynamic EQuipartition (Algorithm 1 of the paper)."""

    name = "WDEQ"

    def allocate(self, P, task_ids, weights, deltas, work_done, elapsed):
        return wdeq_allocation(P, weights, deltas)


class DeqPolicy(WdeqPolicy):
    """Dynamic EQuipartition (Deng et al.): WDEQ with the weights ignored."""

    name = "DEQ"

    def allocate(self, P, task_ids, weights, deltas, work_done, elapsed):
        return wdeq_allocation(P, np.ones_like(weights), deltas)


class FairShareNoCapPolicy(OnlinePolicy):
    """Weighted fair sharing that ignores the per-task caps.

    This is the Weighted Round-Robin baseline of the single-processor world
    (reference [14]); on malleable instances it may violate the caps, in
    which case the engine clamps the allocation to ``delta_i`` and leaves the
    excess capacity idle — precisely the degradation the caps are meant to
    model (a worker cannot absorb more than its incoming bandwidth).
    """

    name = "WRR (no cap)"

    def allocate(self, P, task_ids, weights, deltas, work_done, elapsed):
        total = weights.sum()
        if weights.size and total <= 0:
            raise SimulationError("FairShareNoCapPolicy requires positive weights")
        return np.minimum(deltas, weights * (P / total if total > 0 else 0.0))


class PriorityPolicy(OnlinePolicy):
    """Serve tasks in a fixed priority order, each at its cap.

    The highest-priority active task gets ``min(delta, P)`` processors, the
    next one gets what is left, and so on; equal priorities are served by
    ascending task id.  With priorities given by Smith's ratio this is the
    non-clairvoyant analogue of the greedy schedule; with priorities by
    weight it models a strict-priority cluster scheduler.
    """

    def __init__(self, priorities: Sequence[float], name: str = "priority"):
        #: priorities[task_id] — larger value is served first.
        self.priorities = np.asarray(priorities, dtype=float)
        self.name = name

    def allocate(self, P, task_ids, weights, deltas, work_done, elapsed):
        # A stable sort on the negated priority keeps ties in task-id order.
        order = np.argsort(-self.priorities[task_ids], kind="stable")
        deltas_sorted = deltas[order]
        before = np.cumsum(deltas_sorted) - deltas_sorted
        rates = np.empty_like(deltas_sorted)
        rates[order] = np.clip(P - before, 0.0, deltas_sorted)
        return rates
