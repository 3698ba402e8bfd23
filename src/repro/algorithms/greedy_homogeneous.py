"""Greedy schedules on the homogeneous instances of Section V-B.

Section V-B of the paper studies the restricted class of instances with

* a single unit of resource (``P = 1``),
* unit volumes and weights (``V_i = w_i = 1``),
* caps ``delta_i >= 1/2`` (so Theorem 11 applies and optimal schedules are
  greedy).

On these instances a greedy schedule for an order ``sigma`` has a simple
closed-form recurrence (equation in Section V-B of the paper):

``C_sigma(1) = 1 / delta_sigma(1)``

``C_sigma(i) = C_sigma(i-1)
             + (1 - (1 - delta_sigma(i-1)) * (C_sigma(i-1) - C_sigma(i-2)))
               / delta_sigma(i)``

(with ``C_sigma(0) = 0``): in column ``i`` the task ``sigma(i)`` is saturated
and the next task ``sigma(i+1)`` absorbs the remaining ``1 - delta_sigma(i)``
of the resource.

The paper reports the optimal orders for up to 4 tasks, a necessary condition
for 5 tasks, and Conjecture 13: the greedy value of an order equals the value
of the reversed order.  All of these are reproduced in experiments E2 / E3.

Conjecture 13 is checked with this recurrence.  Searches over all orders run
the batched Algorithm 3 of :mod:`repro.algorithms.greedy` on
:func:`homogeneous_instance`, which agrees with it to rounding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algorithms.greedy import best_greedy_schedule
from repro.core.exceptions import InvalidInstanceError, InvalidScheduleError
from repro.core.instance import Instance, Task

__all__ = [
    "homogeneous_instance",
    "homogeneous_greedy_completion_times",
    "homogeneous_greedy_value",
    "homogeneous_best_order",
    "is_homogeneous_instance",
]


def homogeneous_instance(deltas: Sequence[float]) -> Instance:
    """Build the Section V-B instance with the given caps.

    ``P = 1``, ``V_i = w_i = 1`` and ``delta_i`` as supplied; caps must lie
    in ``[1/2, 1]`` for the structural results (Theorem 11) to apply, and
    this is enforced.
    """
    deltas = [float(d) for d in deltas]
    for d in deltas:
        if not (0.5 - 1e-12 <= d <= 1.0 + 1e-12):
            raise InvalidInstanceError(
                f"Section V-B instances require delta in [1/2, 1], got {d}"
            )
    return Instance(
        P=1.0,
        tasks=[Task(volume=1.0, weight=1.0, delta=min(d, 1.0)) for d in deltas],
    )


def is_homogeneous_instance(instance: Instance, atol: float = 1e-9) -> bool:
    """True when the instance belongs to the Section V-B class."""
    return (
        abs(instance.P - 1.0) <= atol
        and bool(np.allclose(instance.volumes, 1.0, atol=atol))
        and bool(np.allclose(instance.weights, 1.0, atol=atol))
        and bool(np.all(instance.deltas >= 0.5 - atol))
    )


def homogeneous_greedy_completion_times(
    deltas: Sequence[float], order: Sequence[int] | None = None
) -> np.ndarray:
    """Completion times of the greedy schedule via the Section V-B recurrence.

    Parameters
    ----------
    deltas:
        Caps ``delta_i in [1/2, 1]`` of the tasks.
    order:
        Scheduling order (a permutation of task indices).  Defaults to the
        identity.

    Returns
    -------
    numpy.ndarray
        Completion times in *scheduling order*: entry ``i`` is the completion
        time of task ``order[i]``.
    """
    deltas = np.asarray(deltas, dtype=float)
    n = deltas.size
    if order is None:
        order = list(range(n))
    order = [int(i) for i in order]
    if sorted(order) != list(range(n)):
        raise InvalidScheduleError(f"order must be a permutation of 0..{n - 1}, got {order!r}")
    if np.any(deltas < 0.5 - 1e-12) or np.any(deltas > 1.0 + 1e-12):
        raise InvalidInstanceError("the closed-form recurrence requires delta in [1/2, 1]")
    C = np.zeros(n)
    prev2 = 0.0  # C_sigma(i-2)
    prev1 = 0.0  # C_sigma(i-1)
    for i in range(n):
        # No leftover before the first task: prev1 - prev2 = 0.
        leftover = (1.0 - deltas[order[i - 1]]) * (prev1 - prev2)
        C[i] = prev1 + (1.0 - leftover) / deltas[order[i]]
        prev2, prev1 = prev1, C[i]
    return C


def homogeneous_greedy_value(
    deltas: Sequence[float], order: Sequence[int] | None = None
) -> float:
    """Sum of completion times of the greedy schedule for ``order``."""
    return float(homogeneous_greedy_completion_times(deltas, order).sum())


def homogeneous_best_order(deltas: Sequence[float]) -> tuple[tuple[int, ...], float]:
    """Exhaustively find the order minimising the sum of completion times.

    All ``n!`` orders of :func:`homogeneous_instance` are evaluated by
    :func:`repro.algorithms.greedy.best_greedy_schedule`.  Only intended for
    the small instances of the Section V-B experiments (the paper explores
    up to 5 tasks analytically; exhaustive search beyond ~10 tasks is
    impractical).
    """
    if len(deltas) > 10:
        raise InvalidInstanceError(
            "exhaustive order search is limited to 10 tasks; "
            "use repro.algorithms.greedy.local_search_greedy_schedule instead"
        )
    best = best_greedy_schedule(homogeneous_instance(deltas), exhaustive_limit=10)
    return best.order, best.objective
