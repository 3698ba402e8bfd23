"""Structure of optimal greedy orderings on Section V-B instances.

For the homogeneous family (``P=1``, ``V_i=w_i=1``, ``delta_i >= 1/2``) the
paper describes, assuming ``delta_1 >= delta_2 >= ... >= delta_n``:

* 2 tasks: the orders ``1,2`` and ``2,1`` are both optimal;
* 3 tasks: ``1,3,2`` and ``2,3,1`` are both optimal (smallest cap in the
  middle);
* 4 tasks: ``1,3,2,4`` and ``4,2,3,1`` are both optimal;
* 5 tasks: optimal orders are harder to describe; a necessary condition for
  an optimal order ``i,j,k,l,m`` is ``(delta_l - delta_j) * (delta_i -
  delta_m) <= 0``.

This module finds the set of optimal orders exhaustively (Algorithm 3 on
every order) and checks these structural claims; experiment E3 aggregates the
checks over random instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.algorithms.greedy import exhaustive_greedy_values
from repro.algorithms.greedy_homogeneous import homogeneous_instance
from repro.core.bounds import time_leq, time_tolerance
from repro.core.exceptions import InvalidInstanceError

__all__ = [
    "paper_predicted_orders",
    "measured_optimal_orders",
    "OrderingStructure",
    "optimal_order_structure",
    "five_task_condition_holds",
]


def paper_predicted_orders(n: int) -> list[tuple[int, ...]]:
    """The optimal orders *as printed in the paper* for ``n <= 4`` tasks.

    Orders are expressed over *rank indices*: rank 0 is the task with the
    largest cap, rank 1 the next, and so on (the paper numbers tasks so that
    ``delta_1 >= delta_2 >= ...``).

    .. note::
        For ``n = 4`` the paper prints ``1,3,2,4`` and ``4,2,3,1``.  Our
        exhaustive computation (cross-checked against the LP optimum, see
        experiment E3) finds that those orders are *not* optimal; the optimal
        pair is ``1,3,4,2`` and its reverse ``2,4,3,1`` — available from
        :func:`measured_optimal_orders`.  The discrepancy is reported in
        EXPERIMENTS.md; it is most plausibly a typo in the paper since the
        measured pair keeps the reversal symmetry of Conjecture 13 and the
        "small caps in the middle" structure of the ``n = 3`` case.
    """
    if n == 1:
        return [(0,)]
    if n == 2:
        return [(0, 1), (1, 0)]
    if n == 3:
        return [(0, 2, 1), (1, 2, 0)]
    if n == 4:
        return [(0, 2, 1, 3), (3, 1, 2, 0)]
    raise InvalidInstanceError(
        f"the paper only states closed-form optimal orders for n <= 4, got n={n}"
    )


def measured_optimal_orders(n: int) -> list[tuple[int, ...]]:
    """The optimal orders measured by this reproduction for ``n <= 4``.

    They match the paper for ``n <= 3``; for ``n = 4`` they are ``1,3,4,2``
    and ``2,4,3,1`` (rank indices ``(0,2,3,1)`` and ``(1,3,2,0)``), which
    differ from the paper's printed orders — see
    :func:`paper_predicted_orders` for the discussion.
    """
    if n <= 3:
        return paper_predicted_orders(n)
    if n == 4:
        return [(0, 2, 3, 1), (1, 3, 2, 0)]
    raise InvalidInstanceError(
        f"closed-form optimal orders are only described for n <= 4, got n={n}"
    )


@dataclass
class OrderingStructure:
    """Exhaustive description of the optimal greedy orders of one instance.

    All orders are expressed over rank indices (0 = largest cap).

    Attributes
    ----------
    deltas_sorted:
        Caps sorted in non-increasing order.
    best_greedy_value:
        Best sum of completion times over all greedy orders.
    optimal_orders:
        Every order achieving the optimum (within tolerance).
    predicted_orders:
        The paper's printed optimal orders (``n <= 4`` only, else empty).
    predictions_optimal:
        True when every order printed in the paper is indeed optimal.
    measured_pattern_orders:
        The orders this reproduction finds to be optimal in closed form
        (``n <= 4`` only, else empty); identical to the paper for
        ``n <= 3``.
    measured_pattern_optimal:
        True when every measured-pattern order is optimal on this instance.
    """

    deltas_sorted: np.ndarray
    best_greedy_value: float
    optimal_orders: list[tuple[int, ...]]
    predicted_orders: list[tuple[int, ...]]
    predictions_optimal: bool
    measured_pattern_orders: list[tuple[int, ...]]
    measured_pattern_optimal: bool


def optimal_order_structure(
    deltas: Sequence[float], tolerance: float = 1e-9
) -> OrderingStructure:
    """Enumerate all orders of a Section V-B instance and classify them.

    The value landscape is
    :func:`repro.algorithms.greedy.exhaustive_greedy_values` (the batched
    Algorithm 3) on
    :func:`~repro.algorithms.greedy_homogeneous.homogeneous_instance`.  Its
    values agree with the Section V-B recurrence to rounding, not bitwise,
    so optimal orders are collected within ``tolerance`` of the best value.
    """
    deltas_sorted = np.sort(np.asarray(deltas, dtype=float))[::-1]
    n = deltas_sorted.size
    if n == 0:
        return OrderingStructure(deltas_sorted, 0.0, [()], [()], True, [()], True)
    values = exhaustive_greedy_values(homogeneous_instance(deltas_sorted))
    best = min(values.values())
    limit = best + time_tolerance(best, rtol=tolerance, atol=tolerance)
    optimal_orders = [order for order, value in values.items() if value <= limit]
    try:
        predicted = paper_predicted_orders(n)
        measured = measured_optimal_orders(n)
    except InvalidInstanceError:
        predicted = []
        measured = []
    optimal_set = set(optimal_orders)
    predictions_optimal = all(p in optimal_set for p in predicted) if predicted else True
    measured_optimal = all(p in optimal_set for p in measured) if measured else True
    return OrderingStructure(
        deltas_sorted=deltas_sorted,
        best_greedy_value=best,
        optimal_orders=sorted(optimal_orders),
        predicted_orders=predicted,
        predictions_optimal=predictions_optimal,
        measured_pattern_orders=measured,
        measured_pattern_optimal=measured_optimal,
    )


def five_task_condition_holds(
    deltas: Sequence[float], order: Sequence[int], tolerance: float = 1e-9
) -> bool:
    """The necessary condition of the paper for optimal 5-task orders.

    For an order ``i, j, k, l, m`` (task labels in scheduling position), the
    paper states that optimality requires
    ``(delta_l - delta_j) * (delta_i - delta_m) <= 0``.
    """
    deltas = np.asarray(deltas, dtype=float)
    order = list(order)
    if len(order) != 5:
        raise InvalidInstanceError(f"the condition is specific to 5-task orders, got {len(order)}")
    i, j, _, l, m = order
    product = float((deltas[l] - deltas[j]) * (deltas[i] - deltas[m]))
    return time_leq(product, 0.0, rtol=0.0, atol=tolerance)
