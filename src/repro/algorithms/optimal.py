"""Exact optimal schedules by enumeration of completion-time orderings.

Corollary 1 of the paper reduces MWCT-CB-F with a *known* ordering of the
completion times to a linear program.  Since some ordering is always correct,
the exact optimum is

``OPT(I) = min over permutations pi of LP(I, pi)``.

This brute force is exactly how the paper's Conjecture 12 experiments obtain
the reference optimal value for instances of up to 5 tasks; it is exponential
in ``n`` and guarded accordingly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.exceptions import InvalidInstanceError
from repro.core.instance import Instance
from repro.core.schedule import ColumnSchedule
from repro.lp.interface import solve_ordered_relaxation

__all__ = ["OptimalResult", "optimal_schedule", "optimal_value", "optimal_over_orders"]

#: Enumerating more than 9 tasks (362k LPs) is far beyond what the brute
#: force is meant for; the guard protects against accidental huge runs.
MAX_EXHAUSTIVE_TASKS = 9


@dataclass
class OptimalResult:
    """Outcome of the exact optimal search.

    Attributes
    ----------
    order:
        Completion-time ordering achieving the optimum.
    objective:
        Optimal weighted completion time.
    schedule:
        An optimal :class:`~repro.core.schedule.ColumnSchedule` (the LP
        solution for the optimal ordering).
    orderings_evaluated:
        Number of LPs solved.
    """

    order: tuple[int, ...]
    objective: float
    schedule: ColumnSchedule | None
    orderings_evaluated: int


def optimal_over_orders(
    instance: Instance,
    orders: Iterable[Sequence[int]],
    build_schedule: bool = True,
) -> OptimalResult:
    """Best LP value over an explicit collection of orderings.

    Useful both for the full brute force (pass all permutations) and for
    restricted searches (e.g. only Smith-like orderings).
    """
    best_value = math.inf
    best_order: tuple[int, ...] | None = None
    evaluated = 0
    for order in orders:
        solution = solve_ordered_relaxation(instance, order, build_schedule=False)
        evaluated += 1
        if solution.objective < best_value - 1e-12:
            best_value = solution.objective
            best_order = tuple(int(i) for i in order)
    if best_order is None:
        if instance.n == 0:
            empty = solve_ordered_relaxation(instance, [])
            return OptimalResult(order=(), objective=0.0, schedule=empty.schedule, orderings_evaluated=0)
        raise InvalidInstanceError("no orderings supplied")
    schedule = None
    if build_schedule:
        schedule = solve_ordered_relaxation(instance, best_order, build_schedule=True).schedule
    return OptimalResult(
        order=best_order,
        objective=best_value,
        schedule=schedule,
        orderings_evaluated=evaluated,
    )


def optimal_schedule(
    instance: Instance,
    build_schedule: bool = True,
    max_tasks: int = MAX_EXHAUSTIVE_TASKS,
) -> OptimalResult:
    """Exact optimum of MWCT-CB-F by enumerating every completion ordering.

    Parameters
    ----------
    instance:
        The scheduling instance; must have at most ``max_tasks`` tasks.
    build_schedule:
        Whether to reconstruct the optimal column schedule (and not only its
        value).
    max_tasks:
        Safety guard on the exponential enumeration.
    """
    n = instance.n
    if n > max_tasks:
        raise InvalidInstanceError(
            f"brute-force optimum is limited to {max_tasks} tasks (got {n}); "
            "use best_greedy_schedule or WDEQ with lower bounds instead"
        )
    if n == 0:
        return optimal_over_orders(instance, [[]], build_schedule=build_schedule)
    return optimal_over_orders(
        instance,
        itertools.permutations(range(n)),
        build_schedule=build_schedule,
    )


def optimal_value(instance: Instance, max_tasks: int = MAX_EXHAUSTIVE_TASKS) -> float:
    """The optimal weighted completion time (value only)."""
    return optimal_schedule(instance, build_schedule=False, max_tasks=max_tasks).objective
