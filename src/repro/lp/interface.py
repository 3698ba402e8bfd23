"""User-facing interface to the fixed-ordering LP of Corollary 1.

The central entry point is :func:`solve_ordered_relaxation`: given an
instance and a completion-time ordering, it returns the *optimal* column
schedule among those whose completion times respect the ordering (Corollary 1
proves that this is a linear program).  Enumerating orderings and taking the
best result yields the exact optimum — see
:func:`repro.algorithms.optimal.optimal_schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.exceptions import SolverError
from repro.core.instance import Instance
from repro.core.schedule import ColumnSchedule
from repro.lp.formulation import OrderedLP, build_ordered_lp
from repro.lp.scipy_backend import LinearProgramResult, solve_with_scipy

__all__ = ["OrderedLPSolution", "solve_ordered_relaxation"]


@dataclass
class OrderedLPSolution:
    """Optimal schedule for a fixed completion-time ordering.

    Attributes
    ----------
    lp:
        The LP that was solved.
    result:
        Raw backend result (variable vector, objective, status).
    schedule:
        The optimal :class:`~repro.core.schedule.ColumnSchedule`, or ``None``
        when the LP is infeasible (which cannot happen for this particular
        LP: any ordering admits a feasible schedule, e.g. run the tasks one
        after the other).
    """

    lp: OrderedLP
    result: LinearProgramResult
    schedule: ColumnSchedule | None

    @property
    def objective(self) -> float:
        """Optimal weighted completion time for this ordering."""
        return self.result.objective

    @property
    def completion_times(self) -> np.ndarray:
        """Column end times ``C_1 <= ... <= C_n``."""
        return self.lp.extract_completion_times(self.result.x)


def solve_ordered_relaxation(
    instance: Instance,
    order: Sequence[int],
    build_schedule: bool = True,
) -> OrderedLPSolution:
    """Solve the Corollary 1 LP for a fixed completion ordering with HiGHS.

    Parameters
    ----------
    instance:
        The scheduling instance.
    order:
        Permutation of task indices; ``order[j]`` completes at the end of
        column ``j``.
    build_schedule:
        When true (default), reconstruct a :class:`ColumnSchedule` from the
        LP solution.  Disable when only the optimal objective value is needed
        (e.g. inside the brute-force enumeration of all orderings) to avoid
        the reconstruction overhead.

    Raises
    ------
    SolverError
        If HiGHS fails, or if the LP is reported infeasible/unbounded
        (which would indicate a formulation bug — the LP always has an
        optimal solution).
    """
    if instance.n == 0:
        empty = ColumnSchedule(instance, [], [], np.zeros((0, 0)))
        return OrderedLPSolution(
            lp=build_ordered_lp(instance, []),
            result=LinearProgramResult(np.zeros(0), 0.0, "optimal", 0),
            schedule=empty,
        )
    lp = build_ordered_lp(instance, order)
    result = solve_with_scipy(lp)
    if result.status != "optimal":
        raise SolverError(
            f"the Corollary 1 LP should always be solvable, got status {result.status!r}"
        )

    schedule = None
    if build_schedule:
        completion_times = lp.extract_completion_times(result.x)
        rates = lp.extract_rates(result.x)
        schedule = ColumnSchedule(instance, lp.order, completion_times, rates)
    return OrderedLPSolution(lp=lp, result=result, schedule=schedule)
