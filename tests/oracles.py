"""Brute-force exact optimum: the test oracle for every batched OPT path.

OPT(I) is the minimum of the Corollary 1 LP over all completion orderings.
Here each ordering's LP is built in task space and solved by HiGHS through
:func:`repro.lp.interface.solve_ordered_relaxation`, so the oracle shares
no code with :func:`repro.lp.batch.build_ordered_lp_batch`, the lockstep
simplex or the branch-and-bound of :mod:`repro.lp.exact`.  It is
factorial in ``n``; keep its instances small (``n <= 5``).
"""

from __future__ import annotations

import itertools

from repro.core.instance import Instance
from repro.core.schedule import ColumnSchedule
from repro.lp.interface import solve_ordered_relaxation


def bruteforce_optimum(instance: Instance) -> tuple[float, tuple[int, ...]]:
    """``(OPT, a minimising ordering)`` over ``itertools.permutations``."""
    return min(
        (solve_ordered_relaxation(instance, order, build_schedule=False).objective, order)
        for order in itertools.permutations(range(instance.n))
    )


def bruteforce_opt(instance: Instance) -> float:
    """The optimal weighted completion time."""
    return bruteforce_optimum(instance)[0]


def bruteforce_schedule(instance: Instance) -> ColumnSchedule:
    """An optimal schedule: the LP of the minimising ordering."""
    return solve_ordered_relaxation(instance, bruteforce_optimum(instance)[1]).schedule
