"""Linear-programming layer.

Corollary 1 of the paper states that once the *ordering* of completion times
is fixed, the optimal malleable schedule is the solution of a linear program.
This subpackage provides

* :mod:`repro.lp.formulation` — construction of that LP in matrix form,
* :mod:`repro.lp.scipy_backend` — :func:`~repro.lp.scipy_backend.solve_with_scipy`,
  the one call into :func:`scipy.optimize.linprog` (HiGHS),
* :mod:`repro.lp.simplex` — the in-repo dense two-phase simplex, a lockstep
  batched kernel (:func:`~repro.lp.simplex.solve_linear_program_batch`)
  that solves many same-shape LPs at once and is cross-checked against
  HiGHS,
* :mod:`repro.lp.interface` — the scalar reference
  :func:`~repro.lp.interface.solve_ordered_relaxation` (task-space LP,
  HiGHS) returning a :class:`~repro.core.schedule.ColumnSchedule`,
* :mod:`repro.lp.batch` — the batched ordered relaxation: one padded
  ``(B, rows, cols)`` assembly for a whole
  :class:`~repro.core.batch.InstanceBatch`, solved in one call,
* :mod:`repro.lp.exact` — the exact-OPT engine (branch-and-bound over
  completion suffixes with closed-form density floors, replacing the ``n!``
  ordering enumeration behind :func:`~repro.lp.batch.optimal`) and the one
  solver rule every batched solve goes through,
  :func:`~repro.lp.exact.solve_ordered_lps`: the problem size picks the
  lockstep kernel (at most 8 tasks) or one HiGHS call per LP.

Exact optima have a single entry point, :func:`repro.lp.optimal`, with
``method`` drawn from :data:`repro.lp.OPTIMAL_METHODS`
(``"branch-and-bound"`` or ``"enumerate"``).  SciPy is imported on the first
HiGHS solve, not by ``import repro.lp``.
"""

from repro.lp.batch import (
    OPTIMAL_METHODS,
    BatchedOptimalResult,
    BatchedOrderedLP,
    BatchedOrderedSolution,
    build_ordered_lp_batch,
    optimal,
    smith_orders_batch,
    solve_ordered_relaxation_batch,
)
from repro.lp.exact import (
    ExactSearchStats,
    branch_and_bound_optimal_batch,
    permutation_table,
    solve_ordered_lps,
)
from repro.lp.formulation import OrderedLP, build_ordered_lp, ordered_lp_dimensions
from repro.lp.interface import OrderedLPSolution, solve_ordered_relaxation
from repro.lp.scipy_backend import LinearProgramResult
from repro.lp.simplex import BatchLinearProgramResult, solve_linear_program_batch

__all__ = [
    "OrderedLP",
    "build_ordered_lp",
    "ordered_lp_dimensions",
    "OrderedLPSolution",
    "solve_ordered_relaxation",
    "LinearProgramResult",
    "BatchLinearProgramResult",
    "solve_linear_program_batch",
    "BatchedOrderedLP",
    "BatchedOrderedSolution",
    "BatchedOptimalResult",
    "build_ordered_lp_batch",
    "solve_ordered_relaxation_batch",
    "optimal",
    "OPTIMAL_METHODS",
    "smith_orders_batch",
    "ExactSearchStats",
    "branch_and_bound_optimal_batch",
    "permutation_table",
    "solve_ordered_lps",
]
