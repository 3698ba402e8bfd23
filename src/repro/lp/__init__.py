"""Linear-programming layer.

Corollary 1 of the paper states that once the *ordering* of completion times
is fixed, the optimal malleable schedule is the solution of a linear program.
This subpackage provides

* :mod:`repro.lp.formulation` — construction of that LP in matrix form,
* :mod:`repro.lp.scipy_backend` — a solver backend based on
  :func:`scipy.optimize.linprog` (HiGHS),
* :mod:`repro.lp.simplex` — a self-contained dense two-phase simplex solver
  used as a fallback and as an independent cross-check, plus its lockstep
  batched counterpart :func:`~repro.lp.simplex.solve_linear_program_batch`,
* :mod:`repro.lp.interface` — the user-facing
  :func:`~repro.lp.interface.solve_ordered_relaxation` returning a
  :class:`~repro.core.schedule.ColumnSchedule`,
* :mod:`repro.lp.batch` — the batched ordered-relaxation solver: one padded
  ``(B, rows, cols)`` assembly plus one lockstep solve for a whole
  :class:`~repro.core.batch.InstanceBatch`, with a SciPy dispatch fallback
  over :meth:`repro.exec.ExecutionContext.map`,
* :mod:`repro.lp.exact` — the exact-OPT engine: branch-and-bound over
  completion suffixes with closed-form density floors and
  feasibility-certified leaves, replacing the ``n!`` ordering enumeration
  behind :func:`~repro.lp.batch.optimal`.

Exact optima have a single entry point, :func:`repro.lp.optimal`, with
``method`` drawn from :data:`repro.lp.OPTIMAL_METHODS`
(``"branch-and-bound"`` or ``"enumerate"``).
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
)
from repro.lp.formulation import OrderedLP, build_ordered_lp, ordered_lp_dimensions
from repro.lp.interface import OrderedLPSolution, solve_ordered_relaxation
from repro.lp.simplex import (
    BatchLinearProgramResult,
    LinearProgramResult,
    solve_linear_program,
    solve_linear_program_batch,
)

__all__ = [
    "OrderedLP",
    "build_ordered_lp",
    "ordered_lp_dimensions",
    "OrderedLPSolution",
    "solve_ordered_relaxation",
    "LinearProgramResult",
    "solve_linear_program",
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
]
