"""SciPy/HiGHS backend for the fixed-ordering LP.

The HiGHS solver shipped with :func:`scipy.optimize.linprog` is the scalar
solver of the LP layer: every single-LP solve
(:func:`repro.lp.interface.solve_ordered_relaxation`) goes through it, and it
is the independent reference the lockstep kernel of :mod:`repro.lp.simplex`
is cross-checked against.  SciPy is imported on the first solve, so importing
:mod:`repro.lp` stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import SolverError
from repro.lp.formulation import OrderedLP

__all__ = ["LinearProgramResult", "solve_with_scipy"]


@dataclass
class LinearProgramResult:
    """Outcome of a single LP solve.

    Attributes
    ----------
    x:
        Optimal values of the original (structural) variables.
    objective:
        Optimal objective value ``c @ x``.
    status:
        ``"optimal"``, ``"infeasible"`` or ``"unbounded"``.
    iterations:
        Iterations reported by the solver.
    """

    x: np.ndarray
    objective: float
    status: str
    iterations: int

    @property
    def is_optimal(self) -> bool:
        """True when an optimal solution was found."""
        return self.status == "optimal"


def solve_with_scipy(lp: OrderedLP) -> LinearProgramResult:
    """Solve an :class:`~repro.lp.formulation.OrderedLP` with HiGHS.

    Infeasible and unbounded LPs are reported through
    :attr:`LinearProgramResult.status` (objective ``nan`` / ``-inf``, the
    conventions of the lockstep kernel); any other HiGHS failure raises
    :class:`~repro.core.exceptions.SolverError`.
    """
    from scipy.optimize import linprog

    res = linprog(
        c=lp.c,
        A_ub=lp.A_ub if lp.A_ub.size else None,
        b_ub=lp.b_ub if lp.b_ub.size else None,
        A_eq=lp.A_eq if lp.A_eq.size else None,
        b_eq=lp.b_eq if lp.b_eq.size else None,
        bounds=[(0, None)] * lp.num_variables,
        method="highs",
    )
    if res.status == 2:
        return LinearProgramResult(
            x=np.zeros(lp.num_variables),
            objective=np.nan,
            status="infeasible",
            iterations=int(getattr(res, "nit", 0) or 0),
        )
    if res.status == 3:
        return LinearProgramResult(
            x=np.zeros(lp.num_variables),
            objective=-np.inf,
            status="unbounded",
            iterations=int(getattr(res, "nit", 0) or 0),
        )
    if not res.success:
        raise SolverError(f"HiGHS failed: {res.message}")
    return LinearProgramResult(
        x=np.asarray(res.x, dtype=float),
        objective=float(res.fun),
        status="optimal",
        iterations=int(getattr(res, "nit", 0) or 0),
    )
