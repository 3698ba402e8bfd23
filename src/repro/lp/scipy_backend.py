"""SciPy/HiGHS backend: the one place the LP layer calls HiGHS.

:func:`solve_with_scipy` wraps :func:`scipy.optimize.linprog` (HiGHS) for one
LP in the standard form ``min c x`` s.t. ``A_ub x <= b_ub``, ``A_eq x = b_eq``,
``x >= 0``.  The scalar task-space solve
(:func:`repro.lp.interface.solve_ordered_relaxation`) calls it on its
assembled matrices, and the ordered-LP dispatch rule of :mod:`repro.lp.exact`
calls it once per LP of a stack too large for the lockstep kernel.  It is
also the independent reference the lockstep kernel of :mod:`repro.lp.simplex`
is cross-checked against.  SciPy is imported on the first solve, so importing
:mod:`repro.lp` stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import SolverError

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


def solve_with_scipy(
    c: np.ndarray, A_ub: np.ndarray, b_ub: np.ndarray, A_eq: np.ndarray, b_eq: np.ndarray
) -> LinearProgramResult:
    """Solve ``min c x`` s.t. ``A_ub x <= b_ub``, ``A_eq x = b_eq``, ``x >= 0`` with HiGHS.

    Empty constraint blocks are allowed.  Infeasible and unbounded LPs are
    reported through :attr:`LinearProgramResult.status` (objective ``nan`` /
    ``-inf``, the conventions of the lockstep kernel); any other HiGHS
    failure raises :class:`~repro.core.exceptions.SolverError`.
    """
    from scipy.optimize import linprog

    nvar = int(np.asarray(c).size)
    res = linprog(
        c=c,
        A_ub=A_ub if A_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=A_eq if A_eq.size else None,
        b_eq=b_eq if b_eq.size else None,
        bounds=[(0, None)] * nvar,
        method="highs",
    )
    iterations = int(getattr(res, "nit", 0) or 0)
    if res.status == 2:
        return LinearProgramResult(np.zeros(nvar), np.nan, "infeasible", iterations)
    if res.status == 3:
        return LinearProgramResult(np.zeros(nvar), -np.inf, "unbounded", iterations)
    if not res.success:
        raise SolverError(f"HiGHS failed: {res.message}")
    return LinearProgramResult(np.asarray(res.x, dtype=float), float(res.fun), "optimal", iterations)
