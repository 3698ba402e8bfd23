"""SciPy/HiGHS backend: the one place the LP layer calls HiGHS.

:func:`solve_block_diagonal` solves a stack of ``K`` same-shape LPs in the
standard form ``min c x`` s.t. ``A_ub x <= b_ub``, ``A_eq x = b_eq``,
``x >= 0`` as **one** HiGHS LP: the block-diagonal union of the stack,
assembled straight into a sparse column matrix and handed to
:func:`scipy.optimize.milp` with no integrality.  The blocks share no
variable and no row, so the union's optimum is every block's optimum at
once, and one call pays HiGHS's fixed per-solve cost once for the whole
stack instead of once per LP.  The ordered-LP dispatch rule of
:mod:`repro.lp.exact` calls it on every stack too large for the lockstep
kernel.

:func:`solve_with_scipy` is its one-LP case: the scalar task-space solve
(:func:`repro.lp.interface.solve_ordered_relaxation`) calls it on its
assembled matrices, and it is the independent reference the lockstep
kernel of :mod:`repro.lp.simplex` is cross-checked against.  SciPy is
imported on the first solve, so importing :mod:`repro.lp` stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import SolverError
from repro.lp.simplex import BatchLinearProgramResult

__all__ = ["LinearProgramResult", "solve_block_diagonal", "solve_with_scipy"]


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
        Always 0: :func:`scipy.optimize.milp` reports no simplex iteration
        count (see :func:`solve_block_diagonal`).
    """

    x: np.ndarray
    objective: float
    status: str
    iterations: int

    @property
    def is_optimal(self) -> bool:
        """True when an optimal solution was found."""
        return self.status == "optimal"


def solve_block_diagonal(
    c: np.ndarray, A_ub: np.ndarray, b_ub: np.ndarray, A_eq: np.ndarray, b_eq: np.ndarray
) -> BatchLinearProgramResult:
    """Solve ``K`` stacked LPs as one block-diagonal HiGHS LP.

    ``c`` is ``(K, nvar)``, ``A_ub`` / ``A_eq`` are ``(K, rows, nvar)`` and
    ``b_ub`` / ``b_eq`` ``(K, rows)``; either constraint block may have no
    rows.  LP ``k`` owns variables ``k * nvar .. (k + 1) * nvar - 1`` and
    its own rows of the union, so the union's ``x`` splits back per block,
    and each block's objective is ``c[k] @ x[k]``.

    When the union is not optimal, the stack is halved and each half solved
    again, down to the blocks at fault, so every LP gets its own status:
    infeasible and unbounded LPs are reported as the lockstep kernel
    reports them (objective ``nan`` / ``-inf``, ``x`` zero), and any other
    HiGHS failure raises :class:`~repro.core.exceptions.SolverError`.
    ``iterations`` is 0 for every block: :func:`scipy.optimize.milp`, the
    public entry point used here, does not report HiGHS's iteration count.
    """
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import csc_array

    K, nvar = c.shape
    if K == 0:
        return _block_result(np.zeros((0, nvar)), np.zeros(0), np.array([], dtype=object))
    A = np.concatenate([A_ub, A_eq], axis=1)
    rows = A.shape[1]
    # Column-major entries of every block: block offsets keep the columns
    # sorted, so the stack's nonzeros are the union's CSC arrays as they come.
    block, col, row = np.nonzero(A.transpose(0, 2, 1))
    column_counts = np.bincount(block * nvar + col, minlength=K * nvar)
    indptr = np.concatenate([[0], np.cumsum(column_counts)])
    matrix = csc_array((A[block, row, col], row + block * rows, indptr), shape=(K * rows, K * nvar))
    lower = np.concatenate([np.full(b_ub.shape, -np.inf), b_eq], axis=1).ravel()
    upper = np.concatenate([b_ub, b_eq], axis=1).ravel()
    res = milp(c.ravel(), constraints=LinearConstraint(matrix, lower, upper))
    if res.status == 0:
        x = np.asarray(res.x, dtype=float).reshape(K, nvar)
        return _block_result(x, np.einsum("kv,kv->k", c, x), np.full(K, "optimal", dtype=object))
    if K > 1:
        half = K // 2
        return BatchLinearProgramResult.concatenate([
            solve_block_diagonal(c[s], A_ub[s], b_ub[s], A_eq[s], b_eq[s])
            for s in (slice(0, half), slice(half, K))
        ])
    if res.status == 2:
        return _block_result(np.zeros((1, nvar)), np.array([np.nan]), np.array(["infeasible"], dtype=object))
    if res.status == 3:
        return _block_result(np.zeros((1, nvar)), np.array([-np.inf]), np.array(["unbounded"], dtype=object))
    raise SolverError(f"HiGHS failed: {res.message}")


def _block_result(x: np.ndarray, objectives: np.ndarray, statuses: np.ndarray) -> BatchLinearProgramResult:
    return BatchLinearProgramResult(
        x=x, objectives=objectives, statuses=statuses, iterations=np.zeros(len(statuses), dtype=np.int64)
    )


def solve_with_scipy(
    c: np.ndarray, A_ub: np.ndarray, b_ub: np.ndarray, A_eq: np.ndarray, b_eq: np.ndarray
) -> LinearProgramResult:
    """Solve ``min c x`` s.t. ``A_ub x <= b_ub``, ``A_eq x = b_eq``, ``x >= 0`` with HiGHS.

    The one-LP case of :func:`solve_block_diagonal`.  Empty constraint
    blocks are allowed.  Infeasible and unbounded LPs are reported through
    :attr:`LinearProgramResult.status` (objective ``nan`` / ``-inf``, the
    conventions of the lockstep kernel); any other HiGHS failure raises
    :class:`~repro.core.exceptions.SolverError`.
    """
    c = np.asarray(c, dtype=float).reshape(1, -1)
    nvar = c.shape[1]
    solved = solve_block_diagonal(
        c,
        np.asarray(A_ub, dtype=float).reshape(1, -1, nvar),
        np.asarray(b_ub, dtype=float).reshape(1, -1),
        np.asarray(A_eq, dtype=float).reshape(1, -1, nvar),
        np.asarray(b_eq, dtype=float).reshape(1, -1),
    )
    return LinearProgramResult(
        solved.x[0], float(solved.objectives[0]), str(solved.statuses[0]), int(solved.iterations[0])
    )
