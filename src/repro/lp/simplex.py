"""The in-repo dense two-phase primal simplex: a lockstep batched kernel.

:func:`solve_linear_program_batch` solves ``B`` independent LPs of one shape
as masked array operations over a stack of dense tableaus, with no
dependency on SciPy.  It exists for two reasons:

1. **Throughput** — the Corollary 1 LPs of a whole batch (every ordering of
   an enumeration, the small-``n`` leaves of the exact-OPT search) share one
   shape, so one lockstep solve amortises the interpreter across them;
2. **Cross-checking** — HiGHS (:mod:`repro.lp.scipy_backend`) and this
   kernel are run against each other in the test suite, which guards
   against formulation bugs that a single solver would hide.  A single LP
   is a batch of one.

The implementation is a textbook two-phase primal simplex on dense tableaus:
Bland's entering rule and Harris's two-pass ratio test for the leaving row
(cycling, which that combination does not rule out, ends at the pivot limit
with :class:`~repro.core.exceptions.SolverError`).  It targets the small LPs
produced by :mod:`repro.lp.formulation` (a few hundred variables at most);
it is *not* meant to compete with HiGHS on large instances —
``benchmarks/bench_scaling`` quantifies the gap.

Problem form
------------
``minimize c @ x`` subject to ``A_ub @ x <= b_ub``, ``A_eq @ x = b_eq`` and
``x >= 0``, one such problem per leading batch index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import SolverError

__all__ = [
    "BatchLinearProgramResult",
    "solve_linear_program_batch",
]

_EPS = 1e-9
_INFEAS_TOL = 1e-7

#: The incrementally-updated reduced costs of the batched solver are
#: recomputed from scratch every this-many lockstep pivots (and always before
#: a problem is declared optimal), bounding floating-point drift.
_REFRESH_EVERY = 24


@dataclass
class BatchLinearProgramResult:
    """Outcome of a batched lockstep simplex solve.

    Attributes
    ----------
    x:
        ``(B, nvar)`` optimal structural variables (zeros for problems that
        are not optimal).
    objectives:
        ``(B,)`` objective values; ``nan`` for infeasible problems and
        ``-inf`` for unbounded ones, matching the HiGHS
        :class:`~repro.lp.scipy_backend.LinearProgramResult` conventions.
    statuses:
        ``(B,)`` object array of ``"optimal"`` / ``"infeasible"`` /
        ``"unbounded"``, or ``"inaccurate"`` when the final point violates a
        constraint by more than :data:`_INFEAS_TOL` relative to the size of
        the row's terms (a numerical failure, never a verdict on the LP).
    iterations:
        ``(B,)`` pivots performed per problem (both phases).
    """

    x: np.ndarray
    objectives: np.ndarray
    statuses: np.ndarray
    iterations: np.ndarray

    @property
    def all_optimal(self) -> bool:
        """True when every problem of the batch reached optimality."""
        return bool(np.all(self.statuses == "optimal"))


def _exact_reduced_costs(cost: np.ndarray, T: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Reduced costs ``c - c_B B^{-1} A`` for every problem of a compacted batch."""
    cb = np.take_along_axis(cost, basis, axis=1)
    return cost - (cb[:, None, :] @ T)[:, 0, :]


def _primal_residual(A: np.ndarray, b: np.ndarray, x: np.ndarray, m_ub: int) -> np.ndarray:
    """Largest violation of ``A[:m_ub] x <= b[:m_ub]``, ``A[m_ub:] x = b[m_ub:]`` per problem,
    each row's divided by its ``1 + |b| + sum |A x|`` so that scale does not matter."""
    terms = A * x[:, None, :]
    residual = terms.sum(axis=2) - b
    residual[:, :m_ub] = np.maximum(residual[:, :m_ub], 0.0)
    scale = 1.0 + np.abs(b) + np.abs(terms).sum(axis=2)
    return (np.abs(residual) / scale).max(axis=1, initial=0.0)


def _simplex_core_batch(
    T: np.ndarray,
    b: np.ndarray,
    basis: np.ndarray,
    cost: np.ndarray,
    blocked: np.ndarray | None,
    orig: np.ndarray,
    out_T: np.ndarray,
    out_b: np.ndarray,
    out_basis: np.ndarray,
    statuses: np.ndarray,
    iterations: np.ndarray,
    max_iterations: int,
) -> None:
    """Run lockstep simplex pivots on a compacted ``(k, m, v)`` tableau batch.

    ``T``/``b``/``basis``/``cost``/``orig`` are working copies holding only
    the problems still pivoting; when a problem stops (optimal or unbounded)
    its tableau is written back into ``out_*`` at row ``orig[i]`` and the
    working arrays are compacted, so the per-iteration cost shrinks as
    problems converge.  Reduced costs are maintained incrementally (a rank-1
    update per pivot — the same transform the tableau undergoes) and
    recomputed exactly every :data:`_REFRESH_EVERY` pivots and before any
    problem is declared optimal, so termination decisions always use exact
    values.  The entering column is Bland's (smallest index); the leaving
    row comes from Harris's ratio test.
    """
    m = T.shape[1]
    lockstep = 0
    reduced = _exact_reduced_costs(cost, T, basis)
    while T.shape[0]:
        lockstep += 1
        if lockstep > max_iterations:
            raise SolverError(f"batched simplex exceeded {max_iterations} pivots")
        if lockstep % _REFRESH_EVERY == 0:
            reduced = _exact_reduced_costs(cost, T, basis)
        cand = reduced < -_EPS
        if blocked is not None:
            cand &= ~blocked
        maybe_done = np.nonzero(~cand.any(axis=1))[0]
        if maybe_done.size:
            # Verify with exact reduced costs before declaring optimality (the
            # incremental values may drift slightly below the pivot threshold).
            exact = _exact_reduced_costs(cost[maybe_done], T[maybe_done], basis[maybe_done])
            reduced[maybe_done] = exact
            exact_cand = exact < -_EPS
            if blocked is not None:
                exact_cand &= ~blocked
            done = maybe_done[~exact_cand.any(axis=1)]
            cand[maybe_done] = exact_cand
            if done.size:
                statuses[orig[done]] = "optimal"
                out_T[orig[done]] = T[done]
                out_b[orig[done]] = b[done]
                out_basis[orig[done]] = basis[done]
                keep = np.ones(T.shape[0], dtype=bool)
                keep[done] = False
                T, b, basis, cost, reduced, cand, orig = (
                    T[keep], b[keep], basis[keep], cost[keep], reduced[keep], cand[keep], orig[keep]
                )
                if not T.shape[0]:
                    return
        k = T.shape[0]
        ar = np.arange(k)
        enter = np.argmax(cand, axis=1)  # Bland: smallest candidate index.
        col = T[ar, :, enter]
        positive = col > _EPS
        unbounded = ~positive.any(axis=1)
        if unbounded.any():
            ui = np.nonzero(unbounded)[0]
            statuses[orig[ui]] = "unbounded"
            out_T[orig[ui]] = T[ui]
            out_b[orig[ui]] = b[ui]
            out_basis[orig[ui]] = basis[ui]
            keep = ~unbounded
            T, b, basis, cost, reduced, orig = (
                T[keep], b[keep], basis[keep], cost[keep], reduced[keep], orig[keep]
            )
            enter, col, positive = enter[keep], col[keep], positive[keep]
            k = T.shape[0]
            ar = np.arange(k)
            if not k:
                return
        # Harris's two-pass ratio test: among the rows whose ratio fits the
        # step allowed when every row may go _EPS negative, the largest pivot
        # element leaves (the clamp below absorbs the overshoot).  The plain
        # minimum-ratio row can be an element near _EPS that wrecks the tableau.
        ratios = np.where(positive, b / np.where(positive, col, 1.0), np.inf)
        reach = np.where(positive, (b + _EPS) / np.where(positive, col, 1.0), np.inf).min(axis=1)
        leave = np.argmax(np.where(ratios <= reach[:, None], col, -np.inf), axis=1)
        pivot_val = col[ar, leave]
        pivot_row = T[ar, leave, :] / pivot_val[:, None]
        pivot_b = b[ar, leave] / pivot_val
        T -= col[:, :, None] * pivot_row[:, None, :]
        b -= col * pivot_b[:, None]
        T[ar, leave, :] = pivot_row
        b[ar, leave] = pivot_b
        np.maximum(b, 0.0, out=b)  # degenerate pivots can leave -1e-17 dust
        basis[ar, leave] = enter
        reduced -= reduced[ar, enter][:, None] * pivot_row
        reduced[ar, enter] = 0.0
        iterations[orig] += 1


def solve_linear_program_batch(
    c: np.ndarray,
    A_ub: np.ndarray | None = None,
    b_ub: np.ndarray | None = None,
    A_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
    max_iterations: int = 50_000,
) -> BatchLinearProgramResult:
    """Solve ``B`` independent LPs ``min c x, A_ub x <= b_ub, A_eq x = b_eq, x >= 0`` in lockstep.

    Constraint tensors carry a leading batch dimension (``A_ub`` is
    ``(B, m_ub, nvar)`` and so on; ``c`` may be ``(nvar,)`` or ``(B, nvar)``),
    every problem shares one two-phase dense tableau layout, and pivots run
    as masked array operations over the whole batch — converged problems are
    frozen (removed from the working set) while the rest keep pivoting.
    Pivots follow Bland's entering rule and Harris's ratio test; the
    per-problem verdicts and optimal values match HiGHS up to floating-point
    noise (property-tested in ``tests/test_lp_batch.py``).  A single LP is
    solved as ``B = 1``; at least one constraint block is required.

    Infeasible and unbounded problems are reported per problem through
    :attr:`BatchLinearProgramResult.statuses`, and so is an "optimal" point
    that fails the final primal-residual check (``"inaccurate"``); only
    hitting the pivot limit raises :class:`~repro.core.exceptions.SolverError`.
    """
    if A_ub is None and A_eq is None:
        raise SolverError("a batched solve needs at least one constraint block")
    probe = A_ub if A_ub is not None else A_eq
    B = np.asarray(probe).shape[0]
    c = np.asarray(c, dtype=float)
    if c.ndim == 1:
        c = np.broadcast_to(c, (B, c.size))
    c = np.ascontiguousarray(c, dtype=float)
    nvar = c.shape[1]
    A_ub = np.zeros((B, 0, nvar)) if A_ub is None else np.asarray(A_ub, dtype=float)
    b_ub = np.zeros((B, 0)) if b_ub is None else np.asarray(b_ub, dtype=float)
    A_eq = np.zeros((B, 0, nvar)) if A_eq is None else np.asarray(A_eq, dtype=float)
    b_eq = np.zeros((B, 0)) if b_eq is None else np.asarray(b_eq, dtype=float)
    if A_ub.shape[2] != nvar or A_eq.shape[2] != nvar:
        raise SolverError("constraint tensors do not match the number of variables")
    if A_ub.shape[:2] != b_ub.shape or A_eq.shape[:2] != b_eq.shape:
        raise SolverError("constraint tensors do not match their right-hand sides")
    if c.shape[0] != B or A_eq.shape[0] != B:
        raise SolverError("constraint tensors disagree on the batch size")

    m_ub, m_eq = A_ub.shape[1], A_eq.shape[1]
    m = m_ub + m_eq
    constraints = (np.concatenate([A_ub, A_eq], axis=1), np.concatenate([b_ub, b_eq], axis=1))

    # Sign-normalise: inequality rows with a negative rhs are negated (their
    # slack becomes a surplus) and need an artificial; equality rows are
    # sign-normalised and always get one.  To
    # keep every problem on one tableau layout, an artificial *column* exists
    # for an inequality row as soon as any problem of the batch needs it
    # (problems that do not leave that column identically zero, so it can
    # never enter their basis).
    ub_flip = b_ub < 0
    A_ub = np.where(ub_flip[:, :, None], -A_ub, A_ub)
    b_ub = np.abs(b_ub)
    eq_flip = b_eq < 0
    A_eq = np.where(eq_flip[:, :, None], -A_eq, A_eq)
    b_eq = np.abs(b_eq)

    ub_art_rows = np.nonzero(ub_flip.any(axis=0))[0]
    num_art = ub_art_rows.size + m_eq
    slack_lo = nvar
    art_lo = nvar + m_ub
    total = nvar + m_ub + num_art

    T = np.zeros((B, m, total))
    T[:, :m_ub, :nvar] = A_ub
    T[:, m_ub:, :nvar] = A_eq
    slack_sign = np.where(ub_flip, -1.0, 1.0)
    rows_ub = np.arange(m_ub)
    T[:, rows_ub, slack_lo + rows_ub] = slack_sign
    for a, row in enumerate(ub_art_rows):
        T[:, row, art_lo + a] = np.where(ub_flip[:, row], 1.0, 0.0)
    eq_art = art_lo + ub_art_rows.size + np.arange(m_eq)
    T[:, m_ub + np.arange(m_eq), eq_art] = 1.0

    bvec = np.concatenate([b_ub, b_eq], axis=1)
    basis = np.zeros((B, m), dtype=np.int64)
    basis[:, :m_ub] = slack_lo + rows_ub
    for a, row in enumerate(ub_art_rows):
        basis[:, row] = np.where(ub_flip[:, row], art_lo + a, basis[:, row])
    basis[:, m_ub:] = eq_art

    statuses = np.full(B, "optimal", dtype=object)
    iterations = np.zeros(B, dtype=np.int64)

    if num_art:
        phase1_c = np.zeros((B, total))
        phase1_c[:, art_lo:] = 1.0
        orig = np.arange(B)
        work = (T.copy(), bvec.copy(), basis.copy())
        _simplex_core_batch(
            *work, phase1_c, None, orig, T, bvec, basis, statuses, iterations, max_iterations
        )
        if not np.all(statuses == "optimal"):  # pragma: no cover - phase 1 is always bounded
            raise SolverError("phase-1 batched simplex failed")
        cb = np.take_along_axis(phase1_c, basis, axis=1)
        phase1_obj = np.einsum("bm,bm->b", cb, bvec)
        infeasible = phase1_obj > _INFEAS_TOL * np.maximum(1.0, np.abs(bvec).max(axis=1, initial=1.0))
        statuses[infeasible] = "infeasible"
        # Drive remaining basic artificials out (or neutralise their redundant
        # rows) problem by problem — rare, so the scalar loop is fine.
        art_in_basis = basis >= art_lo
        for p in np.nonzero(art_in_basis.any(axis=1) & ~infeasible)[0]:
            for r in np.nonzero(art_in_basis[p])[0]:
                if bvec[p, r] > _EPS:  # pragma: no cover - contradicts phase-1 optimality
                    continue
                nonzero = np.nonzero(np.abs(T[p, r, :art_lo]) > _EPS)[0]
                if nonzero.size == 0:
                    continue
                j = int(nonzero[0])
                pivot_val = T[p, r, j]
                T[p, r, :] /= pivot_val
                bvec[p, r] /= pivot_val
                others = np.abs(T[p, :, j]) > 0.0
                others[r] = False
                factors = T[p, others, j]
                T[p, others, :] -= factors[:, None] * T[p, r, :]
                bvec[p, others] -= factors * bvec[p, r]
                basis[p, r] = j

    phase2_c = np.zeros((B, total))
    phase2_c[:, :nvar] = c
    blocked = np.zeros(total, dtype=bool)
    blocked[art_lo:] = True
    running = np.nonzero(statuses == "optimal")[0]
    if running.size:
        statuses[running] = "running"
        work = (T[running].copy(), bvec[running].copy(), basis[running].copy())
        _simplex_core_batch(
            *work,
            phase2_c[running],
            blocked,
            running,
            T,
            bvec,
            basis,
            statuses,
            iterations,
            max_iterations,
        )
        if np.any(statuses == "running"):  # pragma: no cover - core always resolves
            raise SolverError("phase-2 batched simplex failed")

    x_full = np.zeros((B, total))
    np.put_along_axis(x_full, basis, bvec, axis=1)
    x = x_full[:, :nvar]
    statuses[(statuses == "optimal") & (_primal_residual(*constraints, x, m_ub) > _INFEAS_TOL)] = "inaccurate"
    objectives = np.einsum("bv,bv->b", c, x)
    optimal = statuses == "optimal"
    x[~optimal] = 0.0
    objectives = np.where(optimal, objectives, np.where(statuses == "unbounded", -np.inf, np.nan))
    return BatchLinearProgramResult(
        x=x, objectives=objectives, statuses=statuses, iterations=iterations
    )

