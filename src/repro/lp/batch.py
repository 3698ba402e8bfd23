"""Batched ordered-relaxation (Corollary 1) LP solver.

The scalar path solves one fixed-ordering LP per instance: assemble the
matrices of :func:`repro.lp.formulation.build_ordered_lp` in Python loops,
hand them to HiGHS, repeat per instance.  This module replaces that loop
for a whole :class:`~repro.core.batch.InstanceBatch`:

* **Assembly** — the LP is restated in *position space* (the task completing
  column ``p`` is "position ``p``"), where its sparsity pattern depends only
  on the padded task count ``n_max``.  One ``(B, rows, cols)`` tensor per
  constraint block is filled with pure array operations
  (:func:`build_ordered_lp_batch`); padding tasks become inert zero-volume /
  zero-weight positions at the end of the order, so every LP of the batch
  shares one exact shape and the padded optimum equals the unpadded one.
* **Solving** — the tensors go to the one ordered-LP solver rule,
  :func:`repro.lp.exact.solve_ordered_lps`: the lockstep dense simplex
  kernel :func:`repro.lp.simplex.solve_linear_program_batch` up to
  ``_LOCKSTEP_MAX_TASKS = 8`` padded tasks, one HiGHS call per row above
  (sharded over :meth:`repro.exec.ExecutionContext.map` when a context is
  given).  Times and rates are read back from the solution vectors through
  :class:`BatchedOrderedLP` whichever solver ran.

Every batched result is validated differentially against
:func:`repro.lp.interface.solve_ordered_relaxation` by the Hypothesis suite
in ``tests/test_lp_batch.py`` (objectives, completion times and reconstructed
schedules, on ragged padded batches and deliberately bad orderings).

Examples
--------
>>> import numpy as np
>>> from repro.core.batch import InstanceBatch
>>> from repro.core.instance import Instance, Task
>>> from repro.lp.batch import solve_ordered_relaxation_batch
>>> batch = InstanceBatch.from_instances([
...     Instance(P=2.0, tasks=[Task(2.0, 1.0, 1.0), Task(1.0, 2.0, 2.0)]),
...     Instance(P=1.0, tasks=[Task(1.0, 1.0, 1.0)]),
... ])
>>> solution = solve_ordered_relaxation_batch(batch)
>>> solution.objectives.shape
(2,)
>>> bool(np.all(solution.statuses == "optimal"))
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.core.batch import InstanceBatch
from repro.core.exceptions import InvalidInstanceError, InvalidScheduleError, SolverError
from repro.core.schedule import ColumnSchedule
from repro.lp.exact import (
    MAX_BRANCH_AND_BOUND_TASKS,
    permutation_table,
    solve_ordered_lps,
)
from repro.lp.formulation import ordered_lp_dimensions, position_area_layout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.context import ExecutionContext

__all__ = [
    "BatchedOrderedLP",
    "BatchedOrderedSolution",
    "BatchedOptimalResult",
    "smith_orders_batch",
    "normalize_orders",
    "build_ordered_lp_batch",
    "solve_ordered_relaxation_batch",
    "optimal",
    "OPTIMAL_METHODS",
]

#: Chunk size (LPs per solve) of the ordering enumeration in
#: :func:`optimal`; bounds tableau memory to a few tens of MB.
_ENUMERATION_CHUNK = 1024


def smith_orders_batch(batch: InstanceBatch) -> np.ndarray:
    """Per-row Smith orderings, shape ``(B, n_max)``.

    Vectorized counterpart of :meth:`repro.core.instance.Instance.smith_order`:
    tasks sorted by non-decreasing ``V_i / w_i`` with the original index as
    tie-break, padding slots after every real task.
    """
    ratios = np.where(
        batch.mask & (batch.weights > 0),
        batch.volumes / np.where(batch.weights > 0, batch.weights, 1.0),
        np.inf,
    )
    # Padding sorts after real zero-weight tasks (both have ratio inf, but
    # real tasks must come first): use the mask as the primary key.
    idx = np.broadcast_to(np.arange(batch.n_max), ratios.shape)
    keys = np.lexsort((idx, ratios, ~batch.mask), axis=1)
    return keys.astype(np.int64)


def normalize_orders(
    batch: InstanceBatch, orders: "Sequence[Sequence[int]] | np.ndarray | None"
) -> np.ndarray:
    """Validate and pad per-row completion orderings to ``(B, n_max)``.

    ``orders`` may be ``None`` (Smith ordering per row), a full ``(B,
    n_max)`` integer array of per-row permutations, or a sequence of ragged
    per-instance permutations — row ``b`` then permutes ``0 ..
    counts[b] - 1`` and the padding slots are appended automatically.  Raises
    :class:`~repro.core.exceptions.InvalidScheduleError` on anything that is
    not a permutation, mirroring the scalar builder.
    """
    B, N = batch.batch_size, batch.n_max
    if orders is None:
        return smith_orders_batch(batch)
    counts = batch.counts
    if isinstance(orders, np.ndarray) and orders.shape == (B, N):
        result = orders.astype(np.int64)
    else:
        rows = list(orders)
        if len(rows) != B:
            raise InvalidScheduleError(f"expected {B} orderings, got {len(rows)}")
        result = np.empty((B, N), dtype=np.int64)
        for b, row in enumerate(rows):
            row = [int(i) for i in row]
            n_b = int(counts[b])
            if len(row) == n_b < N:
                row = row + list(range(n_b, N))
            if len(row) != N:
                raise InvalidScheduleError(
                    f"row {b}: order must have length {n_b} (the row's task count) "
                    f"or {N} (the padded width), got {len(row)}"
                )
            result[b] = row
    sorted_rows = np.sort(result, axis=1)
    if not np.array_equal(sorted_rows, np.broadcast_to(np.arange(N), (B, N))):
        bad = int(
            np.nonzero(np.any(sorted_rows != np.arange(N), axis=1))[0][0]
        )
        raise InvalidScheduleError(
            f"row {bad}: order must be a permutation of 0..{N - 1} "
            f"(or of 0..{int(counts[bad]) - 1} for a ragged row), got {result[bad].tolist()!r}"
        )
    return result


@dataclass(frozen=True)
class BatchedOrderedLP:
    """The Corollary 1 LPs of a whole batch as padded constraint tensors.

    Attributes
    ----------
    batch:
        The instance batch the LPs were built for.
    orders:
        ``(B, n_max)`` completion orderings (``orders[b, p]`` is the task of
        row ``b`` completing column ``p``); padding tasks occupy trailing
        positions.
    c, A_ub, b_ub, A_eq, b_eq:
        Dense LP tensors with a leading batch dimension, in the position
        space of :func:`repro.lp.formulation.position_area_layout`: variables
        ``0 .. n_max - 1`` are the column end times, the rest the per-column
        areas of each position's task.
    """

    batch: InstanceBatch
    orders: np.ndarray
    c: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray

    @property
    def num_column_vars(self) -> int:
        """Number of column end-time variables (= ``n_max``)."""
        return self.batch.n_max

    @property
    def num_variables(self) -> int:
        """Total decision variables per LP."""
        return int(self.c.shape[1])

    def extract_completion_times(self, x: np.ndarray) -> np.ndarray:
        """Column end times ``C_1 <= ... <= C_n`` per row, shape ``(B, n_max)``."""
        return np.asarray(x[:, : self.num_column_vars], dtype=float)

    def extract_rates(self, x: np.ndarray, atol: float = 1e-12) -> np.ndarray:
        """Per-column rates in *task* space, shape ``(B, n_max, n_max)``.

        ``rates[b, i, j]`` is the number of processors task ``i`` of row
        ``b`` uses during column ``j`` — the same convention as the scalar
        :meth:`repro.lp.formulation.OrderedLP.extract_rates`, so the batched
        solution reconstructs identical :class:`ColumnSchedule` objects.
        """
        B, N = self.orders.shape
        x_index, pairs = position_area_layout(N)
        C = self.extract_completion_times(x)
        lengths = np.diff(C, axis=1, prepend=0.0)
        areas = np.zeros((B, N, N))  # position x column
        areas[:, pairs[:, 0], pairs[:, 1]] = x[:, N:]
        safe = np.where(lengths > atol, lengths, 1.0)
        pos_rates = np.where(lengths[:, None, :] > atol, areas / safe[:, None, :], 0.0)
        rates = np.zeros((B, N, N))
        rows = np.arange(B)[:, None]
        rates[rows, self.orders, :] = pos_rates
        return rates


def build_ordered_lp_batch(
    batch: InstanceBatch, orders: "Sequence[Sequence[int]] | np.ndarray | None" = None
) -> BatchedOrderedLP:
    """Assemble the Corollary 1 LPs of every row as ``(B, rows, cols)`` tensors.

    The formulation is the scalar one of
    :func:`repro.lp.formulation.build_ordered_lp` restated in position space
    (see the module docstring); padding tasks contribute inert trailing
    positions whose volume, weight — and therefore influence on the optimum —
    are zero.  ``b_ub`` is identically zero for this LP (every inequality
    compares quantities against multiples of column lengths), which the
    lockstep solver exploits: only the volume equalities need artificials.
    """
    orders = normalize_orders(batch, orders)
    B, N = orders.shape
    nvar, m_ub, m_eq = ordered_lp_dimensions(N)
    x_index, pairs = position_area_layout(N)
    P = np.asarray(batch.P, dtype=float)

    volumes_o = np.take_along_axis(np.where(batch.mask, batch.volumes, 0.0), orders, axis=1)
    weights_o = np.take_along_axis(np.where(batch.mask, batch.weights, 0.0), orders, axis=1)
    deltas_o = np.take_along_axis(batch.deltas, orders, axis=1)

    c = np.zeros((B, nvar))
    c[:, :N] = weights_o

    A_ub = np.zeros((B, m_ub, nvar))
    # (a) Column ordering: C_{j-1} - C_j <= 0.
    j = np.arange(1, N)
    A_ub[:, j - 1, j - 1] = 1.0
    A_ub[:, j - 1, j] = -1.0
    # (b) Platform capacity: sum_{p >= j} x_{p,j} - P (C_j - C_{j-1}) <= 0.
    cap0 = N - 1
    j = np.arange(N)
    A_ub[:, cap0 + pairs[:, 1], x_index[pairs[:, 0], pairs[:, 1]]] = 1.0
    A_ub[:, cap0 + j, j] = -P[:, None]
    A_ub[:, cap0 + j[1:], j[1:] - 1] = P[:, None]
    # (c) Per-position cap: x_{p,j} - delta_p (C_j - C_{j-1}) <= 0.
    task0 = cap0 + N
    r = task0 + np.arange(pairs.shape[0])
    A_ub[:, r, x_index[pairs[:, 0], pairs[:, 1]]] = 1.0
    A_ub[:, r, pairs[:, 1]] = -deltas_o[:, pairs[:, 0]]
    nonfirst = pairs[:, 1] > 0
    A_ub[:, r[nonfirst], pairs[nonfirst, 1] - 1] = deltas_o[:, pairs[nonfirst, 0]]
    b_ub = np.zeros((B, m_ub))

    # (d) Volume conservation: sum_{j <= p} x_{p,j} = V_p.
    A_eq = np.zeros((B, m_eq, nvar))
    A_eq[:, pairs[:, 0], x_index[pairs[:, 0], pairs[:, 1]]] = 1.0
    b_eq = volumes_o.copy()

    return BatchedOrderedLP(
        batch=batch, orders=orders, c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq
    )


@dataclass
class BatchedOrderedSolution:
    """Solutions of the ordered relaxation for every row of a batch.

    Attributes
    ----------
    batch:
        The instance batch that was solved.
    orders:
        ``(B, n_max)`` orderings actually solved.
    objectives:
        ``(B,)`` optimal weighted completion times.
    completion_times:
        ``(B, n_max)`` column end times (position space, non-decreasing).
    mask:
        ``(B, n_max)`` real-task mask of the solved batch, used to keep
        padding slots at zero in :meth:`completion_times_by_task`.
    statuses, iterations:
        Per-problem solver status (always ``"optimal"`` for this LP) and
        iteration counts (lockstep pivots, or HiGHS iterations).
    lp:
        The batched LP tensors that were solved (``None`` on the deprecated
        task-space ``backend="scipy"`` path).
    """

    batch: InstanceBatch
    orders: np.ndarray
    objectives: np.ndarray
    completion_times: np.ndarray
    mask: np.ndarray
    statuses: np.ndarray
    iterations: np.ndarray
    lp: BatchedOrderedLP | None
    _rates: np.ndarray | None = None

    @property
    def batch_size(self) -> int:
        """Number of solved LPs."""
        return int(self.objectives.shape[0])

    def completion_times_by_task(self) -> np.ndarray:
        """Per-task completion times, shape ``(B, n_max)`` (padding slots 0).

        ``result[b, i]`` is the completion time of task ``i`` of row ``b`` —
        the transport of :attr:`completion_times` from position space back
        through :attr:`orders`, directly comparable with the scalar
        ``solution.completion_times[position_of_task]``.
        """
        B, N = self.orders.shape
        out = np.zeros((B, N))
        rows = np.arange(B)[:, None]
        out[rows, self.orders] = self.completion_times
        return np.where(self.mask, out, 0.0)

    def schedules(self, instances: "Sequence[Any] | None" = None) -> list[ColumnSchedule]:
        """Materialise one :class:`ColumnSchedule` per row.

        Requires the per-column rate tensors, which are only materialised
        when the solve was asked for them — pass
        ``build_schedules=True`` to :func:`solve_ordered_relaxation_batch`.
        ``instances`` defaults to unpacking the batch; pass the original
        list to preserve task names.
        """
        if self._rates is None:
            raise SolverError(
                "rates were not materialised; solve with build_schedules=True "
                "to reconstruct schedules"
            )
        if instances is None:
            instances = self.batch.to_instances()
        counts = self.batch.counts
        result = []
        for b, inst in enumerate(instances):
            n = int(counts[b])
            order = tuple(int(t) for t in self.orders[b, :n])
            C = self.completion_times[b, :n]
            rates = self._rates[b, :n, :n]
            result.append(ColumnSchedule(inst, order, C, rates))
        return result


def solve_ordered_relaxation_batch(
    batch: InstanceBatch,
    orders: "Sequence[Sequence[int]] | np.ndarray | None" = None,
    ctx: "ExecutionContext | None" = None,
    build_schedules: bool = False,
    *,
    backend: "str | None" = None,
) -> BatchedOrderedSolution:
    """Solve the Corollary 1 LP of every row of ``batch`` under ``orders``.

    The padded tensors are assembled once (:func:`build_ordered_lp_batch`)
    and solved by :func:`repro.lp.exact.solve_ordered_lps`: the batch's
    padded task count picks the lockstep kernel (at most 8 tasks) or one
    HiGHS call per row.

    Parameters
    ----------
    batch:
        The instances, padded into one :class:`InstanceBatch`.
    orders:
        Per-row completion orderings (see :func:`normalize_orders`); the
        Smith ordering of every row when omitted.
    ctx:
        Optional :class:`~repro.exec.ExecutionContext`; an off-process
        context shards the HiGHS solves over its worker nodes.
    build_schedules:
        Materialise the rate tensors so :meth:`BatchedOrderedSolution.schedules`
        works.
    backend:
        Deprecated.  ``"scipy"`` solves every row with the task-space
        reference :func:`repro.lp.interface.solve_ordered_relaxation`, which
        builds its LP without :func:`build_ordered_lp_batch` — the
        independent check of the ``exact-opt`` benchmark passes it;
        ``None`` and ``"batch"`` apply the size rule.  It goes with the next
        benchmark change.

    Raises
    ------
    SolverError
        If any LP fails to reach optimality — the ordered relaxation always
        has an optimum, so a non-optimal status indicates a formulation bug —
        or on an unknown ``backend``.
    """
    if backend not in (None, "batch", "scipy"):
        raise SolverError(f"unknown batched LP backend {backend!r}; the problem size picks the solver")
    orders = normalize_orders(batch, orders)
    if backend == "scipy":
        return _solve_rows_task_space(batch, orders, build_schedules)
    lp = build_ordered_lp_batch(batch, orders)
    result = solve_ordered_lps(lp, ctx)
    return BatchedOrderedSolution(
        batch=batch,
        orders=orders,
        objectives=result.objectives,
        completion_times=lp.extract_completion_times(result.x),
        mask=batch.mask,
        statuses=result.statuses,
        iterations=result.iterations,
        lp=lp,
        _rates=lp.extract_rates(result.x) if build_schedules else None,
    )


def _solve_rows_task_space(
    batch: InstanceBatch, orders: np.ndarray, build_schedules: bool
) -> BatchedOrderedSolution:
    """Solve row ``b`` under ``orders[b, :counts[b]]`` with the task-space reference.

    Each LP comes from :func:`repro.lp.formulation.build_ordered_lp`, not
    from the position-space tensors, so a fault in
    :func:`build_ordered_lp_batch` makes these values disagree with the
    size-rule path.  Times and rates come from the same solve per row.
    """
    from repro.lp.interface import solve_ordered_relaxation

    B, N = orders.shape
    objectives = np.zeros(B)
    completion = np.zeros((B, N))
    iterations = np.zeros(B, dtype=np.int64)
    rates = np.zeros((B, N, N)) if build_schedules else None
    for b in range(B):
        n = int(batch.counts[b])
        solution = solve_ordered_relaxation(
            batch.instance(b), orders[b, :n].tolist(), build_schedule=build_schedules
        )
        objectives[b] = solution.objective
        iterations[b] = solution.result.iterations
        if n:
            completion[b, :n] = solution.completion_times
            completion[b, n:] = completion[b, n - 1]  # padding columns end with the last real one
        if rates is not None and solution.schedule is not None:
            rates[b, :n, :n] = solution.schedule.rates
    return BatchedOrderedSolution(
        batch=batch,
        orders=orders,
        objectives=objectives,
        completion_times=completion,
        mask=batch.mask,
        statuses=np.full(B, "optimal", dtype=object),
        iterations=iterations,
        lp=None,
        _rates=rates,
    )


@dataclass(frozen=True)
class BatchedOptimalResult:
    """Exact optima of a batch of instances.

    Attributes
    ----------
    objectives:
        ``(B,)`` optimal weighted completion times.
    orders:
        ``(B, n_max)`` an ordering achieving each optimum (padding last).
    orderings_evaluated:
        Total LPs solved — all ``n!`` per row for the enumeration method,
        the (far smaller) number of prefix/leaf evaluations for
        branch-and-bound.
    stats:
        The :class:`repro.lp.exact.ExactSearchStats` of a branch-and-bound
        search (``None`` for the enumeration method).
    """

    objectives: np.ndarray
    orders: np.ndarray
    orderings_evaluated: int
    stats: "Any | None" = None


#: Guard defaults per exact method: enumeration is factorial (7 tasks is
#: already 5 040 LPs per row), branch-and-bound prunes its way to ~14.
_EXACT_METHOD_GUARDS = {"branch-and-bound": MAX_BRANCH_AND_BOUND_TASKS, "enumerate": 7}

#: The methods :func:`optimal` understands — the single ``method=``
#: vocabulary for exact optima everywhere in the package.
OPTIMAL_METHODS = tuple(_EXACT_METHOD_GUARDS)


def optimal(
    batch: InstanceBatch,
    method: str = "branch-and-bound",
    ctx: "ExecutionContext | None" = None,
    max_tasks: "int | None" = None,
    chunk_size: "int | None" = None,
) -> BatchedOptimalResult:
    """Exact ``OPT(I)`` for every row of a batch — the one entry point.

    One ``method=`` vocabulary (:data:`OPTIMAL_METHODS`) selects the
    search:

    ``"branch-and-bound"`` (default)
        The suffix-first search of
        :func:`repro.lp.exact.branch_and_bound_optimal_batch`, pruning with
        closed-form bounds and no memo (see "No dominance" in
        :mod:`repro.lp.exact`): identical values (property-tested against
        enumeration for every ``n <= 7`` batch Hypothesis produces) at a
        small fraction of the LP count, raising the practical ceiling to
        ``max_tasks = 14``.
    ``"enumerate"``
        The exhaustive path: rows are grouped by task count, each group's
        ``n!`` orderings are replicated against its rows, and the resulting
        LPs are solved in chunks of at most ``chunk_size``.  Kept as the
        differential reference and for callers that want every ordering's
        LP solved.

    Both methods solve their LPs through
    :func:`repro.lp.exact.solve_ordered_lps` (the lockstep kernel up to 8
    tasks, HiGHS above); ``ctx`` shards the HiGHS solves of an off-process
    context over its workers.
    ``chunk_size`` is the LPs per solve; left ``None``, each method takes
    its own default (64 for branch-and-bound, whose leaf chunks prune each
    other, 1024 for enumeration).  ``max_tasks`` guards the exponential
    blow-up; it defaults to 14 for branch-and-bound and 7 for enumeration —
    raise it deliberately if you know what you are asking for.
    """
    if method == "branch-and-bound":
        from repro.lp.exact import _LP_CHUNK, branch_and_bound_optimal_batch

        return branch_and_bound_optimal_batch(
            batch,
            ctx=ctx,
            max_tasks=max_tasks if max_tasks is not None else _EXACT_METHOD_GUARDS[method],
            chunk_size=chunk_size or _LP_CHUNK,
        )
    if method != "enumerate":
        raise SolverError(
            f"unknown exact method {method!r}; expected one of {OPTIMAL_METHODS}"
        )
    max_tasks = max_tasks if max_tasks is not None else _EXACT_METHOD_GUARDS[method]
    counts = np.asarray(batch.counts, dtype=int)
    if np.any(counts > max_tasks):
        raise InvalidInstanceError(
            f"batched brute-force optimum is limited to {max_tasks} tasks per row "
            f"(got {int(counts.max())}); raise max_tasks deliberately if needed"
        )
    B, N = batch.batch_size, batch.n_max
    best = np.full(B, np.inf)
    best_orders = np.zeros((B, N), dtype=np.int64)
    evaluated = 0
    pad_tail = np.arange(N)
    for n in sorted(set(int(c) for c in counts)):
        rows = np.nonzero(counts == n)[0]
        perms = permutation_table(n)
        if n == 0:
            best[rows] = 0.0
            best_orders[rows] = pad_tail
            continue
        num_perms = perms.shape[0]
        rows_per_chunk = max(1, (chunk_size or _ENUMERATION_CHUNK) // num_perms)
        for start in range(0, rows.size, rows_per_chunk):
            sub = rows[start : start + rows_per_chunk]
            R = sub.size
            rep = np.repeat(sub, num_perms)
            rep_batch = InstanceBatch.from_arrays(
                P=batch.P[rep],
                volumes=batch.volumes[rep],
                weights=batch.weights[rep],
                deltas=batch.deltas[rep],
                mask=batch.mask[rep],
            )
            rep_orders = np.empty((R * num_perms, N), dtype=np.int64)
            rep_orders[:, :n] = np.tile(perms, (R, 1))
            rep_orders[:, n:] = pad_tail[n:]
            solution = solve_ordered_relaxation_batch(rep_batch, rep_orders, ctx=ctx)
            objectives = solution.objectives.reshape(R, num_perms)
            evaluated += R * num_perms
            arg = objectives.argmin(axis=1)
            values = objectives[np.arange(R), arg]
            improved = values < best[sub]
            best[sub] = np.where(improved, values, best[sub])
            winners = rep_orders.reshape(R, num_perms, N)[np.arange(R), arg]
            best_orders[sub[improved]] = winners[improved]
    return BatchedOptimalResult(
        objectives=best, orders=best_orders, orderings_evaluated=evaluated
    )
