"""Fast exact-OPT engine: branch-and-bound over completion suffixes.

The exact optimum of MWCT-CB-F is ``min over orderings pi of LP(I, pi)``
(Corollary 1).  The historical path enumerates all ``n!`` orderings — which
caps the exact experiments at toy sizes.  This module replaces the
enumeration with a bitmask-keyed branch-and-bound that fixes the ordering
from the **end**:

* A search node fixes the *last* ``m`` completions (the ordered tail),
  keyed by the tail's task bitmask.  Branching from the end is what makes
  the bounds bite: the largest completion times carry the dominant
  objective terms, and with the tail order fixed they are pinned almost
  exactly by closed-form density floors — every set ``T`` of tasks
  completing by tail position ``p`` forces ``C_p >= V(T) / min(P,
  delta(T))`` (:func:`_tail_completion_floors`).
* The search is depth-synchronous: each depth expands the whole frontier at
  once and bounds every child with pure array arithmetic — **no LP is
  solved at interior nodes**.  Children whose bound cannot beat their row's
  incumbent are discarded; per-depth incumbent refreshes complete the most
  promising tails heuristically (scored by the feasible greedy values of
  :func:`_greedy_fill_values`) and evaluate one candidate per row exactly.
* Leaves (complete orderings) are pruned by the same closed-form floors
  against incumbents tightened by feasible greedy values
  (:func:`_greedy_fill_values`).  The surviving band pays an exact LP
  solve — the lockstep kernel
  (:func:`repro.lp.simplex.solve_linear_program_batch`) in chunks up to
  :data:`_LOCKSTEP_MAX_TASKS` tasks, per-LP HiGHS on the pre-assembled
  tensors above it — in ascending-bound order so each chunk's discoveries
  retroactively prune the rest.

Against the ``n!`` enumeration this drops the LP count by three to five
orders of magnitude (a few hundred LPs instead of 3.6M at ``n = 10``) and
raises the practical exact ceiling from ``n = 7`` to ``n ~ 12-14`` on
realistic workloads.  Worst-case behaviour is still exponential: instances
whose cap spread makes many orderings near-ties (for example one task with
``delta ~ 0`` dominating the horizon) can leave large leaf bands.

No dominance
------------
The intuitive rule "same subset, keep only the best value" is **not sound**
for this LP: tasks completing later may reuse leftover capacity inside the
earlier columns, so the ordering with the worse partial value can still
lead to a strictly better completion (randomised search over 5-task
instances finds violating pairs at the ~5% rate).  The search therefore
prunes only with the sound bounds above and is exact by construction —
property-tested against full enumeration in ``tests/test_exact.py``.

Examples
--------
>>> import numpy as np
>>> from repro.core.batch import InstanceBatch
>>> from repro.core.instance import Instance, Task
>>> from repro.lp.exact import branch_and_bound_optimal_batch
>>> batch = InstanceBatch.from_instances([
...     Instance(P=2.0, tasks=[Task(2.0, 1.0, 1.0), Task(1.0, 2.0, 2.0)]),
... ])
>>> result = branch_and_bound_optimal_batch(batch)
>>> result.objectives.shape
(1,)
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.batch import InstanceBatch
from repro.core.exceptions import InvalidInstanceError, SolverError
from repro.lp.simplex import solve_linear_program_batch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.context import ExecutionContext

__all__ = [
    "MAX_BRANCH_AND_BOUND_TASKS",
    "ExactSearchStats",
    "permutation_table",
    "branch_and_bound_optimal_batch",
]

#: Guard on the practical exact ceiling.  Branch-and-bound routinely solves
#: ``n = 12 .. 14`` in seconds where enumeration would need ``10^8+`` LPs,
#: but the worst case is still exponential, hence a deliberate opt-out.
MAX_BRANCH_AND_BOUND_TASKS = 14

#: LPs per lockstep solve; bounds the dense tableau memory per chunk.
_LP_CHUNK = 1024

#: Largest task count evaluated with the lockstep dense simplex on the
#: ``batch`` backend.  The lockstep kernel amortises the Python interpreter
#: across a chunk, which wins while the tableaus are small (the enumeration
#: regime it was built for); past ~8 tasks its dense Bland pivoting loses to
#: one HiGHS call per LP on the pre-assembled tensors, so larger prefixes
#: switch over automatically.
_LOCKSTEP_MAX_TASKS = 8

#: Relative pruning margin: nodes are discarded only when their lower bound
#: cannot improve the incumbent by more than this relative amount, keeping
#: the returned value within LP-noise distance of the enumerated optimum.
_PRUNE_RTOL = 1e-9


#: Largest ``n`` whose permutation table is retained by the cache — the
#: ``n = 8`` table is ~2.6MB, while ``n = 10`` would already pin ~290MB of
#: process memory for the rest of its lifetime.
_PERMUTATION_CACHE_MAX = 8


def _build_permutation_table(n: int) -> np.ndarray:
    if n == 0:
        table = np.zeros((1, 0), dtype=np.int64)
    else:
        table = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=16)
def _cached_permutation_table(n: int) -> np.ndarray:
    return _build_permutation_table(n)


def permutation_table(n: int) -> np.ndarray:
    """All permutations of ``0 .. n-1`` as a read-only ``(n!, n)`` array.

    Shared by the enumeration fallback of
    :func:`repro.lp.batch.optimal` and the vectorized ordering
    analysis of :mod:`repro.analysis.orderings`.  Small tables
    (``n <= 8``) are cached because the experiments re-enumerate the same
    sizes thousands of times; larger ones are built fresh per call so a
    single deliberate ``n = 10`` enumeration does not pin hundreds of MB
    for the process lifetime.
    """
    if n < 0:
        raise InvalidInstanceError(f"cannot enumerate permutations of {n} items")
    if n <= _PERMUTATION_CACHE_MAX:
        return _cached_permutation_table(n)
    return _build_permutation_table(n)


@dataclass
class ExactSearchStats:
    """Counters describing one branch-and-bound search.

    Attributes
    ----------
    lps_solved:
        Linear programs evaluated (heuristic seeds, per-depth incumbent
        refreshes and surviving leaves).  The enumeration path would have
        solved ``sum over rows of n!``.
    nodes_expanded:
        Tail nodes whose children were generated.
    pruned:
        Children discarded by the closed-form bound.
    frontier_peak:
        Largest number of simultaneously live tails at any depth.
    incumbent_updates:
        How often a leaf or refresh completion beat the best known value.
    floors_certified:
        Always 0: the search certifies no leaf without an LP.  Kept because
        the ``exact-opt`` benchmark reports it, until a benchmark change
        drops that metric.
    """

    lps_solved: int = 0
    nodes_expanded: int = 0
    pruned: int = 0
    frontier_peak: int = 0
    incumbent_updates: int = 0
    floors_certified: int = 0

    def merge(self, other: "ExactSearchStats") -> None:
        """Accumulate another group's counters into this one."""
        self.lps_solved += other.lps_solved
        self.nodes_expanded += other.nodes_expanded
        self.pruned += other.pruned
        self.frontier_peak = max(self.frontier_peak, other.frontier_peak)
        self.incumbent_updates += other.incumbent_updates
        self.floors_certified += other.floors_certified


# --------------------------------------------------------------------- #
# LP evaluation of complete orderings
# --------------------------------------------------------------------- #


def _solve_one_highs(payload: "tuple[Any, ...]") -> float:
    """Solve one generic LP ``(c, A_ub, b_ub, A_eq, b_eq)`` with HiGHS.

    Module-level so :meth:`ExecutionContext.map` can pickle it into worker
    processes for the ``scipy`` dispatch backend.
    """
    c, A_ub, b_ub, A_eq, b_eq = payload
    from scipy.optimize import linprog

    res = linprog(
        c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=[(0, None)] * int(np.asarray(c).size), method="highs",
    )
    if not res.success:
        raise SolverError(f"HiGHS failed on a prefix LP: {res.message}")
    return float(res.fun)


def _ordered_lp_values(
    P: np.ndarray,
    volumes: np.ndarray,
    weights: np.ndarray,
    deltas: np.ndarray,
    backend: str,
    ctx: "ExecutionContext | None",
) -> np.ndarray:
    """Exact Corollary 1 LP values of ``C`` complete orderings, shape ``(C,)``.

    ``volumes`` / ``weights`` / ``deltas`` are the tasks **already in
    completion order**, shape ``(C, k)``.  On the ``batch`` backend small
    problems go through one lockstep solve per call and larger ones through
    per-LP HiGHS on the shared pre-assembled tensors (see
    :data:`_LOCKSTEP_MAX_TASKS`); the ``scipy`` backend dispatches per-LP
    HiGHS solves, sharded over ``ctx.map`` when a context is given.
    """
    from repro.lp.batch import build_ordered_lp_batch

    C, k = volumes.shape
    ordered_batch = InstanceBatch.from_arrays(P=P, volumes=volumes, weights=weights, deltas=deltas)
    identity = np.broadcast_to(np.arange(k, dtype=np.int64), (C, k))
    lp = build_ordered_lp_batch(ordered_batch, identity)
    c, A_ub, b_ub, A_eq, b_eq = lp.c, lp.A_ub, lp.b_ub, lp.A_eq, lp.b_eq

    if backend == "batch":
        if k <= _LOCKSTEP_MAX_TASKS:
            result = solve_linear_program_batch(c, A_ub, b_ub, A_eq, b_eq)
            if not result.all_optimal:
                bad = int(np.nonzero(result.statuses != "optimal")[0][0])
                raise SolverError(
                    f"ordered LPs are always feasible and bounded, got {result.statuses[bad]!r}"
                )
            return result.objectives
        return np.array([
            _solve_one_highs((c[i], A_ub[i], b_ub[i], A_eq[i], b_eq[i])) for i in range(C)
        ])

    payloads = [(c[i], A_ub[i], b_ub[i], A_eq[i], b_eq[i]) for i in range(C)]
    if ctx is not None:
        values = ctx.map(_solve_one_highs, payloads)
    else:
        values = [_solve_one_highs(p) for p in payloads]
    return np.asarray(values, dtype=float)


# --------------------------------------------------------------------- #
# Closed-form bounds (pure array arithmetic, no LP)
# --------------------------------------------------------------------- #


def _masked_smith(
    P: np.ndarray, volumes: np.ndarray, weights: np.ndarray, member: np.ndarray, offset: np.ndarray
) -> np.ndarray:
    """Smith (squashed-area) bound of each row's ``member`` tasks, shape ``(C,)``.

    ``offset`` is added to every member completion time — the prefix-volume
    shift ``V(S)/P`` of the suffix bound (zero for the prefix bound itself).
    """
    v = np.where(member, volumes, 0.0)
    w = np.where(member, weights, 0.0)
    positive = member & (w > 0)
    ratios = np.where(positive, v / np.where(positive, w, 1.0), np.inf)
    order = np.argsort(ratios, axis=1, kind="stable")
    v_sorted = np.take_along_axis(v, order, axis=1)
    w_sorted = np.take_along_axis(w, order, axis=1)
    completion = np.cumsum(v_sorted, axis=1) / P[:, None] + offset[:, None]
    return (w_sorted * completion).sum(axis=1)


def _order_statistics_floor(
    P: np.ndarray,
    volumes: np.ndarray,
    weights: np.ndarray,
    heights: np.ndarray,
    deltas: np.ndarray,
    member: np.ndarray,
    count: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-row floors ``(a, w~)`` on the sorted completions of ``member`` tasks.

    ``a_j`` lower-bounds the ``j``-th smallest completion time among each
    row's ``member`` tasks through three order-statistics arguments, each
    valid for *every* completion order:

    * area — the ``j`` smallest member volumes must be processed by then,
      at rate at most ``P``;
    * rate — the ``j`` first-completing members' joint volume (at least the
      ``j`` smallest) is processed at rate at most the sum of the ``j``
      largest member caps;
    * height — the ``j`` first-completing members include one of height at
      least the ``j``-th smallest member height.

    A running maximum keeps ``a`` non-decreasing (sorted completions are),
    which makes ``w~`` — the member weights sorted descending — the
    assignment minimising ``sum_j w_j a_j`` over every bijection, hence
    ``(w~ * a).sum()`` a bound valid for every actual order.
    """
    v_sorted = np.sort(np.where(member, volumes, np.inf), axis=1)[:, :count]
    cum_v = np.cumsum(v_sorted, axis=1)
    d_desc = -np.sort(np.where(member, -deltas, np.inf), axis=1)[:, :count]
    cap_rate = np.minimum(P[:, None], np.cumsum(d_desc, axis=1))
    rate = cum_v / np.maximum(cap_rate, 1e-300)
    h_sorted = np.sort(np.where(member, heights, np.inf), axis=1)[:, :count]
    a = np.maximum.accumulate(np.maximum(cum_v / P[:, None], np.maximum(rate, h_sorted)), axis=1)
    w_sorted = -np.sort(np.where(member, -weights, np.inf), axis=1)[:, :count]
    return a, w_sorted


def _tail_node_bounds(
    P: np.ndarray,
    volumes: np.ndarray,
    weights: np.ndarray,
    heights: np.ndarray,
    deltas: np.ndarray,
    in_tail: np.ndarray,
    tail_orders: np.ndarray,
) -> np.ndarray:
    """Sound closed-form lower bound per tail node, shape ``(C,)``.

    A node fixes the *last* ``m`` completions (``tail_orders``, in
    completion order); the front set ``S`` completes before them in some
    yet-unknown order.  The bound is the sum of

    * a front part — every completion order of ``S`` pays at least the
      Smith bound, the height bound and the order-statistics pairing of
      :func:`_order_statistics_floor` (maximum of the three), and
    * a tail part — the task at tail position ``p`` completes no earlier
      than ``(V(S) + V(tail <= p)) / min(P, delta(S) + delta(tail <= p))``
      (all that volume is processed by then, at the joint rate of its
      owners) and no earlier than its own height, with a running maximum
      because tail completions are ordered.

    The tail volumes, caps and weights are *exact* per position (the order
    is fixed), which is what makes suffix-first branching prune so much
    harder than prefix-first: the largest completion times — the dominant
    objective terms — are bounded almost exactly.
    """
    C, m = tail_orders.shape
    front = ~in_tail
    front_count = volumes.shape[1] - m
    V_S = np.where(front, volumes, 0.0).sum(axis=1)
    D_S = np.where(front, deltas, 0.0).sum(axis=1)
    if front_count:
        a, w_sorted = _order_statistics_floor(
            P, volumes, weights, heights, deltas, front, front_count
        )
        front_bound = np.maximum(
            (w_sorted * a).sum(axis=1),
            np.maximum(
                _masked_smith(P, volumes, weights, front, np.zeros(C)),
                (np.where(front, weights * heights, 0.0)).sum(axis=1),
            ),
        )
    else:
        front_bound = np.zeros(C)
    w_t = np.take_along_axis(weights, tail_orders, axis=1)
    t = _tail_completion_floors(P, volumes, heights, deltas, front, tail_orders, V_S, D_S)
    return front_bound + (w_t * t).sum(axis=1)


def _tail_completion_floors(
    P: np.ndarray,
    volumes: np.ndarray,
    heights: np.ndarray,
    deltas: np.ndarray,
    front: np.ndarray,
    tail_orders: np.ndarray,
    V_S: np.ndarray,
    D_S: np.ndarray,
) -> np.ndarray:
    """Per-position lower bounds on the tail completion times, shape ``(C, m)``.

    Density floors: every set ``T`` of tasks completing by tail position
    ``p`` runs at joint rate at most ``min(P, delta(T))`` at all times, so
    ``C_p >= V(T) / min(P, delta(T))``.  Two ``T`` families dominate:

    * contiguous completion windows ending at ``p`` (with the whole front
      as one aggregate pseudo position) — subsume the squashed-area,
      owner-rate and height floors and see order-induced serialisation;
    * height-descending prefixes of the tasks completing by ``p`` — the
      unconstrained maximiser of ``V(T)/delta(T)`` is always such a prefix
      (adding a task raises the ratio iff its height exceeds it), and they
      see many small-cap tasks jointly saturating their caps, which no
      contiguous window can.

    A running maximum keeps the floors non-decreasing, matching the column
    ordering constraint.  On leaves (empty front) the weighted floors bound
    the leaf's ordered LP value from below, which is what prunes leaves
    before any LP is solved.
    """
    C, m = tail_orders.shape
    v_t = np.take_along_axis(volumes, tail_orders, axis=1)
    d_t = np.take_along_axis(deltas, tail_orders, axis=1)
    cum_v = np.concatenate([V_S[:, None], v_t], axis=1).cumsum(axis=1)
    cum_d = np.concatenate([D_S[:, None], d_t], axis=1).cumsum(axis=1)
    t = np.zeros((C, m))
    for p in range(1, m + 1):
        floor = np.zeros(C)
        for start in range(p + 1):
            vol = cum_v[:, p] - (cum_v[:, start - 1] if start else 0.0)
            cap = np.minimum(P, cum_d[:, p] - (cum_d[:, start - 1] if start else 0.0))
            floor = np.maximum(floor, vol / np.maximum(cap, 1e-300))
        t[:, p - 1] = floor
    height_order = np.argsort(-heights, axis=1)
    v_h = np.take_along_axis(volumes, height_order, axis=1)
    d_h = np.take_along_axis(deltas, height_order, axis=1)
    member = front.copy()
    rows_idx = np.arange(C)
    for p in range(1, m + 1):
        member[rows_idx, tail_orders[:, p - 1]] = True
        member_h = np.take_along_axis(member, height_order, axis=1)
        cv = np.cumsum(np.where(member_h, v_h, 0.0), axis=1)
        cd = np.minimum(P[:, None], np.cumsum(np.where(member_h, d_h, 0.0), axis=1))
        ratio = (cv / np.maximum(cd, 1e-300)).max(axis=1)
        t[:, p - 1] = np.maximum(t[:, p - 1], ratio)
    return np.maximum.accumulate(t, axis=1)


def _greedy_fill_values(
    P: np.ndarray,
    volumes: np.ndarray,
    weights: np.ndarray,
    deltas: np.ndarray,
    orders: np.ndarray,
) -> np.ndarray:
    """Feasible-schedule upper bounds on ``LP(order)``, shape ``(F,)``.

    A column-synchronous greedy: column ``j`` runs until the position-``j``
    task finishes, allocating capacity in completion order (the column's own
    task first, later tasks filling the leftover up to their caps).  The
    construction is feasible by definition, so its weighted completion time
    upper-bounds the ordered LP optimum — the search uses it to *pick* which
    candidate orderings are worth an exact LP evaluation, never to prune.
    """
    F, n = orders.shape
    v = np.take_along_axis(volumes, orders, axis=1)
    w = np.take_along_axis(weights, orders, axis=1)
    d = np.take_along_axis(deltas, orders, axis=1)
    remaining = v.copy()
    t = np.zeros(F)
    value = np.zeros(F)
    for j in range(n):
        rate_j = np.minimum(d[:, j], P)
        length = remaining[:, j] / np.maximum(rate_j, 1e-300)
        leftover = np.maximum(P - rate_j, 0.0)
        remaining[:, j] = 0.0
        for q in range(j + 1, n):
            rate_q = np.minimum(np.minimum(d[:, q], leftover), remaining[:, q] / np.maximum(length, 1e-300))
            remaining[:, q] = np.maximum(remaining[:, q] - rate_q * length, 0.0)
            leftover = leftover - rate_q
        t = t + length
        value = value + w[:, j] * t
    return value


# --------------------------------------------------------------------- #
# Heuristic incumbents
# --------------------------------------------------------------------- #


def _heuristic_orders(volumes: np.ndarray, weights: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Candidate full orderings per row, shape ``(R, H, n)``.

    Smith's ratio rule (conjecturally optimal on random instances —
    Conjecture 12), its reversal, and weight/volume/cap sorts: cheap seeds
    that make the very first incumbents near-optimal, which is what gives
    the bound pruning its leverage.
    """
    R, n = volumes.shape
    idx = np.broadcast_to(np.arange(n), (R, n))
    positive = weights > 0
    ratios = np.where(positive, volumes / np.where(positive, weights, 1.0), np.inf)
    smith = np.lexsort((idx, ratios), axis=1)
    candidates = [
        smith,
        smith[:, ::-1],
        np.lexsort((idx, -weights), axis=1),
        np.lexsort((idx, volumes), axis=1),
        np.lexsort((idx, deltas), axis=1),
        np.lexsort((idx, -deltas), axis=1),
    ]
    return np.stack(candidates, axis=1).astype(np.int64)


# --------------------------------------------------------------------- #
# The search
# --------------------------------------------------------------------- #


def _search_group(
    P: np.ndarray,
    volumes: np.ndarray,
    weights: np.ndarray,
    deltas: np.ndarray,
    backend: str,
    ctx: "ExecutionContext | None",
    chunk_size: int,
) -> "tuple[np.ndarray, np.ndarray, ExactSearchStats]":
    """Branch-and-bound over all rows of one equal-task-count group.

    Branching is *suffix-first*: depth ``m`` fixes the last ``m``
    completions.  Interior nodes are bounded purely in closed form
    (:func:`_tail_node_bounds` — no LP), every depth over the whole
    frontier at once; only the surviving leaves (complete orderings) are
    evaluated exactly, in lockstep LP chunks.  Returns
    ``(objectives, orders, stats)`` with ``orders`` of shape ``(R, n)``.
    """
    R, n = volumes.shape
    stats = ExactSearchStats()
    heights = np.where(deltas > 0, volumes / np.where(deltas > 0, deltas, 1.0), np.inf)

    def evaluate(rows: np.ndarray, orders: np.ndarray) -> np.ndarray:
        """Chunked exact LP values of complete orderings belonging to ``rows``."""
        values = np.empty(rows.size)
        for start in range(0, rows.size, chunk_size):
            sl = slice(start, start + chunk_size)
            r = rows[sl]
            o = orders[sl]
            values[sl] = _ordered_lp_values(
                P[r],
                np.take_along_axis(volumes[r], o, axis=1),
                np.take_along_axis(weights[r], o, axis=1),
                np.take_along_axis(deltas[r], o, axis=1),
                backend,
                ctx,
            )
        stats.lps_solved += int(rows.size)
        return values

    # Seed incumbents from heuristic full orderings (one batched solve).
    seeds = _heuristic_orders(volumes, weights, deltas)
    H = seeds.shape[1]
    seed_rows = np.repeat(np.arange(R), H)
    seed_values = evaluate(seed_rows, seeds.reshape(R * H, n)).reshape(R, H)
    best_seed = seed_values.argmin(axis=1)
    incumbent = seed_values[np.arange(R), best_seed]
    incumbent_order = seeds[np.arange(R), best_seed].copy()

    def allowance(rows: np.ndarray) -> np.ndarray:
        inc = incumbent[rows]
        return inc - _PRUNE_RTOL * np.maximum(1.0, np.abs(inc))

    positive = weights > 0
    smith_key = np.where(positive, volumes / np.where(positive, weights, 1.0), np.inf)
    position_index = np.arange(n, dtype=np.int64)

    def fold_incumbents(rows: np.ndarray, orders: np.ndarray, values: np.ndarray) -> None:
        """Fold achieved (feasible or exact) values into the incumbents."""
        for r in np.unique(rows):
            members = rows == r
            local_best = int(values[members].argmin())
            value = values[members][local_best]
            if value < incumbent[r]:
                incumbent[r] = value
                incumbent_order[r] = orders[members][local_best]
                stats.incumbent_updates += 1

    def refresh_incumbents(rows: np.ndarray, tails: np.ndarray, in_tail: np.ndarray, m: int) -> None:
        """Tighten incumbents from the most promising completions.

        Every child tail is completed heuristically (front in Smith order)
        and scored with the greedy upper bound of
        :func:`_greedy_fill_values`.  The scores are feasible-schedule
        values, so each row's minimum folds straight into the incumbent;
        the best-scoring candidate additionally gets an exact LP solve,
        keeping the incumbents close to the true optimum.
        """
        key = smith_key[rows]
        idx = np.broadcast_to(position_index, key.shape)
        front = np.lexsort((idx, key, in_tail), axis=1)[:, : n - m]
        full = np.concatenate([front, tails[:, n - m :]], axis=1)
        upper = _greedy_fill_values(P[rows], volumes[rows], weights[rows], deltas[rows], full)
        fold_incumbents(rows, full, upper)
        ranking = np.lexsort((upper, rows))
        first = np.ones(ranking.size, dtype=bool)
        first[1:] = rows[ranking][1:] != rows[ranking][:-1]
        picks = ranking[first]
        pick_rows = rows[picks]
        values = evaluate(pick_rows, full[picks])
        better = values < incumbent[pick_rows]
        stats.incumbent_updates += int(np.count_nonzero(better))
        incumbent[pick_rows[better]] = values[better]
        incumbent_order[pick_rows[better]] = full[picks][better]

    # Root frontier: one empty tail per row.  ``tails[:, n - depth:]`` holds
    # the fixed last completions, in completion order.
    frontier_rows = np.arange(R)
    frontier_masks = np.zeros(R, dtype=np.int64)
    frontier_tails = np.zeros((R, n), dtype=np.int64)
    task_bits = np.int64(1) << np.arange(n, dtype=np.int64)

    for depth in range(1, n + 1):
        if frontier_rows.size == 0:
            break
        stats.nodes_expanded += int(frontier_rows.size)
        stats.frontier_peak = max(stats.frontier_peak, int(frontier_rows.size))
        available = (frontier_masks[:, None] & task_bits) == 0
        parent_idx, task_idx = np.nonzero(available)
        child_rows = frontier_rows[parent_idx]
        child_masks = frontier_masks[parent_idx] | task_bits[task_idx]
        child_tails = frontier_tails[parent_idx].copy()
        child_tails[:, n - depth] = task_idx

        in_tail = (child_masks[:, None] & task_bits) != 0

        if depth == n:
            # Leaves: complete orderings.  Most are pruned by incumbents
            # tightened from the feasible greedy values; only the residual
            # band pays an LP, in ascending-bound chunks so each chunk's
            # discoveries prune the next retroactively.
            rows_l, tails_l = child_rows, child_tails
            zero = np.zeros(rows_l.size)
            no_front = np.zeros((rows_l.size, n), dtype=bool)
            floors = _tail_completion_floors(
                P[rows_l], volumes[rows_l], heights[rows_l], deltas[rows_l],
                no_front, tails_l, zero, zero,
            )
            w_ordered = np.take_along_axis(weights[rows_l], tails_l, axis=1)
            bound = (w_ordered * floors).sum(axis=1)
            keep = bound < allowance(rows_l)
            stats.pruned += int(np.count_nonzero(~keep))
            rows_l, tails_l, bound = rows_l[keep], tails_l[keep], bound[keep]
            if rows_l.size == 0:
                break
            upper = _greedy_fill_values(P[rows_l], volumes[rows_l], weights[rows_l], deltas[rows_l], tails_l)
            fold_incumbents(rows_l, tails_l, upper)
            ranking = np.argsort(bound, kind="stable")
            rows_l, tails_l, bound = rows_l[ranking], tails_l[ranking], bound[ranking]
            for start in range(0, rows_l.size, chunk_size):
                sl = slice(start, start + chunk_size)
                rows_c, tails_c, bound_c = rows_l[sl], tails_l[sl], bound[sl]
                live = bound_c < allowance(rows_c)
                stats.pruned += int(np.count_nonzero(~live))
                if not live.any():
                    continue
                rows_c, tails_c = rows_c[live], tails_c[live]
                fold_incumbents(rows_c, tails_c, evaluate(rows_c, tails_c))
            break

        bound = _tail_node_bounds(
            P[child_rows],
            volumes[child_rows],
            weights[child_rows],
            heights[child_rows],
            deltas[child_rows],
            in_tail,
            child_tails[:, n - depth :],
        )
        refresh_incumbents(child_rows, child_tails, in_tail, depth)
        keep = bound < allowance(child_rows)
        stats.pruned += int(np.count_nonzero(~keep))
        child_rows, child_masks, child_tails, bound = (
            child_rows[keep], child_masks[keep], child_tails[keep], bound[keep],
        )
        if child_rows.size == 0:
            break

        frontier_rows, frontier_masks, frontier_tails = child_rows, child_masks, child_tails

    return incumbent, incumbent_order, stats


def branch_and_bound_optimal_batch(
    batch: InstanceBatch,
    backend: str = "batch",
    ctx: "ExecutionContext | None" = None,
    max_tasks: int = MAX_BRANCH_AND_BOUND_TASKS,
    chunk_size: int = _LP_CHUNK,
) -> "Any":
    """Exact ``OPT(I)`` for every row of ``batch`` by branch-and-bound.

    The default of :func:`repro.lp.batch.optimal` and the drop-in
    replacement for its ``n!`` enumeration (``method="enumerate"``):
    identical objectives — property-tested for every ``n <= 7``
    batch Hypothesis finds — at a small fraction of the LP count, raising
    the practical exact ceiling from ``n = 7`` to ``n ~ 14``.

    Parameters
    ----------
    batch:
        The instances, padded into one :class:`InstanceBatch`; rows are
        grouped by task count so each group's orderings share an LP shape.
    backend:
        ``"batch"`` (default) evaluates the seed, refresh and leaf LPs with
        the lockstep simplex kernel up to :data:`_LOCKSTEP_MAX_TASKS` tasks
        and with one HiGHS call per LP above; ``"scipy"`` dispatches every
        LP to HiGHS, sharded over ``ctx.map`` when a context is given.
    ctx:
        Optional :class:`~repro.exec.ExecutionContext` for the ``scipy``
        dispatch backend.
    max_tasks:
        Guard on the exponential worst case (default
        :data:`MAX_BRANCH_AND_BOUND_TASKS`).
    chunk_size:
        LPs per lockstep solve (memory bound).

    Returns
    -------
    repro.lp.batch.BatchedOptimalResult
        With ``orderings_evaluated`` counting LPs actually solved and
        ``stats`` carrying the :class:`ExactSearchStats`.
    """
    from repro.lp.batch import BATCH_BACKENDS, BatchedOptimalResult

    if backend not in BATCH_BACKENDS:
        raise SolverError(f"unknown exact-engine backend {backend!r}; expected one of {BATCH_BACKENDS}")
    counts = np.asarray(batch.counts, dtype=int)
    if np.any(counts > max_tasks):
        raise InvalidInstanceError(
            f"branch-and-bound exact optimum is limited to {max_tasks} tasks per row "
            f"(got {int(counts.max())}); raise max_tasks deliberately if needed"
        )
    B, N = batch.batch_size, batch.n_max
    objectives = np.zeros(B)
    orders = np.broadcast_to(np.arange(N, dtype=np.int64), (B, N)).copy()
    stats = ExactSearchStats()
    for n in sorted(set(int(c) for c in counts)):
        rows = np.nonzero(counts == n)[0]
        if n == 0:
            continue
        group_values, group_orders, group_stats = _search_group(
            np.asarray(batch.P, dtype=float)[rows],
            np.where(batch.mask, batch.volumes, 0.0)[rows, :n],
            np.where(batch.mask, batch.weights, 0.0)[rows, :n],
            batch.deltas[rows, :n],
            backend,
            ctx,
            chunk_size,
        )
        stats.merge(group_stats)
        objectives[rows] = group_values
        orders[rows, :n] = group_orders
    return BatchedOptimalResult(
        objectives=objectives, orders=orders, orderings_evaluated=stats.lps_solved, stats=stats
    )
