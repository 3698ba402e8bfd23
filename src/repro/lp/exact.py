"""Fast exact-OPT engine: branch-and-bound over completion suffixes.

The exact optimum of MWCT-CB-F is ``min over orderings pi of LP(I, pi)``
(Corollary 1).  The historical path enumerates all ``n!`` orderings — which
caps the exact experiments at toy sizes.  This module replaces the
enumeration with a bitmask-keyed branch-and-bound that fixes the ordering
from the **end**, after settling in closed form the rows that need none:

* Rows whose caps fit the platform (``sum(delta) <= P``, an exact test)
  need no search.  Every task can run at its cap from ``t = 0``, which
  meets the height floor ``C_i >= V_i / delta_i`` of Lemma 1 for every task
  at once, so ``OPT = sum w_i V_i / delta_i`` and the tasks complete in
  height order.  Only the other rows enter the search below.
* A search node fixes the *last* ``m`` completions (the ordered tail),
  keyed by the tail's task bitmask.  Branching from the end is what makes
  the bounds bite: the largest completion times carry the dominant
  objective terms, and with the tail order fixed they are pinned almost
  exactly by closed-form density floors — every set ``T`` of tasks
  completing by tail position ``p`` forces ``C_p >= V(T) / min(P,
  delta(T))`` (:func:`_tail_completion_floors`).
* Incumbents come only from the paper's Algorithm 3
  (:func:`repro.algorithms.greedy.greedy_completion_times_batch`): they
  are seeded with the schedules of a few heuristic orderings and refreshed
  at each depth by completing every child tail heuristically.  The seeds
  and the depth-1 refresh need no incumbent, so they share one kernel
  call; each deeper depth and the leaves add one.
* The search is depth-synchronous: each depth expands the whole frontier at
  once and bounds every child with pure array arithmetic — **no LP is
  solved at interior nodes**.  Children whose bound cannot beat their row's
  incumbent are discarded.
* Leaves (complete orderings) are pruned by the same closed-form floors
  against incumbents tightened by the Algorithm 3 values of the leaves.
  The surviving band pays an exact LP solve, in ascending-bound chunks so
  each chunk's discoveries retroactively prune the rest.  These leaf LPs
  are the only LPs of the search; a row whose leaves are all pruned ends
  on a greedy value and solves none.

A greedy value is a feasible schedule's value, so it bounds the LP of the
schedule's *completion* order (the stable argsort of its completion times)
from above; it enters an incumbent together with that order, never with
the placement order, whose LP can be far higher.  By Corollary 1 the
search stays exact: when it ends on a greedy value ``G``, every leaf whose
LP could beat ``G`` by more than the pruning margin was solved, so ``G``
is OPT within that margin, and so is the LP of the returned order, which
lies between OPT and ``G``.

Every exact LP of the package — the leaves here, and every row of
:func:`repro.lp.batch.solve_ordered_relaxation_batch` — is solved by one
rule, :func:`solve_ordered_lps`: the problem size picks the solver.  A
stack of at most :data:`_LOCKSTEP_MAX_TASKS` tasks goes through one lockstep
solve (:func:`repro.lp.simplex.solve_linear_program_batch`); a larger one
through one block-diagonal HiGHS solve of the whole stack
(:func:`repro.lp.scipy_backend.solve_block_diagonal`), one per shard when an
off-process execution context is given.

Against the ``n!`` enumeration this drops the LP count by three to five
orders of magnitude (a few hundred LPs instead of 3.6M at ``n = 10``).  On
``cluster_instances`` that raises the practical exact ceiling from ``n = 7``
to ``n ~ 12-14``; other families are harder: a ``uniform_instances`` row
at ``n = 9`` averages about 12 s.  Worst-case behaviour is still
exponential: instances whose cap spread makes many orderings near-ties (for
example one task with ``delta ~ 0`` dominating the horizon) can leave large
leaf bands.

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
from repro.lp.scipy_backend import solve_block_diagonal
from repro.lp.simplex import BatchLinearProgramResult, solve_linear_program_batch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.context import ExecutionContext
    from repro.lp.batch import BatchedOrderedLP

__all__ = [
    "MAX_BRANCH_AND_BOUND_TASKS",
    "ExactSearchStats",
    "permutation_table",
    "branch_and_bound_optimal_batch",
    "solve_ordered_lps",
]

#: Guard on the practical exact ceiling.  Branch-and-bound solves
#: ``cluster_instances`` rows of ``n = 12 .. 14`` in seconds where
#: enumeration would need ``10^8+`` LPs, but other families reach seconds
#: much sooner (a ``uniform_instances`` row at ``n = 9`` averages about 12 s)
#: and the worst case is exponential, hence a deliberate opt-out.
MAX_BRANCH_AND_BOUND_TASKS = 14

#: LPs per :func:`solve_ordered_lps` call.  Leaves are solved in
#: ascending-bound chunks of this size and each chunk's values prune the
#: rest, so a small chunk proves a row sooner.  It also bounds a lockstep
#: stack's dense tableau memory and the size of a block-diagonal HiGHS LP,
#: whose cost per block grows with the block count (``uniform_instances``
#: at ``n = 10``: 1.0 ms per LP in a 64-LP block, 2.1 ms in a 1 024-LP one).
#: On ``cluster_instances`` (2 CPUs) 64 instead of 1024 cut the LPs
#: 3 207 -> 2 118 at ``B = 64, n = 10`` and 262 -> 90 on one ``n = 12``
#: instance.
_LP_CHUNK = 64

#: Largest task count solved with the lockstep dense simplex
#: (:func:`solve_ordered_lps`); larger stacks take one block-diagonal HiGHS
#: solve.  Both amortise a per-call cost across the stack: the lockstep
#: kernel the interpreter, the block solve HiGHS's set-up.  On stacks of 1,
#: 8 and 64 leaf LPs captured from ``cluster_instances`` searches (``P = 64``
#: and ``128``, 2 CPUs), lockstep took 1.55 / 0.37 / 0.16 ms per LP at 5
#: tasks against 1.33 / 0.45 / 0.30 for block HiGHS, 1.98 / 0.45 / 0.35
#: against 1.37 / 0.46 / 0.46 at 6 tasks, and 2.86 / 0.76 / 0.67 against
#: 1.55 / 0.56 / 0.57 at 7 tasks, and the gap widens with ``n`` (1.8
#: against 1.0 ms per LP on 64 LPs at 9 tasks).  Most leaf stacks hold one
#: or two LPs, where block HiGHS wins from 6 tasks on; the lockstep kernel
#: keeps 6 for its large stacks.  ``benchmarks/bench_lp.py`` keeps rows at 6
#: and 7 tasks; on 64 optimal-order LPs there the lockstep kernel can still
#: match block HiGHS at 7 tasks.
_LOCKSTEP_MAX_TASKS = 6

#: Rows searched together by :func:`branch_and_bound_optimal_batch`.  The
#: search's arrays grow with its rows (every live tail of every row), so a
#: task-count group is searched in blocks of this many rows; the rows are
#: independent, so blocks change no row's result.
_SEARCH_ROW_BLOCK = 1024

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
        Linear programs evaluated: one per leaf that survives the bounds
        (incumbents come from Algorithm 3 and cost none).  The enumeration
        path would have solved ``sum over rows of n!``.
    nodes_expanded:
        Tail nodes whose children were generated.
    pruned:
        Children discarded by the closed-form bound.
    frontier_peak:
        Largest number of simultaneously live tails at any depth.
    incumbent_updates:
        How often a leaf (greedy or LP value) or a refresh completion beat
        the best known value.
    floors_certified:
        Always 0: the search certifies no leaf without an LP.  Kept because
        the ``exact-opt`` benchmark reports it, until a benchmark change
        drops that metric.
    greedy_calls:
        Calls of the Algorithm 3 kernel
        (:func:`~repro.algorithms.greedy.greedy_completion_times_batch`):
        one for the seeds and the depth-1 refresh together, one per deeper
        refresh, and one for the leaves that survive their floors.
    greedy_rows:
        Placement orders those calls evaluated.

    Rows whose caps fit the platform are settled in closed form before the
    search and add nothing to any counter: no node, greedy call or LP.  So
    ``pruned`` is, by design, ``n`` lower per such row than a search of it
    would count (its depth-1 children, which the height floors prune).
    """

    lps_solved: int = 0
    nodes_expanded: int = 0
    pruned: int = 0
    frontier_peak: int = 0
    incumbent_updates: int = 0
    floors_certified: int = 0
    greedy_calls: int = 0
    greedy_rows: int = 0

    def merge(self, other: "ExactSearchStats") -> None:
        """Accumulate another group's counters into this one."""
        self.lps_solved += other.lps_solved
        self.nodes_expanded += other.nodes_expanded
        self.pruned += other.pruned
        self.frontier_peak = max(self.frontier_peak, other.frontier_peak)
        self.incumbent_updates += other.incumbent_updates
        self.floors_certified += other.floors_certified
        self.greedy_calls += other.greedy_calls
        self.greedy_rows += other.greedy_rows


# --------------------------------------------------------------------- #
# LP evaluation of complete orderings
# --------------------------------------------------------------------- #


def solve_ordered_lps(
    lp: "BatchedOrderedLP", ctx: "ExecutionContext | None" = None
) -> BatchLinearProgramResult:
    """Solve a stack of assembled position-space Corollary 1 LPs.

    The one solver rule of the LP layer: LPs of at most
    :data:`_LOCKSTEP_MAX_TASKS` tasks go through one lockstep solve
    (:func:`repro.lp.simplex.solve_linear_program_batch`), larger ones
    through one block-diagonal HiGHS solve of the stack
    (:func:`_solve_with_highs_stack`).  Both return the full variable
    vectors, so callers read times and rates back
    through :meth:`~repro.lp.batch.BatchedOrderedLP.extract_completion_times`
    and :meth:`~repro.lp.batch.BatchedOrderedLP.extract_rates` whichever
    solver ran.

    Raises
    ------
    SolverError
        If any LP is not solved to optimality — the ordered LP always has an
        optimum, so another status indicates a formulation bug.
    """
    if lp.num_column_vars <= _LOCKSTEP_MAX_TASKS:
        result = solve_linear_program_batch(lp.c, lp.A_ub, lp.b_ub, lp.A_eq, lp.b_eq)
    else:
        result = _solve_with_highs_stack(lp, ctx)
    return _require_optimal(result)


def _solve_with_highs_stack(
    lp: "BatchedOrderedLP", ctx: "ExecutionContext | None"
) -> BatchLinearProgramResult:
    """One block-diagonal HiGHS solve of the stack, one per shard over an off-process ``ctx``."""
    tensors = (lp.c, lp.A_ub, lp.b_ub, lp.A_eq, lp.b_eq)
    if ctx is None or not ctx.off_process:
        return solve_block_diagonal(*tensors)
    from repro.exec.context import chunk_ranges

    shards = [tuple(t[lo:hi] for t in tensors) for lo, hi in chunk_ranges(lp.c.shape[0], ctx.cluster().live_workers())]
    return BatchLinearProgramResult.concatenate(ctx.map(_solve_shard, shards))


def _solve_shard(tensors: "tuple[np.ndarray, ...]") -> BatchLinearProgramResult:
    """:func:`solve_block_diagonal` of one shard; module-level so it pickles."""
    return solve_block_diagonal(*tensors)


def _require_optimal(result: BatchLinearProgramResult) -> BatchLinearProgramResult:
    """``result`` itself, or :class:`SolverError` naming the first non-optimal row."""
    if not result.all_optimal:
        bad = int(np.nonzero(result.statuses != "optimal")[0][0])
        raise SolverError(
            "the Corollary 1 LP should always be solvable, got status "
            f"{result.statuses[bad]!r} for batch row {bad}"
        )
    return result


def _ordered_lp_values(
    P: np.ndarray,
    volumes: np.ndarray,
    weights: np.ndarray,
    deltas: np.ndarray,
    orders: np.ndarray,
    ctx: "ExecutionContext | None",
) -> np.ndarray:
    """Exact Corollary 1 LP values of ``C`` complete orderings, shape ``(C,)``.

    Row ``i`` of ``volumes`` / ``weights`` / ``deltas`` (shape ``(C, k)``)
    is completed in the order ``orders[i]``; the stack is assembled once and
    solved by :func:`solve_ordered_lps`.
    """
    from repro.lp.batch import build_ordered_lp_batch

    batch = InstanceBatch.from_arrays(P=P, volumes=volumes, weights=weights, deltas=deltas)
    return solve_ordered_lps(build_ordered_lp_batch(batch, orders), ctx).objectives


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
    gather = np.arange(order.shape[0])[:, None]
    v_sorted = v[gather, order]
    w_sorted = w[gather, order]
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
    w_t = weights[np.arange(C)[:, None], tail_orders]
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
    gather = np.arange(C)[:, None]
    v_t = volumes[gather, tail_orders]
    d_t = deltas[gather, tail_orders]
    cum_v = np.concatenate([V_S[:, None], v_t], axis=1).cumsum(axis=1)
    cum_d = np.concatenate([D_S[:, None], d_t], axis=1).cumsum(axis=1)
    # Windows ``start .. p`` of the pseudo positions (0 = the front), as a
    # ``(C, p, start)`` grid: ``before[:, start]`` is what precedes ``start``.
    before_v = np.concatenate([np.zeros((C, 1)), cum_v[:, :-1]], axis=1)
    before_d = np.concatenate([np.zeros((C, 1)), cum_d[:, :-1]], axis=1)
    vol = cum_v[:, 1:, None] - before_v[:, None, :]
    cap = np.minimum(P[:, None, None], cum_d[:, 1:, None] - before_d[:, None, :])
    window = np.arange(m + 1) <= np.arange(1, m + 1)[:, None]
    t = np.divide(vol, np.maximum(cap, 1e-300), out=np.zeros_like(vol), where=window).max(axis=2)
    height_order = np.argsort(-heights, axis=1)
    v_h = volumes[gather, height_order]
    d_h = deltas[gather, height_order]
    # Membership in height order after each tail position ``p``: the front,
    # plus the tail tasks placed at positions ``<= p``.
    slot = np.full(height_order.shape, m)
    slot[gather, tail_orders] = np.arange(m)
    slot_h = slot[gather, height_order]
    member_h = front[gather, height_order][:, None, :] | (slot_h[:, None, :] <= np.arange(m)[:, None])
    cv = np.cumsum(np.where(member_h, v_h[:, None, :], 0.0), axis=2)
    cd = np.minimum(P[:, None, None], np.cumsum(np.where(member_h, d_h[:, None, :], 0.0), axis=2))
    t = np.maximum(t, (cv / np.maximum(cd, 1e-300)).max(axis=2))
    return np.maximum.accumulate(t, axis=1)


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
    ctx: "ExecutionContext | None",
    chunk_size: int,
) -> "tuple[np.ndarray, np.ndarray, ExactSearchStats]":
    """Branch-and-bound over all rows of one equal-task-count group.

    Branching is *suffix-first*: depth ``m`` fixes the last ``m``
    completions.  Interior nodes are bounded purely in closed form
    (:func:`_tail_node_bounds` — no LP), every depth over the whole
    frontier at once; only the surviving leaves (complete orderings) are
    evaluated exactly, in LP chunks.  Returns
    ``(objectives, orders, stats)`` with ``orders`` of shape ``(R, n)``.

    Incumbents come from Algorithm 3.  The heuristic seeds and the depth-1
    refresh orders (each task last, the others in Smith order) depend on
    no incumbent, so one kernel call places both: the seeds fold by
    per-row argmin, then the refresh values fold like any later refresh.
    Depth ``m > 1`` refreshes its children in one call, the leaves that
    survive their floors take one more.
    """
    from repro.algorithms.greedy import greedy_completion_times_batch

    R, n = volumes.shape
    stats = ExactSearchStats()
    heights = np.where(deltas > 0, volumes / np.where(deltas > 0, deltas, 1.0), np.inf)

    def greedy(rows: np.ndarray, orders: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Algorithm 3 values of placement ``orders`` and each schedule's completion order."""
        stats.greedy_calls += 1
        stats.greedy_rows += int(rows.size)
        times = greedy_completion_times_batch(P[rows], volumes[rows], deltas[rows], orders)
        return (weights[rows] * times).sum(axis=1), np.argsort(times, axis=1, kind="stable")

    positive = weights > 0
    smith_key = np.where(positive, volumes / np.where(positive, weights, 1.0), np.inf)
    position_index = np.arange(n, dtype=np.int64)

    def completions(rows: np.ndarray, tails: np.ndarray, in_tail: np.ndarray) -> np.ndarray:
        """Placement orders completing each tail: its front in Smith order, then the tail."""
        key = smith_key[rows]
        idx = np.broadcast_to(position_index, key.shape)
        front = np.lexsort((idx, key, in_tail), axis=1)[:, : n - tails.shape[1]]
        return np.concatenate([front, tails], axis=1)

    # Seed incumbents with the Algorithm 3 schedules of heuristic orderings.
    # The depth-1 refresh orders (each task last, the rest in Smith order)
    # need no incumbent, so they share the seeds' kernel call.
    seeds = _heuristic_orders(volumes, weights, deltas)
    H = seeds.shape[1]
    first_rows = np.repeat(np.arange(R), n)
    first_last = np.tile(position_index, R)[:, None]
    values, completed = greedy(
        np.concatenate([np.repeat(np.arange(R), H), first_rows]),
        np.concatenate([
            seeds.reshape(R * H, n),
            completions(first_rows, first_last, position_index == first_last),
        ]),
    )
    best_seed = values[: R * H].reshape(R, H).argmin(axis=1) + H * np.arange(R)
    incumbent = values[best_seed]
    incumbent_order = completed[best_seed]

    def allowance(rows: np.ndarray) -> np.ndarray:
        inc = incumbent[rows]
        return inc - _PRUNE_RTOL * np.maximum(1.0, np.abs(inc))

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

    fold_incumbents(first_rows, completed[R * H :], values[R * H :])

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
            w_ordered = weights[rows_l[:, None], tails_l]
            bound = (w_ordered * floors).sum(axis=1)
            keep = bound < allowance(rows_l)
            stats.pruned += int(np.count_nonzero(~keep))
            rows_l, tails_l, bound = rows_l[keep], tails_l[keep], bound[keep]
            if rows_l.size == 0:
                break
            upper, completed = greedy(rows_l, tails_l)
            fold_incumbents(rows_l, completed, upper)
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
                stats.lps_solved += int(rows_c.size)
                values = _ordered_lp_values(
                    P[rows_c], volumes[rows_c], weights[rows_c], deltas[rows_c], tails_c, ctx
                )
                fold_incumbents(rows_c, tails_c, values)
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
        if depth > 1:
            # Tighten the incumbents from the heuristic completion of every
            # child tail (depth 1 did so with the seeds).
            tails = child_tails[:, n - depth :]
            upper, completed = greedy(child_rows, completions(child_rows, tails, in_tail))
            fold_incumbents(child_rows, completed, upper)
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
    ctx: "ExecutionContext | None" = None,
    max_tasks: int = MAX_BRANCH_AND_BOUND_TASKS,
    chunk_size: int = _LP_CHUNK,
) -> "Any":
    """Exact ``OPT(I)`` for every row of ``batch`` by branch-and-bound.

    The default of :func:`repro.lp.batch.optimal` and the drop-in
    replacement for its ``n!`` enumeration (``method="enumerate"``):
    identical objectives — property-tested for every ``n <= 7``
    batch Hypothesis finds — at a small fraction of the LP count, raising
    the practical exact ceiling on ``cluster_instances`` from ``n = 7`` to
    ``n ~ 14``.  Rows with ``sum(delta) <= P`` take their heights ``V /
    delta`` as completion times, in closed form; only the others are
    searched, in blocks of :data:`_SEARCH_ROW_BLOCK` rows per task count.

    Parameters
    ----------
    batch:
        The instances, padded into one :class:`InstanceBatch`; rows are
        grouped by task count so each group's orderings share an LP shape.
    ctx:
        Optional :class:`~repro.exec.ExecutionContext`: the leaf LPs are
        solved by :func:`solve_ordered_lps`, whose block HiGHS solves
        (above :data:`_LOCKSTEP_MAX_TASKS` tasks) shard over ``ctx.map``.
    max_tasks:
        Guard on the exponential worst case (default
        :data:`MAX_BRANCH_AND_BOUND_TASKS`).
    chunk_size:
        LPs per :func:`solve_ordered_lps` call (memory bound).

    Returns
    -------
    repro.lp.batch.BatchedOptimalResult
        With ``orderings_evaluated`` counting LPs actually solved and
        ``stats`` carrying the :class:`ExactSearchStats`.
    """
    from repro.lp.batch import BatchedOptimalResult

    counts = np.asarray(batch.counts, dtype=int)
    if (counts > max_tasks).any():
        raise InvalidInstanceError(
            f"branch-and-bound exact optimum is limited to {max_tasks} tasks per row "
            f"(got {int(counts.max())}); raise max_tasks deliberately if needed"
        )
    B, N = batch.batch_size, batch.n_max
    P = np.asarray(batch.P, dtype=float)
    masked = [np.where(batch.mask, a, 0.0) for a in (batch.volumes, batch.weights, batch.deltas)]
    objectives = np.zeros(B)
    orders = np.tile(np.arange(N, dtype=np.int64), (B, 1))
    stats = ExactSearchStats()
    for n in sorted(set(counts.tolist()) - {0}):
        # Real tasks are a row's first ``n`` slots, so every sum below runs
        # over the row's own tasks alone, whatever the batch's padding.
        group = np.nonzero(counts == n)[0]
        volumes, weights, deltas = (a[group, :n] for a in masked)
        # Caps within the platform: every task runs at its cap from t = 0,
        # which meets every height floor C_i >= V_i / delta_i at once, so
        # the heights are an optimal schedule and need no search.
        fits = deltas.sum(axis=1) <= P[group]
        heights = volumes[fits] / deltas[fits]
        objectives[group[fits]] = (weights[fits] * heights).sum(axis=1)
        orders[group[fits], :n] = np.argsort(heights, axis=1, kind="stable")
        if fits.all():
            continue
        searched = np.nonzero(~fits)[0]
        for start in range(0, searched.size, _SEARCH_ROW_BLOCK):
            local = searched[start : start + _SEARCH_ROW_BLOCK]
            rows = group[local]
            block_values, block_orders, block_stats = _search_group(
                P[rows], volumes[local], weights[local], deltas[local], ctx, chunk_size
            )
            stats.merge(block_stats)
            objectives[rows] = block_values
            orders[rows, :n] = block_orders
    return BatchedOptimalResult(
        objectives=objectives, orders=orders, orderings_evaluated=stats.lps_solved, stats=stats
    )
