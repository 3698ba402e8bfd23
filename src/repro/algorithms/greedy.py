"""Greedy schedules (Section V, Algorithm 3) and the best-greedy search.

A *greedy* schedule for an ordering ``sigma`` processes the tasks one by one:
the next task is given as much resource as possible, as early as possible
(rate ``min(delta_i, remaining capacity)`` at every instant), and the
capacity it uses is removed from the profile before the following task is
placed.  The paper proves (Theorem 11) that for homogeneous weights and
``delta_i > P/2`` *every* optimal schedule is greedy, and conjectures
(Conjecture 12) that some greedy schedule is always optimal.

:func:`greedy_completion_times` and :func:`greedy_schedule` place one order
on a :class:`CapacityProfile`: the reference, and the schedule builder.
:func:`greedy_completion_times_batch` places ``F`` orders at once; the
best-greedy search, the Section V-B ordering analysis and the exact
branch-and-bound (:mod:`repro.lp.exact`) all use it.

The best-greedy search — enumerate orderings, keep the best greedy value —
is the workhorse of experiments E1 and E4.  For larger ``n`` an exhaustive
search is impossible, so a Smith-ordering seed followed by pairwise-swap
local search is provided as well.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.exceptions import InvalidScheduleError
from repro.core.instance import Instance
from repro.core.schedule import ContinuousSchedule
from repro.algorithms.profile import CapacityProfile
from repro.lp.exact import permutation_table

__all__ = [
    "greedy_schedule",
    "greedy_completion_times",
    "greedy_completion_times_batch",
    "best_greedy_schedule",
    "BestGreedyResult",
    "local_search_greedy_schedule",
    "exhaustive_greedy_values",
]

#: Orders are scored in blocks of at most ``_BLOCK_TASKS!`` rows.
_BLOCK_TASKS = 8


def _check_order(instance: Instance, order: Sequence[int]) -> list[int]:
    order = [int(i) for i in order]
    if sorted(order) != list(range(instance.n)):
        raise InvalidScheduleError(
            f"order must be a permutation of 0..{instance.n - 1}, got {order!r}"
        )
    return order


def greedy_completion_times(instance: Instance, order: Sequence[int]) -> np.ndarray:
    """Completion times (indexed by task) of the greedy schedule for ``order``.

    Runs the capacity-profile simulation without materialising the
    allocation matrices.  It is the scalar reference that
    :func:`greedy_completion_times_batch` is tested against.
    """
    order = _check_order(instance, order)
    completions = np.zeros(instance.n)
    if instance.n == 0:
        return completions
    profile = CapacityProfile(instance.P)
    for task in order:
        result = profile.allocate_greedily(
            volume=float(instance.volumes[task]),
            delta=float(instance.deltas[task]),
        )
        completions[task] = result.completion_time
    return completions


def greedy_completion_times_batch(
    P: "float | np.ndarray",
    volumes: np.ndarray,
    deltas: np.ndarray,
    orders: np.ndarray,
) -> np.ndarray:
    """Completion times of Algorithm 3 for ``F`` placement orders at once.

    Row ``f`` places the tasks in the order ``orders[f]`` (shape ``(F, n)``)
    on ``P`` (scalar or ``(F,)``) processors; ``volumes`` and ``deltas`` are
    ``(n,)``, shared by every row, or ``(F, n)``.  Returns ``(F, n)``
    completion times indexed by task, as :func:`greedy_completion_times`.
    A zero-volume task (a padding slot) completes at ``t = 0`` and leaves
    the other tasks' times unchanged, wherever it is placed.

    Without release times the free capacity is a non-decreasing step
    function whose breakpoints are ``0`` and the completions placed so far:
    a task takes ``min(delta, free)`` from ``t = 0`` on, which lowers the
    free capacity before its completion only.  After ``j`` placements the
    profile is ``j + 1`` breakpoints, the last step (free ``P``) unbounded.

    The loop runs once per task on arrays of ``F`` rows, so on the small
    stacks of the exact search (:mod:`repro.lp.exact`) its cost is the
    fixed cost of each NumPy call, and it makes few: gathers are plain
    fancy indexing, the per-breakpoint volumes live in one reused buffer,
    and each placement builds the next profile by slice copies into a
    second pair of buffers.
    """
    orders = np.asarray(orders, dtype=np.int64)
    F, n = orders.shape
    rows = np.arange(F)
    gather = rows[:, None]
    volumes, deltas = np.asarray(volumes), np.asarray(deltas)
    v = volumes[orders] if volumes.ndim == 1 else volumes[gather, orders]
    d = deltas[orders] if deltas.ndim == 1 else deltas[gather, orders]
    # A zero-volume task finishes in step 0 with nothing left to do; its
    # rate there may be 0, so divide by 1 instead.
    zero_volume = not (v > 0).all()
    # The profile of the placed tasks, and the buffers its next version is
    # built in: each placement writes the other pair and swaps.
    times, free, next_times, next_free, done = np.zeros((5, F, n + 1))
    free[:, 0] = P
    completions = np.empty((F, n))
    positions = np.arange(n)
    for j in range(n):
        t, c = times[:, : j + 1], free[:, : j + 1]
        rate = np.minimum(d[:, j, None], c)
        # Volume done by each breakpoint t_0 = 0, t_1, ..., t_j (``done[:, 0]``
        # stays 0).
        (rate[:, :-1] * (t[:, 1:] - t[:, :-1])).cumsum(axis=1, out=done[:, 1 : j + 1])
        # The step the task finishes in: the last breakpoint it has not
        # finished by (step 0 for a zero-volume task).  For a positive
        # volume that step has a positive rate (``done`` grows on it, or it
        # is the last step, where the free capacity is ``P``).
        step = (done[:, 1 : j + 1] < v[:, j, None]).sum(axis=1)
        remaining = v[:, j] - done[rows, step]
        step_rate = rate[rows, step]
        if zero_volume:
            step_rate = np.where(remaining > 0, step_rate, 1.0)
        finish = t[rows, step] + remaining / step_rate
        completions[rows, orders[:, j]] = finish
        # Insert ``finish`` after breakpoint ``step``: earlier steps lose the
        # task's rate, the split step keeps its free capacity after ``finish``.
        before = positions[: j + 1] <= step[:, None]
        next_free[:, 1 : j + 2] = c
        np.copyto(next_free[:, : j + 1], c - rate, where=before)
        next_times[:, 1 : j + 2] = t
        np.copyto(next_times[:, : j + 1], t, where=before)
        next_times[rows, step + 1] = finish
        times, free, next_times, next_free = next_times, next_free, times, free
    return completions


def greedy_schedule(instance: Instance, order: Sequence[int]) -> ContinuousSchedule:
    """Full greedy schedule (Algorithm 3) for a given task ordering.

    Returns the exact piecewise-constant continuous schedule.  Convert with
    :meth:`~repro.core.schedule.ContinuousSchedule.to_column` to obtain the
    column-based normal form (the completion times are preserved, per
    Theorem 3).
    """
    order = _check_order(instance, order)
    n = instance.n
    if n == 0:
        return ContinuousSchedule(instance, [0.0, 1.0], np.zeros((0, 1)))
    profile = CapacityProfile(instance.P)
    allocations: dict[int, tuple[tuple[float, float, float], ...]] = {}
    for task in order:
        result = profile.allocate_greedily(
            volume=float(instance.volumes[task]),
            delta=float(instance.deltas[task]),
        )
        allocations[task] = result.pieces
    # Collect breakpoints from every allocation piece.
    points = {0.0}
    for pieces in allocations.values():
        for start, end, _ in pieces:
            points.add(float(start))
            points.add(float(end))
    breakpoints = sorted(points)
    dedup = [breakpoints[0]]
    for t in breakpoints[1:]:
        if t - dedup[-1] > 1e-12:
            dedup.append(t)
    if len(dedup) == 1:
        dedup.append(dedup[0] + 1.0)
    m = len(dedup) - 1
    rates = np.zeros((n, m))
    mids = [(dedup[k] + dedup[k + 1]) / 2 for k in range(m)]
    for task, pieces in allocations.items():
        for start, end, rate in pieces:
            for k, mid in enumerate(mids):
                if start - 1e-12 <= mid <= end + 1e-12 and dedup[k] >= start - 1e-9 and dedup[k + 1] <= end + 1e-9:
                    rates[task, k] += rate
    return ContinuousSchedule(instance, dedup, rates)


@dataclass
class BestGreedyResult:
    """Outcome of a best-greedy search.

    Attributes
    ----------
    order:
        The best ordering found.
    objective:
        Its weighted completion time.
    completion_times:
        Completion times (by task) of the best greedy schedule.
    evaluated:
        Number of orderings whose greedy value was computed.
    exhaustive:
        True when every permutation was evaluated (so the result is the exact
        best greedy value).
    """

    order: tuple[int, ...]
    objective: float
    completion_times: np.ndarray
    evaluated: int
    exhaustive: bool

    def schedule(self, instance: Instance) -> ContinuousSchedule:
        """Materialise the greedy schedule for the best ordering."""
        return greedy_schedule(instance, self.order)


def exhaustive_greedy_values(
    instance: Instance, orders: Iterable[Sequence[int]] | None = None
) -> dict[tuple[int, ...], float]:
    """Greedy objective value for every ordering in ``orders`` (default: all).

    Mainly used by the structural experiments of Section V-B, which need the
    *whole* value landscape (e.g. to verify the reversal symmetry of
    Conjecture 13), not just the best order.  The orders are evaluated by
    :func:`greedy_completion_times_batch`, at most ``8!`` per call.
    """
    if orders is None:
        blocks: Iterable[np.ndarray] = _permutation_blocks(instance.n)
    else:
        checked = [_check_order(instance, o) for o in orders]
        blocks = [np.array(checked, dtype=np.int64).reshape(len(checked), instance.n)]
    values: dict[tuple[int, ...], float] = {}
    for block in blocks:
        values.update(zip(map(tuple, block.tolist()), _greedy_values(instance, block)[0].tolist()))
    return values


def _permutation_blocks(n: int) -> Iterator[np.ndarray]:
    """All ``n!`` orders in lexicographic order, in blocks of at most ``8!`` rows.

    Beyond 8 tasks each block fixes a prefix of ``n - 8`` tasks and appends
    the cached 8-task table of the rest, so memory stays that of one block.
    """
    if n <= _BLOCK_TASKS:
        yield permutation_table(n)
        return
    tail = permutation_table(_BLOCK_TASKS)
    head = n - _BLOCK_TASKS
    for prefix in itertools.permutations(range(n), head):
        yield np.hstack([np.broadcast_to(prefix, (len(tail), head)), np.setdiff1d(np.arange(n), prefix)[tail]])


def _greedy_values(instance: Instance, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy objective values ``(F,)`` and completion times ``(F, n)`` of ``orders``."""
    completions = greedy_completion_times_batch(instance.P, instance.volumes, instance.deltas, orders)
    return completions @ instance.weights, completions


def best_greedy_schedule(
    instance: Instance,
    exhaustive_limit: int = 8,
    local_search_restarts: int = 3,
    rng: np.random.Generator | None = None,
) -> BestGreedyResult:
    """Search for the best greedy ordering.

    For ``n <= exhaustive_limit`` every permutation is evaluated (the setting
    of the paper's Conjecture 12 experiments, which use ``n <= 5``).  For
    larger instances the search falls back to
    :func:`local_search_greedy_schedule`.
    """
    if instance.n <= exhaustive_limit:
        best = BestGreedyResult((), math.inf, np.zeros(0), math.factorial(instance.n), True)
        for orders in _permutation_blocks(instance.n):
            values, completions = _greedy_values(instance, orders)
            row = int(values.argmin())
            if values[row] < best.objective:
                best.order, best.objective = tuple(int(i) for i in orders[row]), float(values[row])
                best.completion_times = completions[row]
        return best
    return local_search_greedy_schedule(
        instance, restarts=local_search_restarts, rng=rng
    )


def local_search_greedy_schedule(
    instance: Instance,
    restarts: int = 3,
    rng: np.random.Generator | None = None,
    max_passes: int = 50,
) -> BestGreedyResult:
    """Best greedy ordering by Smith seed + adjacent/pairwise swap local search.

    The first start uses Smith's ordering (non-decreasing ``V_i / w_i``),
    which the paper's conclusion singles out as the natural candidate; the
    remaining starts are random permutations.  Each start is improved by
    first-improvement pairwise swaps until a local optimum is reached.
    """
    n = instance.n
    rng = rng or np.random.default_rng(0)
    evaluated = 0

    def value_of(order: Sequence[int]) -> tuple[float, np.ndarray]:
        nonlocal evaluated
        completions = greedy_completion_times(instance, order)
        evaluated += 1
        return float(np.dot(instance.weights, completions)), completions

    seeds: list[list[int]] = [instance.smith_order()]
    for _ in range(max(restarts - 1, 0)):
        seeds.append(list(rng.permutation(n)))

    best_order: list[int] | None = None
    best_value = math.inf
    best_completions = np.zeros(n)
    for seed in seeds:
        order = list(seed)
        value, completions = value_of(order)
        improved = True
        passes = 0
        while improved and passes < max_passes:
            improved = False
            passes += 1
            for a in range(n - 1):
                for b in range(a + 1, n):
                    order[a], order[b] = order[b], order[a]
                    new_value, new_completions = value_of(order)
                    if new_value < value - 1e-12:
                        value, completions = new_value, new_completions
                        improved = True
                    else:
                        order[a], order[b] = order[b], order[a]
        if value < best_value:
            best_value = value
            best_order = list(order)
            best_completions = completions
    assert best_order is not None
    return BestGreedyResult(
        order=tuple(best_order),
        objective=best_value,
        completion_times=best_completions,
        evaluated=evaluated,
        exhaustive=False,
    )
