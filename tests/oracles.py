"""Brute-force exact optimum: the test oracle for every batched OPT path.

OPT(I) is the minimum of the Corollary 1 LP over all completion orderings.
Here each ordering's LP is built in task space and solved by HiGHS through
:func:`repro.lp.interface.solve_ordered_relaxation`, so the oracle shares
no code with :func:`repro.lp.batch.build_ordered_lp_batch`, the lockstep
simplex or the branch-and-bound of :mod:`repro.lp.exact`.  It is
factorial in ``n``; keep its instances small (``n <= 5``).

:func:`tail_completion_floors_loop` is the reference of the search's
closed-form tail floors (:func:`repro.lp.exact._tail_completion_floors`):
the same density floors, one window and one height prefix at a time.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.instance import Instance
from repro.core.schedule import ColumnSchedule
from repro.lp.interface import solve_ordered_relaxation


def bruteforce_optimum(instance: Instance) -> tuple[float, tuple[int, ...]]:
    """``(OPT, a minimising ordering)`` over ``itertools.permutations``."""
    return min(
        (solve_ordered_relaxation(instance, order, build_schedule=False).objective, order)
        for order in itertools.permutations(range(instance.n))
    )


def bruteforce_opt(instance: Instance) -> float:
    """The optimal weighted completion time."""
    return bruteforce_optimum(instance)[0]


def bruteforce_schedule(instance: Instance) -> ColumnSchedule:
    """An optimal schedule: the LP of the minimising ordering."""
    return solve_ordered_relaxation(instance, bruteforce_optimum(instance)[1]).schedule


def tail_completion_floors_loop(P, volumes, heights, deltas, front, tail_orders, V_S, D_S):
    """Tail completion floors, shape ``(C, m)``, one window and one prefix at a time.

    For each tail position ``p``: the density ``V(T) / min(P, delta(T))``
    of every contiguous window ``start .. p`` of the pseudo positions (the
    front is position 0), then of every height-descending prefix of the
    tasks completing by ``p``; finally a running maximum over ``p``.
    """
    C, m = tail_orders.shape
    rows = np.arange(C)
    gather = rows[:, None]
    v_t = volumes[gather, tail_orders]
    d_t = deltas[gather, tail_orders]
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
    v_h = volumes[gather, height_order]
    d_h = deltas[gather, height_order]
    member_h = front[gather, height_order]
    rank = np.empty_like(height_order)
    rank[gather, height_order] = np.arange(height_order.shape[1])
    tail_rank = rank[gather, tail_orders]
    for p in range(1, m + 1):
        member_h[rows, tail_rank[:, p - 1]] = True
        cv = np.cumsum(np.where(member_h, v_h, 0.0), axis=1)
        cd = np.minimum(P[:, None], np.cumsum(np.where(member_h, d_h, 0.0), axis=1))
        ratio = (cv / np.maximum(cd, 1e-300)).max(axis=1)
        t[:, p - 1] = np.maximum(t[:, p - 1], ratio)
    return np.maximum.accumulate(t, axis=1)
