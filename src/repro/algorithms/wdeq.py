"""WDEQ — Weighted Dynamic EQuipartition (Section III, Algorithm 1).

WDEQ is a *non-clairvoyant* online algorithm: it never looks at the task
volumes, it only reshares the platform whenever a task completes.  The share
of task ``i`` is proportional to its weight, except that tasks whose
proportional share would exceed their cap ``delta_i`` are clamped to
``delta_i`` and the excess capacity is redistributed among the others
(recursively, exactly as in Algorithm 1 of the paper).

Theorem 4 proves WDEQ is a 2-approximation for the weighted sum of
completion times; experiment E5 measures the ratio empirically.

This module provides

* :func:`wdeq_allocation` — the static sharing rule of Algorithm 1,
* :func:`wdeq_schedule` — the execution of the online algorithm as a column
  schedule,
* :func:`deq_schedule` — the unweighted special case DEQ (Deng et al.,
  reference [13]),
* :func:`weighted_round_robin_schedule` — the single-processor weighted
  round-robin baseline (Kim & Chwa, reference [14]).

The schedules are not computed here: the event engine of
:mod:`repro.simulation` runs :func:`wdeq_allocation` (revealing the volumes
only through completion events) and :func:`wdeq_schedule` converts its
execution to columns.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.conversion import continuous_to_column
from repro.core.exceptions import InvalidInstanceError
from repro.core.instance import Instance
from repro.core.schedule import ColumnSchedule

__all__ = [
    "wdeq_allocation",
    "wdeq_schedule",
    "deq_schedule",
    "weighted_round_robin_schedule",
]


def wdeq_allocation(
    P: float,
    weights: Sequence[float],
    deltas: Sequence[float],
    atol: float = 1e-12,
) -> np.ndarray:
    """The WDEQ sharing rule (Algorithm 1) for one set of active tasks.

    Returns the number of processors allocated to each active task:
    repeatedly, every task whose proportional share ``w_i * P_rem / W_rem``
    would exceed its cap is given exactly ``delta_i`` and removed from the
    pool; the remaining tasks share the remaining capacity in proportion to
    their weights.

    The repetition is computed in closed form.  Clamping removes less
    capacity than the clamped tasks' proportional shares, so the ratio
    ``P_rem / W_rem`` only grows and the clamped tasks are a prefix of the
    tasks sorted by ``delta_i / w_i``: the first task of that order whose
    cap covers its share at the ratio left by the tasks before it ends the
    prefix.  One sort and two cumulative sums replace the rounds.  The
    rounds stop as soon as the weight left to share is at most ``atol``, and
    the tasks still unclamped then get nothing; so the prefix also ends at
    the first task from which on the weight is that small.  The two forms
    can still pick different tasks to starve when several tasks weigh about
    ``atol``: the rounds clamp them a round at a time and track the weight
    left by subtraction, which has lost its digits at that scale.

    Zero-weight tasks are not supported (their proportional share is zero, so
    the online algorithm would never complete them); the caller is expected
    to filter them out or assign a small positive weight.
    """
    w = np.asarray(weights, dtype=float)
    d = np.asarray(deltas, dtype=float)
    if w.shape != d.shape:
        raise InvalidInstanceError("weights and deltas must have the same length")
    if (w <= 0).any():
        raise InvalidInstanceError("WDEQ requires strictly positive weights")
    alloc = np.zeros(w.size)
    if w.size == 0:
        return alloc
    order = np.argsort(d / w, kind="stable")
    ws, ds = w[order], d[order]
    # Clamping the first k tasks of the order leaves free[k] processors to
    # the weight rest[k] of the others.
    free = P - (np.cumsum(ds) - ds)
    rest = np.cumsum(ws[::-1])[::-1]
    ratio = free / rest
    fits = (ds >= ws * ratio - atol) | (rest <= atol)
    k = int(fits.argmax()) if fits.any() else w.size
    alloc[order[:k]] = ds[:k]
    if k < w.size and free[k] > atol and rest[k] > atol:
        alloc[order[k:]] = ws[k:] * ratio[k]
    return alloc


def wdeq_schedule(instance: Instance) -> ColumnSchedule:
    """Simulate WDEQ on an instance and return the resulting column schedule.

    Runs :class:`~repro.simulation.policies.WdeqPolicy` on the event engine
    :func:`repro.simulation.engine.simulate` and averages the execution per
    column (:func:`repro.core.conversion.continuous_to_column`).  WDEQ only
    reshares at completions, so its rates are constant inside each column;
    zero-length columns appear when several tasks complete simultaneously.
    """
    if instance.n == 0:
        return ColumnSchedule(instance, [], [], np.zeros((0, 0)))
    # Imported here: repro.simulation.policies imports this module.
    from repro.simulation.engine import simulate
    from repro.simulation.policies import WdeqPolicy

    return continuous_to_column(simulate(instance, WdeqPolicy()).schedule)


def deq_schedule(instance: Instance) -> ColumnSchedule:
    """DEQ (Deng et al., reference [13]): WDEQ with all weights equal.

    The schedule ignores the instance weights when sharing but the returned
    schedule still reports the weighted objective of the original instance,
    so DEQ can be used as a baseline for the weighted problem.
    """
    unweighted = Instance(
        P=instance.P,
        tasks=[
            type(t)(volume=t.volume, weight=1.0, delta=t.delta, name=t.name)
            for t in instance.tasks
        ],
    )
    sched = wdeq_schedule(unweighted)
    # Re-attach the original instance so objective values use the true weights.
    return ColumnSchedule(instance, sched.order, sched.completion_times, sched.rates)


def weighted_round_robin_schedule(instance: Instance) -> ColumnSchedule:
    """Weighted Round-Robin on a single processor (Kim & Chwa, reference [14]).

    Every task is restricted to ``delta_i' = min(delta_i, P)`` but the
    platform behaves as a single resource of speed ``P`` shared in proportion
    to the weights, *ignoring* the caps: this is the algorithm the paper
    cites as the 2-approximation for the ``delta_i = P`` row of Table I.  It
    is only a valid malleable schedule when no cap is exceeded, i.e. when
    ``w_i P / W <= delta_i`` for all i at all times; otherwise it serves as
    an (infeasible) baseline value in the comparisons.
    """
    n = instance.n
    if n == 0:
        return ColumnSchedule(instance, [], [], np.zeros((0, 0)))
    relaxed = Instance(
        P=instance.P,
        tasks=[
            type(t)(volume=t.volume, weight=t.weight, delta=instance.P, name=t.name)
            for t in instance.tasks
        ],
    )
    sched = wdeq_schedule(relaxed)
    return ColumnSchedule(instance, sched.order, sched.completion_times, sched.rates)
