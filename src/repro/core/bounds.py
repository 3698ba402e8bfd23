"""Lower bounds on the optimal weighted completion time.

The approximation analysis of WDEQ (Section III) relies on two classical
lower bounds and a way to combine them:

* the **squashed area bound** ``A(I)`` (Definition 5) — the optimal value of
  the relaxation in which every ``delta_i = P``; this is single-machine
  weighted completion time with preemption, solved by Smith's rule;
* the **height bound** ``H(I)`` (Definition 6) — the optimal value of the
  relaxation with infinitely many processors, where every task simply runs
  at its own cap;
* the **mixed lower bound** (Lemma 1) — any way of splitting every task's
  volume into an "area part" and a "height part" yields the lower bound
  ``A(I[V^1]) + H(I[V^2])``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.exceptions import InvalidInstanceError
from repro.core.instance import Instance

__all__ = [
    "TIME_RTOL",
    "TIME_ATOL",
    "time_tolerance",
    "times_close",
    "time_leq",
    "squashed_area_bound",
    "height_bound",
    "mixed_lower_bound",
    "combined_lower_bound",
    "smith_rule_value",
]

# --------------------------------------------------------------------- #
# Tolerance helpers
# --------------------------------------------------------------------- #
#
# Completion times, objectives and allocations all come out of chains of
# floating-point operations (LP solves, water-filling level searches,
# cumulative sums), so they must never be compared exactly.  These helpers
# are the single place that encodes how the library compares computed
# times; the validators in :mod:`repro.core.validation` and the analysis
# modules route their comparisons through them.

#: Default relative / absolute tolerance for comparing computed times.
TIME_RTOL = 1e-9
TIME_ATOL = 1e-9


def time_tolerance(reference, rtol: float = TIME_RTOL, atol: float = TIME_ATOL):
    """Allowed deviation around ``reference``: ``atol + rtol * |reference|``."""
    return atol + rtol * np.abs(np.asarray(reference, dtype=float))


def times_close(a, b, rtol: float = TIME_RTOL, atol: float = TIME_ATOL):
    """Elementwise ``a == b`` up to tolerance (``|a - b| <= atol + rtol |b|``).

    Works on scalars and arrays; returns a bool (or bool array).  Use this
    instead of ``==`` whenever either side is a computed time or objective.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    result = np.abs(a - b) <= time_tolerance(b, rtol=rtol, atol=atol)
    return bool(result) if result.ndim == 0 else result


def time_leq(a, b, rtol: float = TIME_RTOL, atol: float = TIME_ATOL):
    """Elementwise ``a <= b`` up to tolerance (``a <= b + atol + rtol |b|``).

    Use this instead of ``<=`` whenever either side is a computed time or
    objective (e.g. classifying near-optimal orders, checking bounds).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    result = a <= b + time_tolerance(b, rtol=rtol, atol=atol)
    return bool(result) if result.ndim == 0 else result


def smith_rule_value(P: float, volumes: np.ndarray, weights: np.ndarray) -> float:
    """Optimal ``sum w_i C_i`` when tasks share a single resource of speed ``P``.

    Tasks are run one after the other in non-decreasing order of
    ``V_i / w_i`` (Smith's rule, reference [15] of the paper); with
    preemption allowed this sequencing is still optimal, so the value equals

    ``sum_i w_{(i)} * (V_{(1)} + ... + V_{(i)}) / P``

    which is exactly the squashed-area expression of Definition 5.
    """
    volumes = np.asarray(volumes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if volumes.size == 0:
        return 0.0
    ratios = np.where(weights > 0, volumes / np.where(weights > 0, weights, 1.0), np.inf)
    order = np.lexsort((np.arange(volumes.size), ratios))
    sorted_volumes = volumes[order]
    sorted_weights = weights[order]
    completion = np.cumsum(sorted_volumes) / P
    return float(np.dot(sorted_weights, completion))


def squashed_area_bound(instance: Instance) -> float:
    """The squashed area bound ``A(I)`` of Definition 5.

    Sorting the tasks so that ``V_1/w_1 <= ... <= V_n/w_n``,

    ``A(I) = sum_i (sum_{j >= i} w_j) * V_i / P``.

    This equals the optimal objective of the relaxation in which the caps
    ``delta_i`` are ignored, and is therefore a lower bound on ``OPT(I)``.
    """
    return smith_rule_value(instance.P, instance.volumes, instance.weights)


def height_bound(instance: Instance) -> float:
    """The height bound ``H(I) = sum_i w_i * V_i / delta_i`` of Definition 6.

    Each task needs at least ``h_i = V_i / delta_i`` time units regardless of
    the platform, so ``H(I)`` is the optimal objective when ``P = infinity``
    and hence a lower bound on ``OPT(I)``.
    """
    if instance.n == 0:
        return 0.0
    return float(np.dot(instance.weights, instance.heights))


def mixed_lower_bound(instance: Instance, area_fractions: Sequence[float]) -> float:
    """The mixed lower bound of Lemma 1 for a given volume split.

    ``area_fractions[i]`` is the fraction of task ``i``'s volume assigned to
    the "area part" ``V^1_i``; the remainder forms the "height part"
    ``V^2_i``.  Lemma 1 states

    ``OPT(I) >= A(I[V^1]) + H(I[V^2])``

    for *any* such split, so every call to this function returns a valid
    lower bound.
    """
    f = np.asarray(area_fractions, dtype=float)
    if f.shape != (instance.n,):
        raise InvalidInstanceError(
            f"expected {instance.n} area fractions, got shape {f.shape}"
        )
    if np.any(f < -1e-12) or np.any(f > 1 + 1e-12):
        raise InvalidInstanceError("area fractions must lie in [0, 1]")
    f = np.clip(f, 0.0, 1.0)
    v1 = instance.volumes * f
    v2 = instance.volumes * (1.0 - f)
    area_part = smith_rule_value(instance.P, v1, instance.weights)
    height_part = float(np.dot(instance.weights, v2 / instance.deltas))
    return area_part + height_part


def combined_lower_bound(instance: Instance, num_fractions: int = 5) -> float:
    """Best lower bound obtainable from the pure and a few mixed splits.

    Evaluates ``A(I)`` (all volume in the area part), ``H(I)`` (all volume in
    the height part) and ``num_fractions`` uniform intermediate splits, and
    returns the maximum.  This is the bound used as the denominator when
    measuring the empirical approximation ratio of WDEQ on instances too
    large for the exact optimum (experiment E5).
    """
    if instance.n == 0:
        return 0.0
    candidates = [squashed_area_bound(instance), height_bound(instance)]
    for k in range(1, num_fractions + 1):
        frac = k / (num_fractions + 1)
        candidates.append(mixed_lower_bound(instance, np.full(instance.n, frac)))
    return max(candidates)
