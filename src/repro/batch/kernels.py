"""Vectorized NumPy kernels over padded batches of instances.

A batch packs ``B`` instances into dense ``(B, n_max)`` arrays, padding the
rows of smaller instances with inert tasks (zero volume, zero weight,
``mask = False``).  The kernels then replay the scalar algorithms with every
per-instance loop turned into an array operation over the whole batch, so
the Python-interpreter cost is paid once per *round* instead of once per
*instance and round*.

Semantics are kept identical to the scalar implementations in
:mod:`repro.algorithms.wdeq` and :mod:`repro.algorithms.water_filling`
(same tolerances, same tie-breaking, same numerical-rescue paths); the
property tests in ``tests/test_batch.py`` assert agreement on random padded
batches including degenerate one-task instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.batch import InstanceBatch
from repro.core.exceptions import (
    InfeasibleScheduleError,
    InvalidInstanceError,
    InvalidScheduleError,
)
from repro.core.instance import Instance

__all__ = [
    "PaddedBatch",
    "BatchWaterFilling",
    "wdeq_batch",
    "wdeq_weighted_completion_batch",
    "water_filling_batch",
    "smith_rule_batch",
    "height_bound_batch",
    "combined_lower_bound_batch",
    "lower_bound_batch",
    "wdeq_ratio_batch",
]

#: Historical name of the struct-of-arrays batch type, which now lives in
#: :mod:`repro.core.batch` so that core, workloads and the kernels all share
#: one representation.  Existing callers keep working unchanged.
PaddedBatch = InstanceBatch


def _row_sums(values: np.ndarray) -> np.ndarray:
    """Left-to-right sum of every row of a ``(B, n_max)`` array, shape ``(B,)``.

    ``values.sum(axis=1)`` switches to pairwise summation at 8 or more
    columns, so the same row can sum to a different last bit at a different
    padding width.  A running sum adds the columns in order, so trailing
    zero padding never changes a row's total: a row simulated alone, in
    another batch or in a narrower slice gets the same bits.
    """
    if values.shape[1] == 0:
        return np.zeros(values.shape[0])
    return np.cumsum(values, axis=1)[:, -1]


# --------------------------------------------------------------------- #
# WDEQ
# --------------------------------------------------------------------- #


def _wdeq_allocation_batch(
    P: np.ndarray,
    weights: np.ndarray,
    deltas: np.ndarray,
    active: np.ndarray,
    atol: float,
) -> np.ndarray:
    """Algorithm 1 (the WDEQ sharing rule) applied to every row at once.

    Computes the fixed point of the closed-form
    :func:`repro.algorithms.wdeq.wdeq_allocation` by rounds, as Algorithm 1
    is written: repeatedly clamp every active task whose proportional share
    exceeds its cap, then share the remaining capacity proportionally.  The
    two agree to rounding, except where several tasks weigh about ``atol``
    (see there).  Each pass either settles a row
    (no task capped: the proportional shares are final) or clamps at least
    one task in every unsettled row, so ``n_max + 1`` passes suffice for the
    whole batch.
    """
    B, N = weights.shape
    alloc = np.zeros((B, N))
    act = active.copy()
    rem_P = np.asarray(P, dtype=float).copy()
    rem_W = _row_sums(np.where(act, weights, 0.0))
    for _ in range(N + 1):
        live = (rem_W > atol) & (rem_P > atol) & act.any(axis=1)
        if not live.any():
            break
        shares = weights * np.where(live, rem_P / np.where(live, rem_W, 1.0), 0.0)[:, None]
        rows_act = act & live[:, None]
        capped = rows_act & (deltas < shares - atol)
        has_capped = capped.any(axis=1)
        settle = live & ~has_capped
        if settle.any():
            settled_tasks = act & settle[:, None]
            alloc[settled_tasks] = shares[settled_tasks]
            act[settle] = False
        if has_capped.any():
            alloc[capped] = deltas[capped]
            rem_P -= _row_sums(np.where(capped, deltas, 0.0))
            rem_W -= _row_sums(np.where(capped, weights, 0.0))
            act &= ~capped
            np.maximum(rem_P, 0.0, out=rem_P)
    return alloc


def wdeq_batch(batch: PaddedBatch, atol: float = 1e-12) -> np.ndarray:
    """Completion times of WDEQ on every instance of the batch.

    Vectorized counterpart of :func:`repro.algorithms.wdeq.wdeq_schedule`:
    at each round the sharing rule of Algorithm 1 fixes constant rates until
    the first remaining task of each row completes, at which point that row
    is reshared.  Returns the completion time of every task, shape
    ``(B, n_max)`` with zeros in the padding slots.
    """
    volumes, weights, deltas, mask = batch.volumes, batch.weights, batch.deltas, batch.mask
    if np.any(mask & (weights <= 0)):
        raise InvalidInstanceError(
            "WDEQ requires strictly positive weights; "
            "use a small positive weight for 'don't care' tasks"
        )
    B, N = volumes.shape
    remaining = np.where(mask, volumes, 0.0)
    active = mask.copy()
    completion = np.zeros((B, N))
    t = np.zeros(B)
    finish_tol = atol * np.maximum(1.0, volumes)
    for _ in range(N):
        live = active.any(axis=1)
        if not live.any():
            break
        alloc = _wdeq_allocation_batch(batch.P, weights, deltas, active, atol)
        finish_in = np.where(
            active & (alloc > atol), remaining / np.maximum(alloc, atol), np.inf
        )
        dt = finish_in.min(axis=1)
        if np.any(live & ~np.isfinite(dt)):
            raise InvalidInstanceError(
                "WDEQ stalled: some active task receives no processors "
                "(this requires a zero weight or a zero platform)"
            )
        dt = np.where(live, dt, 0.0)
        t += dt
        remaining = np.maximum(remaining - alloc * dt[:, None], 0.0)
        finished = active & (remaining <= finish_tol)
        none_done = live & ~finished.any(axis=1)
        if none_done.any():
            # Numerical corner case (as in the scalar code): force the task
            # closest to completion out of the active set.
            closest = np.where(active, remaining, np.inf).argmin(axis=1)
            rows = np.nonzero(none_done)[0]
            finished[rows, closest[rows]] = True
            remaining[rows, closest[rows]] = 0.0
        completion[finished] = np.broadcast_to(t[:, None], (B, N))[finished]
        active &= ~finished
    return completion


def wdeq_weighted_completion_batch(
    batch: PaddedBatch, completion_times: np.ndarray | None = None, atol: float = 1e-12
) -> np.ndarray:
    """``sum_i w_i C_i`` of the WDEQ schedule for every row, shape ``(B,)``."""
    if completion_times is None:
        completion_times = wdeq_batch(batch, atol=atol)
    return _row_sums(np.where(batch.mask, batch.weights * completion_times, 0.0))


# --------------------------------------------------------------------- #
# Water-Filling
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class BatchWaterFilling:
    """Result of Algorithm WF on a batch.

    Attributes
    ----------
    order:
        ``(B, n_max)`` — task index scheduled in each column (completion
        order; padding tasks sort after all real tasks of their row).
    sorted_completion_times:
        ``(B, n_max)`` — column end times (non-decreasing per row).
    rates:
        ``(B, n_max, n_max)`` — ``rates[b, i, k]`` processors given to task
        ``i`` of instance ``b`` in column ``k``, exactly as in the scalar
        :class:`~repro.core.schedule.ColumnSchedule`.
    levels:
        ``(B, n_max)`` — the water level chosen for the task placed in each
        column position (Lemma 3 structure).
    """

    order: np.ndarray
    sorted_completion_times: np.ndarray
    rates: np.ndarray
    levels: np.ndarray


def water_filling_batch(
    batch: PaddedBatch,
    completion_times: np.ndarray,
    atol: float = 1e-9,
) -> BatchWaterFilling:
    """Run Algorithm WF (Section IV) on every instance of the batch at once.

    Vectorized counterpart of
    :func:`repro.algorithms.water_filling.water_filling_levels` with the
    exact breakpoint-scan level search: tasks are processed by non-decreasing
    completion time and each one's volume is poured onto the occupancy
    profile of its usable columns, the level rising as little as possible
    subject to the per-task cap.

    Raises :class:`~repro.core.exceptions.InfeasibleScheduleError` when any
    row's completion times are infeasible (same relative margin as the
    scalar code).
    """
    volumes, deltas, mask = batch.volumes, batch.deltas, batch.mask
    B, N = volumes.shape
    C = np.asarray(completion_times, dtype=float)
    if C.shape != (B, N):
        raise InvalidScheduleError(
            f"expected completion times of shape {(B, N)}, got {C.shape}"
        )
    if np.any(mask & (C < -atol)):
        raise InvalidScheduleError("completion times must be non-negative")
    C = np.maximum(C, 0.0)

    # Padding tasks have zero volume; give them the row's latest completion
    # time so the stable sort places them after every real task (they then
    # occupy zero-length columns and pour nothing).
    row_max = np.where(mask, C, 0.0).max(axis=1)
    Cp = np.where(mask, C, row_max[:, None])
    order = np.argsort(Cp, axis=1, kind="stable")
    sorted_C = np.take_along_axis(Cp, order, axis=1)
    lengths = np.diff(sorted_C, axis=1, prepend=0.0)
    volumes_o = np.take_along_axis(np.where(mask, volumes, 0.0), order, axis=1)
    deltas_o = np.take_along_axis(deltas, order, axis=1)

    rates = np.zeros((B, N, N))
    occupancy = np.zeros((B, N))
    levels = np.zeros((B, N))
    rows = np.arange(B)
    # Sentinel height larger than any level the scan can select, used to
    # blank out zero-length columns without disturbing the breakpoint order.
    big = float(np.max(batch.P) + np.max(np.where(mask, deltas, 0.0), initial=1.0) + 1.0)

    for pos in range(N):
        vol = volumes_o[:, pos]
        delta = deltas_o[:, pos]
        cols = slice(0, pos + 1)
        usable = lengths[:, cols] > atol
        has_usable = usable.any(axis=1)
        bad = ~has_usable & (vol > atol)
        if bad.any():
            b = int(np.nonzero(bad)[0][0])
            raise InfeasibleScheduleError(
                f"task {int(order[b, pos])} of batch row {b} has volume "
                f"{vol[b]:.6g} but completion time {sorted_C[b, pos]:.6g} "
                "leaves no room to schedule it"
            )
        heights = occupancy[:, cols]
        hs = np.where(usable, heights, big)
        le = np.where(usable, lengths[:, cols], 0.0)

        max_pour = (le * np.clip(batch.P[:, None] - hs, 0.0, delta[:, None])).sum(axis=1)
        infeasible = has_usable & (max_pour < vol * (1 - 1e-7) - atol)
        if infeasible.any():
            b = int(np.nonzero(infeasible)[0][0])
            raise InfeasibleScheduleError(
                f"no valid schedule: task {int(order[b, pos])} of batch row {b} "
                f"needs volume {vol[b]:.6g} by time {sorted_C[b, pos]:.6g} but at "
                f"most {max_pour[b]:.6g} fits (Algorithm WF, Theorem 8)"
            )

        # Exact breakpoint scan, all rows at once: wf(h) is piecewise linear
        # with breakpoints at every h_k and h_k + delta; find the first
        # breakpoint at which the poured volume reaches the target and
        # interpolate inside the segment below it.
        bps = np.sort(np.concatenate([hs, hs + delta[:, None]], axis=1), axis=1)
        gains = np.clip(bps[:, :, None] - hs[:, None, :], 0.0, delta[:, None, None])
        values = np.einsum("bkj,bj->bk", gains, le)
        meets = values >= (vol[:, None] - atol)
        any_meets = meets.any(axis=1)
        idx = np.argmax(meets, axis=1)

        v_at = values[rows, idx]
        b_at = bps[rows, idx]
        prev_idx = np.maximum(idx - 1, 0)
        v_prev = values[rows, prev_idx]
        b_prev = bps[rows, prev_idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(b_at > b_prev, (v_at - v_prev) / np.where(b_at > b_prev, b_at - b_prev, 1.0), 0.0)
            interp = np.where(slope > atol, b_prev + (vol - v_prev) / np.where(slope > atol, slope, 1.0), b_at)
        level = np.where(idx == 0, b_at, interp)
        # Saturation within the relative margin (checked above): settle for
        # the highest real breakpoint, as the scalar scan does.
        max_real_bp = np.where(usable, heights + delta[:, None], 0.0).max(axis=1)
        level = np.where(any_meets, level, max_real_bp)
        # Zero-volume tasks pour at the lowest usable occupancy.
        min_height = np.where(usable, heights, np.inf).min(axis=1, initial=np.inf)
        min_height = np.where(np.isfinite(min_height), min_height, 0.0)
        level = np.where(vol <= atol, min_height, level)
        level = np.minimum(level, batch.P)

        gain = np.where(usable, np.clip(level[:, None] - heights, 0.0, delta[:, None]), 0.0)
        poured = (le * gain).sum(axis=1)
        needs_rescale = (poured > atol) & (np.abs(poured - vol) > atol)
        factor = np.where(needs_rescale, vol / np.where(poured > atol, poured, 1.0), 1.0)
        gain *= factor[:, None]

        rates[rows, order[:, pos], cols] = gain
        occupancy[:, cols] += gain
        levels[:, pos] = level

    return BatchWaterFilling(
        order=order, sorted_completion_times=sorted_C, rates=rates, levels=levels
    )


# --------------------------------------------------------------------- #
# Lower bounds and ratios
# --------------------------------------------------------------------- #


def smith_rule_batch(
    P: np.ndarray, volumes: np.ndarray, weights: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`repro.core.bounds.smith_rule_value`, shape ``(B,)``.

    Tasks are run in non-decreasing order of ``V_i / w_i`` on one resource of
    speed ``P``; padding (and zero-weight) tasks sort last and contribute
    nothing to the objective.
    """
    v = np.where(mask, volumes, 0.0)
    w = np.where(mask, weights, 0.0)
    positive = mask & (w > 0)
    ratios = np.where(positive, v / np.where(positive, w, 1.0), np.inf)
    order = np.argsort(ratios, axis=1, kind="stable")
    v_sorted = np.take_along_axis(v, order, axis=1)
    w_sorted = np.take_along_axis(w, order, axis=1)
    completion = np.cumsum(v_sorted, axis=1) / np.asarray(P, dtype=float)[:, None]
    return (w_sorted * completion).sum(axis=1)


def height_bound_batch(batch: PaddedBatch, volumes: np.ndarray | None = None) -> np.ndarray:
    """Vectorized height bound ``H(I) = sum_i w_i V_i / delta_i`` (Definition 6)."""
    v = batch.volumes if volumes is None else volumes
    heights = np.where(batch.mask, v / batch.deltas, 0.0)
    return (np.where(batch.mask, batch.weights, 0.0) * heights).sum(axis=1)


def combined_lower_bound_batch(batch: PaddedBatch, num_fractions: int = 5) -> np.ndarray:
    """Vectorized :func:`repro.core.bounds.combined_lower_bound`, shape ``(B,)``.

    Evaluates the squashed-area bound ``A(I)``, the height bound ``H(I)`` and
    ``num_fractions`` uniform mixed splits of Lemma 1, and keeps the maximum
    per row — the same candidate set as the scalar code.
    """
    candidates = [
        smith_rule_batch(batch.P, batch.volumes, batch.weights, batch.mask),
        height_bound_batch(batch),
    ]
    for k in range(1, num_fractions + 1):
        frac = k / (num_fractions + 1)
        area_part = smith_rule_batch(
            batch.P, batch.volumes * frac, batch.weights, batch.mask
        )
        height_part = height_bound_batch(batch, volumes=batch.volumes * (1.0 - frac))
        candidates.append(area_part + height_part)
    return np.max(np.stack(candidates, axis=0), axis=0)


def lower_bound_batch(
    batch: PaddedBatch,
    method: str = "combined",
    num_fractions: int = 5,
) -> np.ndarray:
    """Per-row lower bounds on the optimal weighted completion time, shape ``(B,)``.

    The only method is ``"combined"``: the closed-form Lemma 1 bound of
    :func:`combined_lower_bound_batch` — cheap, valid at any size, and what
    the empirical-ratio experiments use as the denominator.  Exact optima
    have their own entry point, :func:`repro.lp.optimal`; they dominate
    this bound, so ``repro.lp.optimal(batch).objectives >=
    lower_bound_batch(batch)`` up to tolerance — asserted by the
    differential tests.
    """
    if method == "combined":
        return combined_lower_bound_batch(batch, num_fractions=num_fractions)
    raise InvalidInstanceError(f"unknown lower-bound method {method!r}; expected 'combined'")


def wdeq_ratio_batch(
    batch: PaddedBatch,
    completion_times: np.ndarray | None = None,
    num_fractions: int = 5,
    atol: float = 1e-12,
) -> np.ndarray:
    """WDEQ value over the combined lower bound for every row, shape ``(B,)``.

    Vectorized counterpart of ``wdeq_ratio(instance, exact=False)``:
    Theorem 4 guarantees every entry is at most 2.
    """
    value = wdeq_weighted_completion_batch(batch, completion_times, atol=atol)
    reference = combined_lower_bound_batch(batch, num_fractions=num_fractions)
    return np.where(reference > 0, value / np.where(reference > 0, reference, 1.0), 1.0)


def pad_instances(instances: Sequence[Instance]) -> PaddedBatch:
    """Convenience alias for :meth:`PaddedBatch.from_instances`."""
    return PaddedBatch.from_instances(instances)


__all__.append("pad_instances")
