"""Vectorized NumPy kernels over padded batches of instances.

A batch packs ``B`` instances into dense ``(B, n_max)`` arrays, padding the
rows of smaller instances with inert tasks (zero volume, zero weight,
``mask = False``).  The kernels then replay the scalar algorithms with every
per-instance loop turned into an array operation over the whole batch, so
the Python-interpreter cost is paid once per *round* instead of once per
*instance and round*.

Two families live here: Algorithm WF (:func:`water_filling_batch`, the
counterpart of :mod:`repro.algorithms.water_filling`, same tolerances and
tie-breaking) and the Lemma 1 lower bounds (:func:`combined_lower_bound_batch`
and its parts, the counterparts of :mod:`repro.core.bounds`).  The property
tests in ``tests/test_batch.py`` assert agreement with the scalar code on
random padded batches including degenerate one-task instances.  WDEQ itself
runs on the batched event engine, :mod:`repro.batch.sim_kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batch import InstanceBatch
from repro.core.exceptions import InfeasibleScheduleError, InvalidScheduleError

__all__ = [
    "BatchWaterFilling",
    "water_filling_batch",
    "smith_rule_batch",
    "height_bound_batch",
    "combined_lower_bound_batch",
    "lower_bound_batch",
]


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
    batch: InstanceBatch,
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
    return _row_sums(w_sorted * completion)


def height_bound_batch(batch: InstanceBatch, volumes: np.ndarray | None = None) -> np.ndarray:
    """Vectorized height bound ``H(I) = sum_i w_i V_i / delta_i`` (Definition 6)."""
    v = batch.volumes if volumes is None else volumes
    heights = np.where(batch.mask, v / batch.deltas, 0.0)
    return _row_sums(np.where(batch.mask, batch.weights, 0.0) * heights)


def combined_lower_bound_batch(batch: InstanceBatch, num_fractions: int = 5) -> np.ndarray:
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


#: The facade name (``repro.lower_bound_batch``) of the Lemma 1 bound.  Exact
#: optima have their own entry point, :func:`repro.lp.optimal`; they dominate
#: this bound, so ``repro.lp.optimal(batch).objectives >=
#: lower_bound_batch(batch)`` up to tolerance — asserted by the differential
#: tests.
lower_bound_batch = combined_lower_bound_batch
