"""Processor assignment and preemption accounting (Lemmas 6, 9 and 10).

Two integer conversions of a fractional column schedule exist in the paper:

* the *stacking* construction used in the proof of Theorem 3
  (:func:`repro.core.conversion.column_to_processor_assignment`) — simple,
  correct, but it restacks every column from scratch, so a task's integer
  processor count can oscillate at every column boundary and the number of
  preemptions is not bounded by ``3n``;
* the *incremental* construction behind Lemma 9 / Figure 7, in which tasks
  are converted one by one (in completion order) on top of an occupancy
  profile that keeps **at most one unit step per column**.  Each newly
  converted task then changes its processor count at most ``2k' + k + 1``
  times (one per column of its unsaturated span, one more per column whose
  occupancy carries a small step, plus one new small step at the top), which
  telescopes to the ``3n`` bound of Theorem 10.

This module implements the incremental construction
(:func:`integer_allocation_profile`), the resulting change counting
(:func:`integer_allocation_change_count`) and a *sticky* processor-identity
assignment (:func:`assign_processors`) in which a processor handed to a task
is only reclaimed when the task's count decreases or the task completes —
realising Lemmas 6 and 10 operationally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import InvalidScheduleError
from repro.core.schedule import (
    ColumnSchedule,
    ProcessorAssignment,
    ProcessorSegment,
)

__all__ = [
    "IntegerAllocationProfile",
    "integer_allocation_profile",
    "integer_allocation_change_count",
    "assign_processors",
]

_ATOL = 1e-9


@dataclass
class IntegerAllocationProfile:
    """Integer per-task processor counts over a common set of time intervals.

    Attributes
    ----------
    breakpoints:
        Interval boundaries ``t_0 = 0 < t_1 < ... < t_m``.
    counts:
        Integer array of shape ``(n, m)``; entry ``(i, k)`` is the number of
        processors running task ``i`` throughout interval ``k``.
    num_processors:
        Size of the platform (an integer).
    """

    breakpoints: np.ndarray
    counts: np.ndarray
    num_processors: int

    @property
    def num_intervals(self) -> int:
        """Number of constant-count intervals."""
        return self.counts.shape[1]

    def interval_lengths(self) -> np.ndarray:
        """Durations of the intervals."""
        return np.diff(self.breakpoints)

    def change_count(self) -> int:
        """Total number of changes of the per-task counts over time.

        The first start and the final completion of a task are not counted,
        matching the convention of Section IV-B; interior changes (including
        a count temporarily dropping to zero) are.
        """
        changes = 0
        for row in self.counts:
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                continue
            trimmed = row[nz[0] : nz[-1] + 1]
            changes += int(np.count_nonzero(np.diff(trimmed)))
        return changes


def integer_allocation_profile(schedule: ColumnSchedule) -> IntegerAllocationProfile:
    """Integer processor counts over time via the Lemma 9 construction.

    Tasks are converted in completion order.  The occupancy of every column
    is maintained as a step function with at most one unit step; adding a
    task raises the occupancy of each of its columns to the new total height
    (floor for the first part of the column, ceiling for the rest), and the
    task's own count is the difference between the new and the old occupancy
    curves — an integer step function with at most two breakpoints per
    column, always between ``floor(d_{i,j}) - 1 + 1 = floor`` and
    ``ceil(d_{i,j})`` processors.
    """
    inst = schedule.instance
    P = int(round(inst.P))
    if abs(inst.P - P) > 1e-6 or P <= 0:
        raise InvalidScheduleError(
            f"integer conversion requires an integral platform size, got P={inst.P}"
        )
    n = schedule.n
    lengths = schedule.column_lengths
    # Occupancy state per column: (lo, hi, step_at) with occupancy lo on
    # [0, step_at) and hi on [step_at, length), hi in {lo, lo + 1}.
    col_lo = np.zeros(n, dtype=int)
    col_hi = np.zeros(n, dtype=int)
    col_step = lengths.copy()  # step position = length means "no step"
    col_area = np.zeros(n)  # cumulative fractional area (exact bookkeeping)

    # Per task and per column: list of (start_offset, end_offset, count).
    pieces: dict[int, dict[int, list[tuple[float, float, int]]]] = {
        task: {} for task in range(n)
    }

    for pos, task in enumerate(schedule.order):
        for k in range(pos + 1):
            length = float(lengths[k])
            if length <= _ATOL:
                continue
            area = float(schedule.rates[task, k]) * length
            if area <= _ATOL * max(1.0, length):
                continue
            old_lo, old_hi, old_step = int(col_lo[k]), int(col_hi[k]), float(col_step[k])
            new_area = col_area[k] + area
            total_height = new_area / length
            new_lo = int(math.floor(total_height + 1e-9))
            frac = total_height - new_lo
            if frac <= 1e-9:
                new_hi = new_lo
                new_step = length
            else:
                new_hi = new_lo + 1
                new_step = length * (new_lo + 1 - total_height)
            # The task's count over the column is (new occupancy - old occupancy),
            # an integer step function with breakpoints at old_step and new_step.
            cuts = sorted({0.0, min(old_step, length), min(new_step, length), length})
            col_pieces: list[tuple[float, float, int]] = []
            for lo_t, hi_t in zip(cuts, cuts[1:]):
                if hi_t - lo_t <= 1e-15:
                    continue
                mid = 0.5 * (lo_t + hi_t)
                old_val = old_lo if mid < old_step else old_hi
                new_val = new_lo if mid < new_step else new_hi
                count = new_val - old_val
                if count < 0:
                    raise InvalidScheduleError(
                        "integer conversion produced a negative count; "
                        "the column occupancy bookkeeping is inconsistent"
                    )
                if count > 0:
                    col_pieces.append((lo_t, hi_t, count))
            pieces[task][k] = col_pieces
            col_lo[k], col_hi[k], col_step[k] = new_lo, new_hi, new_step
            col_area[k] = new_area
            if new_hi > P + 1e-9:
                raise InvalidScheduleError(
                    f"integer conversion overflows the platform in column {k}: "
                    f"occupancy {new_hi} > P = {P}"
                )

    # Flatten the per-column pieces into a global timeline.
    boundaries = {0.0}
    column_starts = np.concatenate(([0.0], schedule.completion_times[:-1])) if n else np.zeros(0)
    for task in range(n):
        for k, col_pieces in pieces[task].items():
            start = float(column_starts[k])
            for lo_t, hi_t, _ in col_pieces:
                boundaries.add(start + lo_t)
                boundaries.add(start + hi_t)
    sorted_bounds = sorted(boundaries)
    dedup = [sorted_bounds[0]]
    for t in sorted_bounds[1:]:
        if t - dedup[-1] > _ATOL:
            dedup.append(t)
    if len(dedup) == 1:
        dedup.append(dedup[0] + 1.0)
    breakpoints = np.array(dedup)
    m = breakpoints.size - 1
    counts = np.zeros((n, m), dtype=int)
    mids = 0.5 * (breakpoints[:-1] + breakpoints[1:])
    for task in range(n):
        for k, col_pieces in pieces[task].items():
            start = float(column_starts[k])
            for lo_t, hi_t, count in col_pieces:
                mask = (mids >= start + lo_t) & (mids < start + hi_t)
                counts[task, mask] += count
    return IntegerAllocationProfile(
        breakpoints=breakpoints, counts=counts, num_processors=P
    )


def integer_allocation_change_count(schedule: ColumnSchedule) -> int:
    """Number of changes of the integer per-task allocation over time.

    Theorem 10 (via Lemma 9) bounds this by ``3n`` for Water-Filling
    schedules converted with the incremental construction implemented here.
    """
    return integer_allocation_profile(schedule).change_count()


def assign_processors(schedule: ColumnSchedule) -> ProcessorAssignment:
    """Sticky processor assignment realising the Lemma 9 integer counts.

    Processor identities are assigned greedily: a processor given to a task
    is reclaimed only when the task's integer count decreases or the task
    completes.  The number of preemptions (processor taken from an unfinished
    task) is then at most the number of count decreases, itself bounded by
    the total number of count changes — the quantity Theorem 10 bounds by
    ``3n``.
    """
    profile = integer_allocation_profile(schedule)
    n, m = profile.counts.shape
    P = profile.num_processors
    bp = profile.breakpoints
    lengths = profile.interval_lengths()

    free: list[int] = list(range(P - 1, -1, -1))  # stack of free processors
    owned: dict[int, list[int]] = {i: [] for i in range(n)}
    running: dict[int, tuple[int, float]] = {}
    per_proc_segments: list[list[ProcessorSegment]] = [[] for _ in range(P)]

    def close_segment(proc: int, end_time: float) -> None:
        if proc in running:
            task, start = running.pop(proc)
            if end_time > start + 1e-12:
                per_proc_segments[proc].append(ProcessorSegment(start, end_time, task))

    for k in range(m):
        if lengths[k] <= _ATOL:
            continue
        t = float(bp[k])
        targets = profile.counts[:, k]
        # Phase 1: shrink / complete — release processors back to the pool.
        for i in range(n):
            current = owned[i]
            while len(current) > targets[i]:
                proc = current.pop()
                close_segment(proc, t)
                free.append(proc)
        # Phase 2: grow — grab processors from the pool.
        for i in range(n):
            current = owned[i]
            while len(current) < targets[i]:
                if not free:
                    raise InvalidScheduleError(
                        "sticky assignment ran out of processors; the integer "
                        "counts exceed the platform size"
                    )
                proc = free.pop()
                current.append(proc)
                running[proc] = (i, t)
    horizon = float(bp[-1])
    for proc in list(running.keys()):
        close_segment(proc, horizon)
    return ProcessorAssignment(schedule.instance, P, per_proc_segments)
