"""Constructive equivalences between schedule representations (Theorem 3).

Theorem 3 of the paper shows that the continuous formulation (MWCT) and the
column-based fractional formulation (MWCT-CB-F) are equivalent: any valid
schedule of one kind can be turned into a valid schedule of the other with
the *same completion times*.  Both directions are constructive and both
constructions are implemented here, together with the stronger direction used
for preemption counting: turning a fractional column schedule into a fully
concrete per-processor assignment in which each task uses either
``floor(d_{i,j})`` or ``ceil(d_{i,j})`` processors at every instant of column
``j`` and the set of processors serving a task changes at most twice per
column.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.exceptions import InvalidScheduleError
from repro.core.instance import DEFAULT_ATOL
from repro.core.schedule import (
    ColumnSchedule,
    ContinuousSchedule,
    ProcessorAssignment,
    ProcessorSegment,
)

__all__ = [
    "column_to_continuous",
    "continuous_to_column",
    "column_to_processor_assignment",
    "processor_assignment_to_continuous",
]


def column_to_continuous(schedule: ColumnSchedule, atol: float = 1e-12) -> ContinuousSchedule:
    """View a column schedule as a piecewise-constant continuous schedule.

    Zero-length columns (created when several tasks complete simultaneously)
    carry no work and are dropped; the remaining column boundaries become the
    breakpoints of the continuous schedule.
    """
    n = schedule.n
    if n == 0:
        return ContinuousSchedule(schedule.instance, [0.0, 1.0], np.zeros((0, 1)))
    lengths = schedule.column_lengths
    keep = np.nonzero(lengths > atol)[0]
    if keep.size == 0:
        # Degenerate schedule in which everything completes at time 0.
        return ContinuousSchedule(
            schedule.instance, [0.0, 1.0], np.zeros((n, 1))
        )
    breakpoints = [0.0]
    rates_cols = []
    for j in keep:
        breakpoints.append(float(schedule.completion_times[j]))
        rates_cols.append(schedule.rates[:, j])
    rates = np.column_stack(rates_cols)
    return ContinuousSchedule(schedule.instance, breakpoints, rates)


def continuous_to_column(
    schedule: ContinuousSchedule, atol: float = 1e-12
) -> ColumnSchedule:
    """Average the allocation of each task inside each column (Theorem 3).

    The completion times of the continuous schedule define the columns; the
    per-column rate of task ``i`` is its average allocation there,
    ``(1 / l_j) * integral over the column of d_i(t) dt``, which by convexity
    still satisfies both the per-task cap and the platform capacity.  The
    integrals of all tasks over all columns are one product,
    ``rates @ overlap``, where ``overlap[k, j]`` is the length of interval
    ``k`` that falls inside column ``j``.
    """
    inst = schedule.instance
    completions = schedule.completion_times()
    order = np.lexsort((np.arange(inst.n), completions))
    ends = completions[order]
    starts = np.concatenate(([0.0], ends))[:-1]
    bp = schedule.breakpoints
    overlap = np.clip(
        np.minimum(bp[1:, None], ends[None, :]) - np.maximum(bp[:-1, None], starts[None, :]),
        0.0,
        None,
    )
    lengths = ends - starts
    wide = lengths > atol
    rates = np.zeros((inst.n, inst.n))
    rates[:, wide] = (schedule.rates @ overlap[:, wide]) / lengths[wide]
    return ColumnSchedule(inst, order, ends, rates)


def column_to_processor_assignment(
    schedule: ColumnSchedule, atol: float = 1e-9
) -> ProcessorAssignment:
    """Turn a fractional column schedule into an integer per-processor one.

    This is the construction in the first half of the proof of Theorem 3
    (illustrated by Figure 2 of the paper): within each column the tasks are
    stacked, in completion order, onto a strip of height ``P`` processors and
    width ``l_j``; the strip is then read processor by processor.  A task
    whose stacked band crosses a processor boundary shares that processor
    with its neighbour, the earlier part of the processor going to the task
    whose band starts lower.  As a consequence each task runs on either
    ``floor(d_{i,j})`` or ``ceil(d_{i,j})`` processors at every instant of
    the column, and the set of processors serving it changes at most twice
    inside the column.

    The platform size ``P`` must be integral (within tolerance); the
    fractional formulation is only claimed equivalent to the integer one in
    that case.
    """
    P = schedule.instance.P
    num_processors = int(round(P))
    if abs(P - num_processors) > 1e-6 or num_processors <= 0:
        raise InvalidScheduleError(
            f"processor assignment requires an integral platform size, got P={P}"
        )
    n = schedule.n
    per_proc: list[list[ProcessorSegment]] = [[] for _ in range(num_processors)]
    lengths = schedule.column_lengths
    for j in range(n):
        length = float(lengths[j])
        if length <= atol:
            continue
        col_start, _ = schedule.column_bounds(j)
        offset_area = 0.0  # position inside the stacked strip, in processor*time units
        for task in schedule.order:
            area = float(schedule.rates[task, j]) * length
            if area <= atol * max(1.0, length):
                continue
            lo_area = offset_area
            hi_area = offset_area + area
            if hi_area > num_processors * length + atol * max(1.0, length) * num_processors:
                raise InvalidScheduleError(
                    f"column {j} overflows the platform: load "
                    f"{hi_area / length:.6f} > P = {num_processors}"
                )
            first_proc = int(math.floor(lo_area / length + 1e-12))
            last_proc = int(math.ceil(hi_area / length - 1e-12)) - 1
            last_proc = min(last_proc, num_processors - 1)
            for p in range(first_proc, last_proc + 1):
                seg_lo = max(lo_area, p * length) - p * length
                seg_hi = min(hi_area, (p + 1) * length) - p * length
                if seg_hi - seg_lo > atol:
                    per_proc[p].append(
                        ProcessorSegment(
                            start=col_start + seg_lo,
                            end=col_start + seg_hi,
                            task=task,
                        )
                    )
            offset_area = hi_area
    return ProcessorAssignment(schedule.instance, num_processors, per_proc)


def processor_assignment_to_continuous(
    assignment: ProcessorAssignment, atol: float = 1e-12
) -> ContinuousSchedule:
    """Aggregate a per-processor assignment back into a continuous schedule.

    The number of processors allocated to each task at each instant is the
    number of processors currently running a segment of that task; the result
    is piecewise constant with breakpoints at every segment start or end.
    Used by the validators and by the round-trip tests of Theorem 3.
    """
    inst = assignment.instance
    points = {0.0}
    for segs in assignment.segments:
        for s in segs:
            points.add(float(s.start))
            points.add(float(s.end))
    breakpoints = sorted(points)
    # Remove numerically duplicated breakpoints.
    dedup = [breakpoints[0]]
    for t in breakpoints[1:]:
        if t - dedup[-1] > atol:
            dedup.append(t)
    if len(dedup) == 1:
        dedup.append(dedup[0] + 1.0)
    m = len(dedup) - 1
    rates = np.zeros((inst.n, m))
    for segs in assignment.segments:
        for s in segs:
            for k in range(m):
                lo = max(s.start, dedup[k])
                hi = min(s.end, dedup[k + 1])
                if hi - lo > atol:
                    # A processor contributes at most 1 unit of rate, scaled by
                    # the fraction of the interval it covers (segments are
                    # aligned with breakpoints, so this fraction is 0 or 1 up
                    # to numerical noise).
                    rates[s.task, k] += (hi - lo) / (dedup[k + 1] - dedup[k])
    return ContinuousSchedule(inst, dedup, rates)
