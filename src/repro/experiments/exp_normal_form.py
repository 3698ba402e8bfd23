"""Experiment E9 — correctness of the normal form (Theorems 3 and 8).

For schedules produced by several different algorithms (WDEQ, greedy with
Smith's ordering, the optimal LP) the completion times are extracted and fed
to the Water-Filling algorithm.  Theorem 8 guarantees WF succeeds and the
resulting normal form preserves every completion time; Theorem 3 guarantees
the fractional-to-integer conversion preserves them as well.  The experiment
measures the largest deviation observed across the whole pipeline.

Each (source, instance) round trip is independent, so every ``(source, n)``
sweep is one :class:`~repro.core.batch.InstanceBatch` mapped through
``ctx.map_batch`` of the :class:`repro.exec.ExecutionContext`, sharded over
a worker pool when the context has one.  The optimal completion times come
from one branch-and-bound call per shard, whose orders are re-solved for
their LP completion times.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from repro.algorithms.greedy import greedy_completion_times
from repro.algorithms.preemption import assign_processors
from repro.algorithms.water_filling import water_filling_schedule
from repro.algorithms.wdeq import wdeq_schedule
from repro.core.batch import InstanceBatch
from repro.core.instance import Instance
from repro.core.validation import (
    check_column_schedule,
    check_processor_assignment,
)
from repro.exec import ExecutionContext
from repro.experiments.base import ExperimentResult, map_instances
from repro.lp.batch import optimal, solve_ordered_relaxation_batch
from repro.workloads.generators import cluster_instances, uniform_instances

__all__ = ["run"]


def _wdeq_completions(batch: InstanceBatch) -> list[np.ndarray]:
    return [wdeq_schedule(inst).completion_times_by_task() for inst in batch.to_instances()]


def _greedy_completions(batch: InstanceBatch) -> list[np.ndarray]:
    return [greedy_completion_times(inst, inst.smith_order()) for inst in batch.to_instances()]


def _optimal_completions(batch: InstanceBatch) -> list[np.ndarray]:
    times = solve_ordered_relaxation_batch(batch, optimal(batch).orders).completion_times_by_task()
    return [times[b, :n] for b, n in enumerate(batch.counts.tolist())]


#: Per-row completion-time targets of each source, computed for a whole batch.
SOURCES: dict[str, Callable[[InstanceBatch], list[np.ndarray]]] = {
    "WDEQ": _wdeq_completions,
    "greedy (Smith order)": _greedy_completions,
    "optimal LP": _optimal_completions,
}


def _roundtrip(instance: Instance, target: np.ndarray) -> tuple[float, bool]:
    """Normalise one instance's completion times and measure the deviation.

    Returns the largest late-completion deviation and whether both the WF
    schedule and its integer conversion validate.
    """
    normalised = water_filling_schedule(instance, target)
    wf_completions = normalised.completion_times_by_task()
    # WF may finish a task earlier than its target (never later).
    dev = float(np.max(np.maximum(wf_completions - target, 0.0), initial=0.0))
    assignment = assign_processors(normalised)
    int_completions = assignment.completion_times()
    # The integer conversion may finish a task slightly earlier than its
    # nominal completion time (its last column may carry only the "floor"
    # part of the allocation); only *late* completions are deviations.
    dev = max(
        dev,
        float(np.max(np.maximum(int_completions - wf_completions, 0.0), initial=0.0)),
    )
    violations = check_column_schedule(normalised) + check_processor_assignment(assignment)
    return dev, not violations


def _roundtrips(batch: InstanceBatch, source_name: str) -> list[tuple[float, bool]]:
    """:func:`_roundtrip` of every row against its ``source_name`` targets.

    Module-level (and addressed by source *name*) so it pickles into worker
    processes; rows are independent, as ``ctx.map_batch`` requires.
    """
    targets = SOURCES[source_name](batch)
    return [_roundtrip(inst, target) for inst, target in zip(batch.to_instances(), targets)]


def run(
    small_sizes: Sequence[int] = (3, 4, 5),
    large_sizes: Sequence[int] = (10, 30),
    count: int = 10,
    ctx: ExecutionContext | None = None,
) -> ExperimentResult:
    """Round-trip completion times through WF and the integer conversion."""
    ctx = ctx if ctx is not None else ExecutionContext()
    count = ctx.scale(count, 100)
    rows: list[list[object]] = []
    overall_max_dev = 0.0
    all_valid = True
    for source_name in SOURCES:
        sizes = small_sizes if source_name == "optimal LP" else tuple(small_sizes) + tuple(large_sizes)
        roundtrips = functools.partial(_roundtrips, source_name=source_name)
        for n in sizes:
            rng = ctx.rng()
            gen = (
                uniform_instances(n, count, rng=rng)
                if n <= max(small_sizes)
                else cluster_instances(n, count, rng=rng)
            )
            measured = map_instances(ctx, roundtrips, gen)
            max_dev = max((dev for dev, _ in measured), default=0.0)
            valid = sum(int(ok) for _, ok in measured)
            total = len(measured)
            overall_max_dev = max(overall_max_dev, max_dev)
            all_valid = all_valid and valid == total
            rows.append([source_name, n, total, f"{max_dev:.2e}", f"{valid}/{total}"])
    return ExperimentResult(
        experiment_id="E9",
        title="Normal form correctness (Theorems 3 and 8)",
        paper_claim=(
            "Any valid schedule can be normalised by Water-Filling using only its completion "
            "times, and converted to an integer per-processor schedule, without changing any "
            "completion time."
        ),
        headers=["completion times from", "n", "instances", "max completion-time deviation", "valid schedules"],
        rows=rows,
        summary={
            "max completion-time deviation": f"{overall_max_dev:.2e}",
            "all normalised schedules valid": all_valid,
        },
        notes=[
            "Deviation counts only *late* completions for the WF step (finishing a task early "
            "is allowed) and absolute differences for the integer conversion step.",
        ],
    )
