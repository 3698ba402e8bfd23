"""Experiment E6 — preemption counts of Water-Filling schedules (Theorems 9-10).

For every instance the completion times of the WDEQ schedule are fed to the
Water-Filling normalisation; the resulting schedule is converted to a
concrete per-processor assignment with the sticky policy of Lemma 10, and
the counts are compared to the paper's bounds: at most ``n`` changes of the
fractional allocation and at most ``3n`` preemptions of the integer
schedule.

The WDEQ completion times of all instances of a size are computed by one
:func:`repro.batch.sim_kernels.simulate_batch` run on every backend; the
per-instance preemption analysis (inherently schedule-structural) then runs
through ``ctx.map``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.preemptions import preemption_report
from repro.core.batch import InstanceBatch
from repro.exec import ExecutionContext
from repro.experiments.base import ExperimentResult
from repro.workloads.generators import cluster_instances

__all__ = ["run"]


def _report_from_times(pair):
    """The preemption analysis of one instance, given its WDEQ completion times."""
    instance, completion_times = pair
    return preemption_report(instance, completion_times)


def run(
    sizes: Sequence[int] = (5, 10, 20, 50, 100),
    count: int = 10,
    ctx: ExecutionContext | None = None,
) -> ExperimentResult:
    """Measure preemption counts against the n and 3n bounds."""
    from repro.batch.sim_kernels import WdeqBatchPolicy, simulate_batch

    ctx = ctx if ctx is not None else ExecutionContext()
    count = ctx.scale(count, 100)
    rows: list[list[object]] = []
    all_within = True
    for n in sizes:
        instances = list(cluster_instances(n, count, rng=ctx.rng()))
        batch = InstanceBatch.from_instances(instances)
        completions = simulate_batch(batch, WdeqBatchPolicy()).completion_times
        reports = ctx.map(
            _report_from_times,
            [(inst, completions[b, : inst.n]) for b, inst in enumerate(instances)],
        )
        frac_ratios = [r.fractional_changes / max(r.fractional_bound, 1) for r in reports]
        frac_raw_ratios = [r.fractional_changes_raw / max(r.fractional_bound, 1) for r in reports]
        preempt_per_task = [r.preemptions / max(r.n, 1) for r in reports]
        within = sum(int(r.within_bounds) for r in reports)
        total = len(reports)
        all_within = all_within and within == total
        rows.append(
            [
                n,
                total,
                f"{np.max(frac_ratios):.3f}",
                f"{np.max(frac_raw_ratios):.3f}",
                f"{np.mean(preempt_per_task):.2f}",
                f"{within}/{total}",
            ]
        )
    return ExperimentResult(
        experiment_id="E6",
        title="Preemptions of Water-Filling schedules (Theorems 9 and 10)",
        paper_claim=(
            "WF schedules have at most n changes of the fractional allocation (Theorem 9) and "
            "admit an integer processor assignment with at most 3n preemptions (Theorem 10)."
        ),
        headers=[
            "n",
            "instances",
            "max fractional changes / n (paper accounting)",
            "max fractional changes / n (all changes)",
            "mean preemptions per task (our integer conversion)",
            "within proven bounds",
        ],
        rows=rows,
        summary={"fractional change bound (Theorem 9) respected on every instance": all_within},
        notes=[
            "Completion times are taken from the WDEQ schedule; Theorem 8 guarantees WF can "
            "realise them, and the bounds hold for the WF normal form regardless of where the "
            "completion times came from.",
            "The integer preemption counts use this library's per-column-exact conversion, which "
            "is simpler than the optimised construction behind Theorem 10 and therefore yields "
            "more than 3 preemptions per task on column-rich instances; the fractional bound, "
            "which drives the normal-form search-space reduction, is reproduced exactly "
            "(see DESIGN.md, 'Deviations').",
        ],
    )
