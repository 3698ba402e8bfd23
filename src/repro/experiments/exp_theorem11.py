"""Experiment E4 — optimality of greedy schedules under Theorem 11.

Theorem 11: for instances with homogeneous weights and ``delta_i > P/2``,
*every* optimal schedule is greedy.  A consequence tested here is that the
best greedy value equals the exact optimum on every such instance, and that
the optimal LP schedule exhibits the structure used in the proof (each task
saturated in its final column, at most one unsaturated task per column).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algorithms.greedy import best_greedy_schedule
from repro.algorithms.optimal import optimal_schedule
from repro.exec import ExecutionContext
from repro.experiments.base import ExperimentResult
from repro.workloads.generators import large_delta_instances

__all__ = ["run", "optimal_schedule_structure_ok", "measure_instance"]


def optimal_schedule_structure_ok(schedule, atol: float = 1e-6) -> bool:
    """Check the structural properties of Lemmas 7-8 on an optimal schedule.

    * every task is saturated (runs at its cap) in the last positive-length
      column in which it receives resources, and
    * each positive-length column contains at most one unsaturated task.
    """
    inst = schedule.instance
    lengths = schedule.column_lengths
    saturated = schedule.saturation_matrix(atol=atol)
    for i in range(inst.n):
        cols = [
            j
            for j in range(inst.n)
            if schedule.rates[i, j] > atol and lengths[j] > atol
        ]
        if cols and not saturated[i, cols[-1]]:
            return False
    for j in range(inst.n):
        if lengths[j] <= atol:
            continue
        unsaturated = [
            i
            for i in range(inst.n)
            if schedule.rates[i, j] > atol and not saturated[i, j]
        ]
        if len(unsaturated) > 1:
            return False
    return True


def measure_instance(instance) -> tuple[float, bool]:
    """Gap and Lemma 7/8 structure flag for one instance (picklable worker body)."""
    greedy = best_greedy_schedule(instance)
    opt = optimal_schedule(instance)
    gap = 0.0 if opt.objective <= 0 else (greedy.objective - opt.objective) / opt.objective
    return gap, optimal_schedule_structure_ok(opt.schedule)


def run(
    sizes: Sequence[int] = (2, 3, 4, 5, 6),
    count: int = 25,
    tolerance: float = 1e-6,
    ctx: ExecutionContext | None = None,
) -> ExperimentResult:
    """Compare best greedy and optimal on delta > P/2, homogeneous-weight instances.

    The per-instance greedy-vs-LP comparisons run through ``ctx.map`` and
    are spread over the context's worker pool when it has one.
    """
    ctx = ctx if ctx is not None else ExecutionContext()
    count = ctx.scale(count, 1_000)
    rows: list[list[object]] = []
    worst_gap = 0.0
    structure_all = True
    for n in sizes:
        measured = ctx.map(measure_instance, large_delta_instances(n, count, P=1.0, rng=ctx.rng()))
        gaps = [gap for gap, _ in measured]
        structure_ok = sum(int(ok) for _, ok in measured)
        gaps_arr = np.array(gaps)
        worst_gap = max(worst_gap, float(gaps_arr.max(initial=0.0)))
        structure_all = structure_all and structure_ok == len(gaps)
        rows.append(
            [
                n,
                len(gaps),
                f"{gaps_arr.max(initial=0.0):.2e}",
                f"{structure_ok}/{len(gaps)}",
            ]
        )
    return ExperimentResult(
        experiment_id="E4",
        title="Greedy optimality for homogeneous weights and delta > P/2 (Theorem 11)",
        paper_claim=(
            "With homogeneous weights and delta_i > P/2 every optimal schedule is greedy; "
            "in optimal schedules each task is saturated in its last column and at most one "
            "task per column is unsaturated."
        ),
        headers=["n", "instances", "max (greedy - opt)/opt", "LP optimum has Lemma 7/8 structure"],
        rows=rows,
        summary={
            "max relative gap": f"{worst_gap:.2e}",
            "greedy always optimal": worst_gap <= tolerance,
            "structure holds on every LP optimum": structure_all,
        },
        notes=[
            "The LP solver may return any optimal vertex; the structural check therefore "
            "validates Lemmas 7 and 8 on the solver's optimum, which the theorem says must "
            "already be greedy-shaped.",
        ],
    )
