#!/usr/bin/env python3
"""Quickstart: schedule a handful of malleable tasks and compare algorithms.

This example builds a small instance of work-preserving malleable tasks,
runs the paper's algorithms on it (non-clairvoyant WDEQ, clairvoyant greedy
and the exact optimum), prints their weighted completion times next to the
lower bounds, and draws a text Gantt chart of the best schedule.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Instance, Task
from repro.algorithms import best_greedy_schedule, wdeq_schedule
from repro.core.batch import InstanceBatch
from repro.core.bounds import combined_lower_bound, height_bound, squashed_area_bound
from repro.lp import optimal, solve_ordered_relaxation_batch
from repro.viz.gantt import render_allocation_chart
from repro.viz.tables import format_table


def main() -> None:
    # A platform of 4 processors and 4 tasks.  Each task has a total work
    # (volume), a weight (importance in the objective) and a cap on how many
    # processors it can use at once.
    instance = Instance(
        P=4,
        tasks=[
            Task(volume=4.0, weight=2.0, delta=2, name="render"),
            Task(volume=6.0, weight=1.0, delta=3, name="simulate"),
            Task(volume=2.0, weight=1.0, delta=1, name="index"),
            Task(volume=5.0, weight=3.0, delta=4, name="train"),
        ],
    )
    print(instance.describe())
    print()

    # Non-clairvoyant: WDEQ never looks at the volumes.
    wdeq = wdeq_schedule(instance)
    # Clairvoyant: best greedy schedule over all task orderings.
    greedy = best_greedy_schedule(instance)
    # Exact optimum: the Corollary 1 LP minimised over completion orderings
    # by branch-and-bound (on a batch of one instance), then the optimal
    # schedule as the LP of the winning ordering.
    batch = InstanceBatch.from_instances([instance])
    best = optimal(batch)
    solution = solve_ordered_relaxation_batch(batch, best.orders, build_schedules=True)
    optimal_schedule = solution.schedules([instance])[0]
    opt_value = float(best.objectives[0])

    rows = [
        ["squashed area bound A(I)", f"{squashed_area_bound(instance):.4f}", "-"],
        ["height bound H(I)", f"{height_bound(instance):.4f}", "-"],
        ["combined lower bound", f"{combined_lower_bound(instance):.4f}", "-"],
        ["optimal (LP over orderings)", f"{opt_value:.4f}", "1.000"],
        [
            "best greedy (Conjecture 12)",
            f"{greedy.objective:.4f}",
            f"{greedy.objective / opt_value:.3f}",
        ],
        [
            "WDEQ (non-clairvoyant, Thm 4)",
            f"{wdeq.weighted_completion_time():.4f}",
            f"{wdeq.weighted_completion_time() / opt_value:.3f}",
        ],
    ]
    print(format_table(["quantity", "sum w_i C_i", "ratio to optimal"], rows))
    print()
    print("Optimal schedule (stacked allocation, one symbol per task):")
    print(render_allocation_chart(optimal_schedule, width=64, height=8))


if __name__ == "__main__":
    main()
