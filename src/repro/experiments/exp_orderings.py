"""Experiment E3 — structure of optimal orders on Section V-B instances.

The paper reports, for the homogeneous family sorted by non-increasing cap:

* ``n = 2``: orders 1,2 and 2,1 are optimal;
* ``n = 3``: orders 1,3,2 and 2,3,1 are optimal;
* ``n = 4``: orders 1,3,2,4 and 4,2,3,1 are optimal;
* ``n = 5``: any optimal order ``i,j,k,l,m`` satisfies
  ``(delta_l - delta_j)(delta_i - delta_m) <= 0``.

This experiment verifies those statements on random instances by exhaustive
enumeration of the greedy values; the per-instance enumerations run through
``ctx.map`` of the :class:`repro.exec.ExecutionContext`.  The greedy
recurrence is additionally cross-checked against the exact Corollary 1
optimum of :func:`repro.lp.optimal`, whose LPs (at most five tasks here) go
through the lockstep kernel on every backend.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algorithms.greedy_homogeneous import homogeneous_instance
from repro.analysis.orderings import five_task_condition_holds, optimal_order_structure
from repro.core.batch import InstanceBatch
from repro.core.bounds import times_close
from repro.exec import ExecutionContext
from repro.experiments.base import ExperimentResult
from repro.workloads.generators import homogeneous_halfdelta_deltas

__all__ = ["run"]


def _structure_flags(deltas: np.ndarray) -> tuple[bool, bool]:
    """Paper-order / measured-pattern optimality of one instance (picklable)."""
    structure = optimal_order_structure(deltas)
    return structure.predictions_optimal, structure.measured_pattern_optimal


def _greedy_optimum(deltas: np.ndarray) -> float:
    """Best greedy value over all orders of one instance (picklable)."""
    return optimal_order_structure(deltas).best_greedy_value


def _lp_cross_check(
    ctx: ExecutionContext, sizes: Sequence[int], count: int
) -> tuple[list[list[object]], bool]:
    """Compare the exhaustive greedy optimum with the Corollary 1 LP optimum."""
    from repro.lp.batch import optimal

    rows: list[list[object]] = []
    all_match = True
    for n in sizes:
        deltas_list = list(homogeneous_halfdelta_deltas(n, count, rng=ctx.rng(40 + n)))
        greedy_values = np.asarray(ctx.map(_greedy_optimum, deltas_list), dtype=float)
        batch = InstanceBatch.from_instances(
            [homogeneous_instance(deltas) for deltas in deltas_list]
        )
        lp_values = optimal(batch, ctx=ctx).objectives
        matches = int(np.sum(times_close(greedy_values, lp_values, rtol=1e-6, atol=1e-9)))
        all_match = all_match and matches == len(deltas_list)
        rows.append(
            [
                f"n={n} greedy optimum = Corollary-1 LP optimum",
                f"{matches}/{len(deltas_list)}",
            ]
        )
    return rows, all_match


def _five_task_flags(deltas: np.ndarray) -> list[bool]:
    """Condition check of every optimal order of one 5-task instance."""
    structure = optimal_order_structure(deltas)
    return [
        five_task_condition_holds(structure.deltas_sorted, order)
        for order in structure.optimal_orders
    ]


def run(
    sizes: Sequence[int] = (2, 3, 4),
    count: int = 60,
    five_task_count: int = 40,
    lp_check_sizes: Sequence[int] = (2, 3, 4),
    lp_check_count: int = 6,
    ctx: ExecutionContext | None = None,
) -> ExperimentResult:
    """Verify the published optimal orders (n <= 4) and the 5-task condition.

    ``lp_check_sizes`` / ``lp_check_count`` control the cross-check of the
    greedy recurrence against the exact Corollary 1 LP optimum (pass
    ``lp_check_sizes=()`` to skip it).
    """
    ctx = ctx if ctx is not None else ExecutionContext()
    count = ctx.scale(count, 1_000)
    five_task_count = ctx.scale(five_task_count, 500)
    lp_check_count = ctx.scale(lp_check_count, 100)
    rows: list[list[object]] = []
    paper_holds_small = True  # paper's printed orders for n <= 3
    measured_holds = True  # this reproduction's closed-form orders for n <= 4
    paper_n4_fraction = "n/a"
    for n in sizes:
        flags = ctx.map(_structure_flags, homogeneous_halfdelta_deltas(n, count, rng=ctx.rng()))
        paper_ok = sum(int(paper) for paper, _ in flags)
        measured_ok = sum(int(measured) for _, measured in flags)
        instances = len(flags)
        if n <= 3:
            paper_holds_small = paper_holds_small and paper_ok == instances
        else:
            paper_n4_fraction = f"{paper_ok}/{instances}"
        measured_holds = measured_holds and measured_ok == instances
        rows.append(
            [
                f"n={n} paper's printed orders optimal",
                f"{paper_ok}/{instances}",
            ]
        )
        rows.append(
            [
                f"n={n} measured closed-form orders optimal (1,3,...,2 pattern)",
                f"{measured_ok}/{instances}",
            ]
        )

    # The 5-task necessary condition.
    per_instance = ctx.map(
        _five_task_flags, homogeneous_halfdelta_deltas(5, five_task_count, rng=ctx.rng(5))
    )
    instances5 = len(per_instance)
    optimal_orders_checked = sum(len(flags) for flags in per_instance)
    condition_ok = sum(int(flag) for flags in per_instance for flag in flags)
    rows.append(
        [
            "n=5 optimal orders satisfying (d_l-d_j)(d_i-d_m) <= 0",
            f"{condition_ok}/{optimal_orders_checked} (over {instances5} instances)",
        ]
    )
    condition_holds = condition_ok == optimal_orders_checked
    summary: dict[str, object] = {
        "paper's n<=3 orders always optimal": paper_holds_small,
        "paper's printed n=4 order (1,3,2,4) optimal": paper_n4_fraction,
        "measured n<=4 pattern (1,3,2 / 1,3,4,2) always optimal": measured_holds,
        "5-task necessary condition always satisfied": condition_holds,
    }
    if lp_check_sizes:
        lp_rows, lp_match = _lp_cross_check(ctx, lp_check_sizes, lp_check_count)
        rows.extend(lp_rows)
        summary["greedy optimum matches the Corollary-1 LP optimum"] = lp_match
    return ExperimentResult(
        experiment_id="E3",
        title="Optimal greedy orders on homogeneous instances (Section V-B)",
        paper_claim=(
            "For n <= 4 the optimal orders are 1,2 / 1,3,2 / 1,3,2,4 (and their reversals); "
            "for n = 5 optimal orders satisfy (delta_l - delta_j)(delta_i - delta_m) <= 0."
        ),
        headers=["check", "result"],
        rows=rows,
        summary=summary,
        notes=[
            "Tasks are relabelled so that delta_1 >= delta_2 >= ... before comparing with the "
            "paper's published orders.",
            "Deviation: exhaustive exact computation (cross-checked against the Corollary 1 LP "
            "optimum) shows the optimal 4-task pair is 1,3,4,2 and its reverse 2,4,3,1, not the "
            "1,3,2,4 / 4,2,3,1 printed in the paper; the printed pair appears to be a typo since "
            "the measured pair preserves both the reversal symmetry of Conjecture 13 and the "
            "'small caps in the middle' structure of the 3-task case.",
        ],
    )
