"""Experiment E2 — the reversal symmetry of Conjecture 13 (Section V-B).

On homogeneous instances (``P = 1``, ``V_i = w_i = 1``, ``delta_i >= 1/2``)
the paper conjectures that the greedy value of any order equals the greedy
value of the reversed order, and reports a formal check up to 15 tasks.  This
experiment verifies the symmetry numerically on random instances up to 15
tasks (all orders for small ``n``, a random sample of orders beyond).

The per-instance order enumeration is the expensive part; it runs through
``ctx.map`` so a process-pool :class:`repro.exec.ExecutionContext` shards
the instances over workers.

Beyond the paper's greedy-value check, the experiment also tests the
symmetry for the *optimal-for-order* values: the Corollary 1 LP of
:mod:`repro.lp` gives the exact optimum among schedules respecting a fixed
completion ordering, and on the homogeneous family the LP value of an order
should equal the LP value of its reversal just like the greedy value does.
Every (instance, order, reversal) triple goes into one
:func:`repro.lp.batch.solve_ordered_relaxation_batch` call, whose problem
size picks the solver, so the reported numbers are the same on every
backend (pinned by the golden-file suite).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

import numpy as np

from repro.algorithms.greedy_homogeneous import homogeneous_instance
from repro.analysis.conjectures import check_conjecture13
from repro.core.batch import InstanceBatch
from repro.exec import ExecutionContext
from repro.experiments.base import ExperimentResult
from repro.lp.batch import optimal, solve_ordered_relaxation_batch
from repro.workloads.generators import homogeneous_halfdelta_deltas

__all__ = ["run"]

#: Tolerance under which two LP values count as symmetric (the solves chain
#: hundreds of pivots, so exact equality is not meaningful).
LP_SYMMETRY_RTOL = 1e-6


def _lp_reversal_asymmetry(
    ctx: ExecutionContext, sizes: Sequence[int], count: int, max_orders: int
) -> tuple[list[list[object]], float, bool]:
    """Rows + statistics of the LP-value reversal check for every size."""
    rows: list[list[object]] = []
    overall = 0.0
    all_hold = True
    for n in sizes:
        instances = [
            homogeneous_instance(deltas)
            for deltas in homogeneous_halfdelta_deltas(n, count, rng=ctx.rng(50 + n))
        ]
        if math.factorial(n) <= max_orders:
            orders = list(itertools.permutations(range(n)))
        else:
            order_rng = np.random.default_rng(ctx.seed + 1000 + n)
            orders = [tuple(order_rng.permutation(n)) for _ in range(max_orders)]
        # One padded batch holding every (instance, order) pair and its
        # reversal; one batched solve prices them all.
        pair_instances = [inst for inst in instances for _ in orders for _ in (0, 1)]
        pair_orders = [
            list(o) if direction == 0 else list(o)[::-1]
            for _ in instances
            for o in orders
            for direction in (0, 1)
        ]
        batch = InstanceBatch.from_instances(pair_instances)
        solution = solve_ordered_relaxation_batch(batch, pair_orders, ctx=ctx)
        values = solution.objectives.reshape(len(instances), len(orders), 2)
        asym = np.abs(values[:, :, 0] - values[:, :, 1]) / np.maximum(1.0, np.abs(values[:, :, 0]))
        symmetric = asym <= LP_SYMMETRY_RTOL
        max_asym = float(asym.max()) if asym.size else 0.0
        overall = max(overall, max_asym)
        all_hold = all_hold and bool(symmetric.all())
        rows.append(
            [
                f"{n} (LP values)",
                len(instances),
                values.shape[0] * values.shape[1],
                f"{max_asym:.2e}",
                f"{int(symmetric.sum())}/{symmetric.size}",
            ]
        )
    return rows, overall, all_hold


def _exact_engine_cross_check(
    ctx: ExecutionContext, sizes: Sequence[int], count: int
) -> tuple[list[list[object]], bool]:
    """Rows comparing the branch-and-bound exact OPT against enumeration.

    Both paths go through :func:`repro.lp.optimal` — the branch-and-bound
    of :mod:`repro.lp.exact` and the exhaustive ordering enumeration must
    agree on every instance.
    """

    rows: list[list[object]] = []
    all_match = True
    for n in sizes:
        instances = [
            homogeneous_instance(deltas)
            for deltas in homogeneous_halfdelta_deltas(n, count, rng=ctx.rng(70 + n))
        ]
        batch = InstanceBatch.from_instances(instances)
        engine = optimal(batch, ctx=ctx)
        reference = optimal(batch, method="enumerate", ctx=ctx)
        gap = np.abs(engine.objectives - reference.objectives) / np.maximum(1.0, reference.objectives)
        matches = int(np.sum(gap <= LP_SYMMETRY_RTOL))
        all_match = all_match and matches == len(instances)
        rows.append(
            [
                f"{n} (exact OPT: branch-and-bound = enumeration)",
                len(instances),
                reference.orderings_evaluated,
                f"{float(gap.max()) if gap.size else 0.0:.2e}",
                f"{matches}/{len(instances)}",
            ]
        )
    return rows, all_match


def _check_symmetry(deltas: np.ndarray, max_orders: int, order_seed: int):
    """Check one instance (module-level so it pickles into worker processes)."""
    return check_conjecture13(
        deltas, max_orders=max_orders, rng=np.random.default_rng(order_seed)
    )


def run(
    sizes: Sequence[int] = (2, 3, 4, 5, 8, 10, 12, 15),
    count: int = 40,
    max_orders: int = 200,
    lp_sizes: Sequence[int] = (3, 4),
    lp_count: int = 4,
    lp_orders: int = 8,
    ctx: ExecutionContext | None = None,
) -> ExperimentResult:
    """Check the reversal symmetry on random Section V-B instances.

    The greedy-value check follows the paper; the ``lp_*`` parameters
    control the additional LP-value symmetry check (the optimal-for-order
    values of Corollary 1 — pass ``lp_sizes=()`` to skip it).  A paper-scale context increases the number
    of instances per size and the number of orders sampled per instance.
    """
    ctx = ctx if ctx is not None else ExecutionContext()
    count = ctx.scale(count, 500)
    max_orders = ctx.scale(max_orders, 2_000)
    lp_count = ctx.scale(lp_count, 40)
    rows: list[list[object]] = []
    overall_max = 0.0
    all_hold = True
    for n in sizes:
        check = functools.partial(
            _check_symmetry, max_orders=max_orders, order_seed=ctx.seed + n
        )
        checks = ctx.map(check, homogeneous_halfdelta_deltas(n, count, rng=ctx.rng()))
        asymmetries = [c.max_asymmetry for c in checks]
        orders_checked = sum(c.orders_checked for c in checks)
        holds = sum(int(c.holds) for c in checks)
        max_asym = float(np.max(asymmetries)) if asymmetries else 0.0
        overall_max = max(overall_max, max_asym)
        all_hold = all_hold and holds == len(asymmetries)
        rows.append([n, len(asymmetries), orders_checked, f"{max_asym:.2e}", f"{holds}/{len(asymmetries)}"])
    summary: dict[str, object] = {
        "max relative asymmetry": f"{overall_max:.2e}",
        "symmetry holds on every instance": all_hold,
    }
    notes = [
        "All orders are enumerated when n! <= max_orders, otherwise a random sample of "
        "max_orders permutations is used.",
    ]
    if lp_sizes:
        lp_rows, lp_max, lp_holds = _lp_reversal_asymmetry(ctx, lp_sizes, lp_count, lp_orders)
        rows.extend(lp_rows)
        summary["max relative LP asymmetry (Corollary 1)"] = f"{lp_max:.2e}"
        summary["LP values reversal-symmetric"] = lp_holds
        notes.append(
            "The '(LP values)' rows check the symmetry for the exact optimal-for-order values "
            "of the Corollary 1 LP (the lockstep kernel up to 8 tasks, HiGHS above), not "
            "just the greedy recurrence."
        )
        engine_rows, engine_match = _exact_engine_cross_check(ctx, lp_sizes, lp_count)
        rows.extend(engine_rows)
        summary["exact OPT: branch-and-bound matches enumeration"] = engine_match
        notes.append(
            "The '(exact OPT)' rows cross-validate the branch-and-bound exact engine "
            "(repro.lp.exact) against exhaustive ordering enumeration on the same instances; "
            "the 'orders checked' column counts the LPs the enumeration needed."
        )
    return ExperimentResult(
        experiment_id="E2",
        title="Order-reversal symmetry of greedy values (Conjecture 13)",
        paper_claim=(
            "For homogeneous instances (V = w = 1, P = 1, delta >= 1/2) the greedy value of "
            "an order equals the value of the reversed order; checked formally up to 15 tasks."
        ),
        headers=["n", "instances", "orders checked", "max |forward - reversed| (rel.)", "symmetric"],
        rows=rows,
        summary=summary,
        notes=notes,
    )
