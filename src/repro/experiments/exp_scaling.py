"""Experiment E7 — Table I summary and runtime scaling of the solvers.

Table I of the paper is a complexity comparison; the computational content
reproduced here is (a) a summary of which model each of our solvers covers,
mirroring the table's rows, and (b) measured runtimes of the polynomial
algorithms (Water-Filling, greedy, WDEQ, the makespan and max-lateness
solvers) and of the fixed-ordering LP with both solvers, as the task count
grows — the paper claims O(n log n) for WF-based solvers, O(n^2) for the
makespan algorithm of reference [10], and NP-hardness only for the weighted
completion time objective itself.

The polynomial-solver sweep is a scenario: its grid lives in the registry as
``e7-solver-scaling`` (see :mod:`repro.scenarios.registry`) and runs through
:class:`repro.scenarios.runner.SweepRunner`'s ``solver-timing`` pipeline, so
``malleable-repro sweep e7-solver-scaling`` reproduces it standalone.  The
LP-solver and batched-substrate measurements remain inline (they time the
execution layer itself, which a sweep cell cannot meaningfully wrap).
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from repro.core.batch import InstanceBatch
from repro.core.instance import Instance
from repro.exec import ExecutionContext
from repro.experiments.base import ExperimentResult
from repro.lp.batch import build_ordered_lp_batch, solve_ordered_relaxation_batch
from repro.lp.interface import solve_ordered_relaxation
from repro.lp.simplex import solve_linear_program_batch
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import SweepRunner
from repro.workloads.generators import cluster_instances

__all__ = ["run", "TABLE_I_ROWS"]

#: Rows of Table I with the module of this library that covers each setting.
# fmt: off
TABLE_I_ROWS: list[list[str]] = [
    ["delta_i != (het.)", "V_i != (het.)", "sum w_i C_i", "non-clairvoyant", "2-approx (WDEQ)", "repro.algorithms.wdeq"],
    ["delta_i = 1", "V_i !=", "sum C_i", "non-clairvoyant", "2-approx [12]", "repro.simulation.policies.DeqPolicy"],
    ["delta_i !=", "V_i !=", "sum C_i", "non-clairvoyant", "2-approx (DEQ [13])", "repro.algorithms.wdeq.deq_schedule"],
    ["delta_i = P", "V_i !=", "sum w_i C_i", "non-clairvoyant", "2-approx (WRR [14])", "repro.algorithms.wdeq.weighted_round_robin_schedule"],
    ["delta_i !=", "V_i =", "sum C_i", "clairvoyant", "open (Section V-B)", "repro.algorithms.greedy_homogeneous"],
    ["delta_i = P", "V_i !=", "sum w_i C_i", "clairvoyant", "polynomial (Smith [15])", "repro.core.bounds.squashed_area_bound"],
    ["delta_i !=", "V_i !=", "C_max", "clairvoyant", "O(n^2) [10]", "repro.algorithms.makespan"],
    ["delta_i !=", "V_i !=", "L_max", "clairvoyant", "O(n^4 P) [2] / O(n log n) via WF", "repro.algorithms.lateness"],
    ["delta_i !=", "V_i !=", "sum w_i C_i", "clairvoyant", "NP-complete; LP per ordering", "repro.lp.exact"],
]
# fmt: on


def _time_call(fn: Callable[[], object], repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(
    sizes: Sequence[int] = (10, 50, 200, 500),
    lp_sizes: Sequence[int] = (5, 10, 20),
    simplex_sizes: Sequence[int] = (5, 10),
    batch_sizes: Sequence[int] = (64,),
    batch_task_count: int = 32,
    lp_batch_task_count: int = 5,
    ctx: ExecutionContext | None = None,
) -> ExperimentResult:
    """Measure runtimes of the polynomial solvers and the LP solvers.

    In addition to the per-instance solver timings, the experiment measures
    the batched-execution substrate: for each ``B`` in ``batch_sizes`` it
    compares ``B`` scalar discrete-event simulations of WDEQ against one
    :func:`repro.batch.sim_kernels.simulate_batch` call, and ``B`` scalar
    SciPy solves of the Corollary 1 ordered relaxation (at
    ``lp_batch_task_count`` tasks) against one
    :func:`repro.lp.batch.solve_ordered_relaxation_batch` lockstep solve,
    reporting the two throughput gains in the summary.  Pass
    ``batch_sizes=()`` to skip that section.
    """
    ctx = ctx if ctx is not None else ExecutionContext()
    if ctx.paper_scale:
        sizes = (10, 50, 200, 500, 1000, 2000)
        lp_sizes = (5, 10, 20, 40)
        batch_sizes = (64, 256, 1024)
    rows: list[list[object]] = []
    rng = ctx.rng()
    instances: dict[int, Instance] = {}
    for n in sorted(set(lp_sizes) | set(simplex_sizes)):
        instances[n] = next(cluster_instances(n, 1, rng=rng))

    summary_exact: dict[str, str] = {}
    if sizes:
        spec = get_scenario("e7-solver-scaling").with_overrides(grid={"n": tuple(sizes)})
        sweep = SweepRunner(spec, ctx).run()
        by_cell: dict[int, dict[str, float]] = {}
        cell_sizes: dict[int, object] = {}
        for record in sweep.records:
            by_cell.setdefault(record["cell"], {})[record["label"]] = record["metrics"]["best_ms"]
            cell_sizes[record["cell"]] = record["params"].get("n", "-")
        for cell in sorted(by_cell):
            timings = by_cell[cell]
            lp_ms = timings.get("ordered LP (HiGHS)")
            rows.append(
                [
                    cell_sizes[cell],
                    f"{timings['WDEQ']:.2f}",
                    f"{timings['WF normal form']:.2f}",
                    f"{timings['greedy']:.2f}",
                    f"{timings['C_max']:.3f}",
                    f"{timings['L_max']:.2f}",
                    f"{lp_ms:.2f}" if lp_ms is not None else "-",
                    "-",
                ]
            )
            exact_ms = timings.get("exact OPT (branch-and-bound)")
            if exact_ms is not None:
                summary_exact[f"exact OPT via branch-and-bound (n={cell_sizes[cell]})"] = (
                    f"{exact_ms:.1f} ms"
                )
    for n in lp_sizes:
        inst = instances[n]
        order = inst.smith_order()
        scipy_time = _time_call(
            lambda: solve_ordered_relaxation(inst, order, build_schedule=False)
        )
        simplex_time = None
        if n in simplex_sizes:
            # The lockstep kernel itself on a batch of one, whatever n: the
            # batched entry point would hand n > 8 to HiGHS.
            single = InstanceBatch.from_instances([inst])

            def lockstep() -> object:
                lp = build_ordered_lp_batch(single, [order])
                return solve_linear_program_batch(lp.c, lp.A_ub, lp.b_ub, lp.A_eq, lp.b_eq)

            simplex_time = _time_call(lockstep, repeats=1)
        rows.append(
            [
                n,
                "-",
                "-",
                "-",
                "-",
                "-",
                f"{scipy_time * 1e3:.2f}",
                f"{simplex_time * 1e3:.2f}" if simplex_time is not None else "-",
            ]
        )
    summary: dict[str, object] = {"table I coverage rows": len(TABLE_I_ROWS)}
    summary.update(summary_exact)
    notes = [
        "Table I coverage: " + "; ".join(f"{r[2]} / {r[3]} -> {r[5]}" for r in TABLE_I_ROWS),
        "Runtimes are best-of-3 wall-clock measurements on the synthetic cluster workload "
        "(the polynomial-solver rows come from the 'e7-solver-scaling' scenario sweep); "
        "pytest-benchmark variants live in benchmarks/bench_scaling.py.",
    ]
    if summary_exact:
        notes.append(
            "The exact-OPT entry times the full branch-and-bound search of repro.lp.exact "
            "(NP-hard; enumeration would solve n! LPs per instance) on the sweep's n=10 cell; "
            "the scenario opts in via params.exact_max_n."
        )
    for B in batch_sizes:
        from repro.batch.sim_kernels import WdeqBatchPolicy, simulate_batch
        from repro.simulation.engine import simulate
        from repro.simulation.policies import WdeqPolicy

        batch_rng = ctx.rng(1)
        batch_instances = list(cluster_instances(batch_task_count, B, rng=batch_rng))
        padded = InstanceBatch.from_instances(batch_instances)
        sim_serial_time = _time_call(
            lambda: [simulate(inst, WdeqPolicy()) for inst in batch_instances], repeats=1
        )
        sim_batch_time = _time_call(
            lambda: simulate_batch(padded, WdeqBatchPolicy()), repeats=1
        )
        sim_speedup = sim_serial_time / sim_batch_time if sim_batch_time > 0 else float("inf")
        rows.append(
            [
                f"B={B} x n={batch_task_count} (event sim)",
                f"{sim_serial_time * 1e3:.2f} (serial)",
                f"{sim_batch_time * 1e3:.2f} (batched)",
                "-",
                "-",
                "-",
                "-",
                "-",
            ]
        )
        summary[f"simulate_batch speedup (B={B})"] = f"{sim_speedup:.1f}x"

        from repro.lp.batch import smith_orders_batch
        from repro.workloads.generators import uniform_instances

        lp_rng = ctx.rng(2)
        lp_instances = list(uniform_instances(lp_batch_task_count, B, rng=lp_rng))
        lp_orders = [inst.smith_order() for inst in lp_instances]
        lp_serial_time = _time_call(
            lambda: [
                solve_ordered_relaxation(inst, order, build_schedule=False)
                for inst, order in zip(lp_instances, lp_orders)
            ],
            repeats=1,
        )
        lp_padded = InstanceBatch.from_instances(lp_instances)
        lp_batch_time = _time_call(
            lambda: solve_ordered_relaxation_batch(lp_padded, smith_orders_batch(lp_padded)),
            repeats=1,
        )
        lp_speedup = lp_serial_time / lp_batch_time if lp_batch_time > 0 else float("inf")
        rows.append(
            [
                f"B={B} x n={lp_batch_task_count} (ordered LP)",
                f"{lp_serial_time * 1e3:.2f} (serial)",
                f"{lp_batch_time * 1e3:.2f} (batched)",
                "-",
                "-",
                "-",
                "-",
                "-",
            ]
        )
        summary[f"lp_batch speedup (B={B})"] = f"{lp_speedup:.1f}x"
    if batch_sizes:
        notes.append(
            "The B=... rows compare B scalar runs against one vectorized call on the padded "
            "batch (columns 2 and 3 reuse the WDEQ slots: serial total vs batched total); "
            "the '(event sim)' rows time the batched discrete-event engine "
            "repro.batch.sim_kernels.simulate_batch against the scalar "
            "repro.simulation.engine.simulate, and the '(ordered LP)' rows the lockstep "
            "Corollary-1 solver repro.lp.batch.solve_ordered_relaxation_batch against "
            "per-instance SciPy/HiGHS solves."
        )
    return ExperimentResult(
        experiment_id="E7",
        title="Solver coverage (Table I) and runtime scaling",
        paper_claim=(
            "Makespan and max-lateness are polynomial; the weighted completion time is "
            "NP-complete but reduces to one LP per completion ordering (Corollary 1); the "
            "WF-based solvers run in near O(n log n)."
        ),
        headers=[
            "n",
            "WDEQ (ms)",
            "WF normal form (ms)",
            "greedy (ms)",
            "C_max (ms)",
            "L_max (ms)",
            "ordered LP, HiGHS (ms)",
            "ordered LP, simplex (ms)",
        ],
        rows=rows,
        summary=summary,
        notes=notes,
    )
