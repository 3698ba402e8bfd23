"""Experiment E5 — empirical approximation ratio of WDEQ (Theorem 4).

Theorem 4 proves that WDEQ is a 2-approximation for the weighted sum of
completion times.  The experiment measures the achieved ratio

* against the exact optimum on small instances (``n <= 5``): one batched
  WDEQ simulation divided by one branch-and-bound call per size, sharded by
  ``ctx.map_batch``, and
* against the combined lower bound of Lemma 1 on larger instances,

and compares WDEQ to the baselines it generalises (DEQ, the cap-less
weighted fair share) and to the clairvoyant Smith-priority policy.

The large-instance section is a *scenario sweep*: its grid lives in the
scenario registry as ``e5-policy-comparison`` (see
:mod:`repro.scenarios.registry`) and this module merely narrows the grid to
the requested sizes and runs it through
:class:`repro.scenarios.runner.SweepRunner`, where every cell is one
:func:`repro.batch.sim_kernels.simulate_batch` call per policy on every
backend, so the rows are identical across backends (the test suite checks
them against the scalar per-instance engine).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.stats import summarize
from repro.batch.sim_kernels import WdeqBatchPolicy, simulate_batch
from repro.core.batch import InstanceBatch
from repro.exec import ExecutionContext
from repro.experiments.base import ExperimentResult, map_instances
from repro.lp.batch import optimal
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import SweepRunner
from repro.workloads.generators import uniform_instances

__all__ = ["run", "exact_wdeq_ratios"]


def exact_wdeq_ratios(batch: InstanceBatch) -> np.ndarray:
    """WDEQ / OPT of every row (row-independent, for ``ctx.map_batch``).

    A row whose optimum is 0 (no work) reads 1.0.
    """
    wdeq = simulate_batch(batch, WdeqBatchPolicy()).weighted_completion_times()
    opt = optimal(batch).objectives
    return np.where(opt > 0, wdeq / np.where(opt > 0, opt, 1.0), 1.0)


def run(
    small_sizes: Sequence[int] = (2, 3, 4, 5),
    small_count: int = 20,
    large_sizes: Sequence[int] = (10, 25, 50),
    large_count: int = 10,
    ctx: ExecutionContext | None = None,
) -> ExperimentResult:
    """Measure WDEQ's ratio and compare online policies."""
    ctx = ctx if ctx is not None else ExecutionContext()
    small_count = ctx.scale(small_count, 500)
    large_count = ctx.scale(large_count, 100)
    rows: list[list[object]] = []
    notes = [
        "The lower-bound denominator (Lemma 1 mixed bound) is itself below OPT, so the "
        "large-instance ratios over-estimate the true ratio; values below 2 are therefore "
        "conservative evidence for the theorem.",
    ]
    max_ratio_exact = 0.0
    for n in small_sizes:
        ratios = map_instances(ctx, exact_wdeq_ratios, uniform_instances(n, small_count, rng=ctx.rng()))
        stats = summarize(ratios)
        max_ratio_exact = max(max_ratio_exact, stats.maximum)
        rows.append(
            ["WDEQ / OPT (exact)", n, stats.count, f"{stats.mean:.3f}", f"{stats.maximum:.3f}"]
        )

    # Large instances: the registry scenario narrowed to the requested grid.
    records: list[dict] = []
    if large_sizes and large_count > 0:
        spec = get_scenario("e5-policy-comparison").with_overrides(
            grid={"n": tuple(large_sizes)}, count=large_count
        )
        records = SweepRunner(spec, ctx).run().records
    max_ratio_bound = 0.0
    policy_totals: dict[str, dict[str, float]] = {}
    for record in records:
        label, metrics = record["label"], record["metrics"]
        totals = policy_totals.setdefault(
            label, {"count": 0, "mean_sum": 0.0, "cells": 0, "max": 0.0}
        )
        totals["count"] += record["count"]
        totals["mean_sum"] += metrics["mean_ratio"]
        totals["cells"] += 1
        totals["max"] = max(totals["max"], metrics["max_ratio"])
        if label == "WDEQ":
            max_ratio_bound = max(max_ratio_bound, metrics["max_ratio"])
            rows.append(
                [
                    "WDEQ / lower bound",
                    record["params"].get("n", "-"),
                    record["count"],
                    f"{metrics['mean_ratio']:.3f}",
                    f"{metrics['max_ratio']:.3f}",
                ]
            )
    for name in sorted(policy_totals):
        totals = policy_totals[name]
        mean = totals["mean_sum"] / totals["cells"] if totals["cells"] else 0.0
        rows.append(
            [
                f"{name} / lower bound (all large n)",
                "-",
                int(totals["count"]),
                f"{mean:.3f}",
                f"{totals['max']:.3f}",
            ]
        )
    notes.append(
        "Large-instance section runs the registry scenario 'e5-policy-comparison' through "
        "repro.scenarios.SweepRunner: one batched discrete-event sweep per cell "
        "(repro.batch.sim_kernels.simulate_batch) on every backend; the test suite checks "
        "it against the scalar engine up to floating-point noise."
    )
    return ExperimentResult(
        experiment_id="E5",
        title="Empirical approximation ratio of WDEQ (Theorem 4)",
        paper_claim="WDEQ is a 2-approximation for the weighted sum of completion times.",
        headers=["ratio", "n", "instances", "mean", "max"],
        rows=rows,
        summary={
            "max WDEQ/OPT on small instances": f"{max_ratio_exact:.3f}",
            "max WDEQ/lower bound on large instances": f"{max_ratio_bound:.3f}",
            "always below 2": bool(max_ratio_exact <= 2.0 + 1e-9),
        },
        notes=notes,
    )
