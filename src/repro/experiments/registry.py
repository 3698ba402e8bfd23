"""Registry mapping experiment ids (DESIGN.md) to their run functions.

Execution options (seed, scale, backend, worker pool, cache) reach the
experiments as a single :class:`repro.exec.ExecutionContext` passed as
``ctx``; there is no per-experiment execution wiring and nothing is routed
by signature inspection.  The pre-context spelling — passing ``seed`` /
``paper_scale`` / ``runner`` / ``use_batch`` / ``cache`` as plain keyword
arguments — completed its deprecation cycle and now raises ``TypeError``
naming the ``ctx=`` replacement (see :func:`reject_legacy_options`).

Examples
--------
>>> from repro.exec import ExecutionContext
>>> from repro.experiments.registry import run_experiment
>>> result = run_experiment(
...     "E5", ctx=ExecutionContext(seed=1),
...     small_sizes=(2,), small_count=2, large_sizes=(), large_count=0)
>>> result.experiment_id
'E5'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.exec import ExecutionContext
from repro.experiments import (
    exp_bandwidth,
    exp_conjecture12,
    exp_conjecture13,
    exp_normal_form,
    exp_orderings,
    exp_preemptions,
    exp_scaling,
    exp_theorem11,
    exp_wdeq_ratio,
)
from repro.experiments.base import ExperimentResult

__all__ = [
    "ExperimentSpec",
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
    "reject_legacy_options",
]


#: The historical execution options, now carried by ``ExecutionContext``.
#: Their keyword spelling warned for a deprecation cycle and is now a hard
#: error — see :func:`reject_legacy_options`.
_LEGACY_EXECUTION_OPTIONS = frozenset({"seed", "paper_scale", "runner", "use_batch", "cache"})

#: ctx= replacement named in the error message, per legacy keyword.
_LEGACY_REPLACEMENTS = {
    "seed": "ExecutionContext(seed=...)",
    "paper_scale": "ExecutionContext(paper_scale=True)",
    "use_batch": "ExecutionContext()",
    "runner": "ExecutionContext(backend='process-pool', workers=N)",
    "cache": "ExecutionContext.from_options(cache_dir=...)",
}


def reject_legacy_options(params: Mapping[str, object]) -> None:
    """Raise ``TypeError`` when a pre-context execution kwarg is present.

    The ``seed`` / ``paper_scale`` / ``runner`` / ``use_batch`` / ``cache``
    keywords were translated into an :class:`~repro.exec.ExecutionContext`
    (with a :class:`DeprecationWarning` since the context landed); the
    translation shim is gone, and the error names the exact ``ctx=``
    spelling that replaces each option.
    """
    legacy = sorted(_LEGACY_EXECUTION_OPTIONS & params.keys())
    if legacy:
        hints = "; ".join(f"{name}= -> ctx={_LEGACY_REPLACEMENTS[name]}" for name in legacy)
        raise TypeError(
            f"the legacy execution keyword(s) {', '.join(legacy)} were removed: "
            f"pass a repro.exec.ExecutionContext instead ({hints})"
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """Metadata and entry point of one experiment."""

    experiment_id: str
    title: str
    paper_artifact: str
    run: Callable[..., ExperimentResult]


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in [
        ExperimentSpec(
            "E1",
            "Best greedy vs optimal (Conjecture 12)",
            "Section V-A experiments (10,000 instances per size)",
            exp_conjecture12.run,
        ),
        ExperimentSpec(
            "E2",
            "Order-reversal symmetry (Conjecture 13)",
            "Section V-B, checked up to 15 tasks",
            exp_conjecture13.run,
        ),
        ExperimentSpec(
            "E3",
            "Optimal order structure on homogeneous instances",
            "Section V-B optimal orders for n <= 5",
            exp_orderings.run,
        ),
        ExperimentSpec(
            "E4",
            "Greedy optimality for delta > P/2 (Theorem 11)",
            "Theorem 11 and Lemmas 7-8",
            exp_theorem11.run,
        ),
        ExperimentSpec(
            "E5",
            "Empirical approximation ratio of WDEQ",
            "Theorem 4 (2-approximation)",
            exp_wdeq_ratio.run,
        ),
        ExperimentSpec(
            "E6",
            "Preemption counts of WF schedules",
            "Theorems 9 and 10 (n and 3n bounds)",
            exp_preemptions.run,
        ),
        ExperimentSpec(
            "E7",
            "Table I coverage and runtime scaling",
            "Table I and the complexity discussion of Section I",
            exp_scaling.run,
        ),
        ExperimentSpec(
            "E8",
            "Bandwidth-sharing master-worker scenario",
            "Figure 1 and the Section I equivalence",
            exp_bandwidth.run,
        ),
        ExperimentSpec(
            "E9",
            "Normal form correctness round-trip",
            "Theorems 3 and 8",
            exp_normal_form.run,
        ),
    ]
}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment by id (case-insensitive)."""
    key = experiment_id.upper()
    try:
        return EXPERIMENTS[key]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from exc


def run_experiment(
    experiment_id: str, ctx: ExecutionContext | None = None, **params
) -> ExperimentResult:
    """Run an experiment by id with the given keyword overrides.

    ``ctx`` carries every execution option (seed, paper scale, backend,
    workers, cache); the remaining keyword arguments are experiment
    parameters and are forwarded verbatim, so a misspelled parameter raises
    ``TypeError`` instead of silently falling back to a default.

    The pre-context execution keywords (``seed``, ``paper_scale``,
    ``runner``, ``use_batch``, ``cache``) completed their deprecation cycle
    and now raise ``TypeError`` — e.g. ``run_experiment("E5",
    runner=...)`` must be spelled ``run_experiment("E5",
    ctx=ExecutionContext(backend="process-pool", workers=N))``.
    """
    reject_legacy_options(params)
    return get_experiment(experiment_id).run(ctx=ctx, **params)
