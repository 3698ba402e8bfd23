"""Experiment harness reproducing the paper's quantitative evaluation.

Every experiment of DESIGN.md has a module here exposing a ``run`` function
that returns an :class:`~repro.experiments.base.ExperimentResult` (a small
table plus notes).  The registry (:mod:`repro.experiments.registry`) maps
experiment ids (E1, E2, ...) to those functions, and
:mod:`repro.experiments.report` assembles the results into the
``EXPERIMENTS.md`` document.

Default parameters are deliberately small so the whole suite runs in minutes
on a laptop; run with a paper-scale :class:`repro.exec.ExecutionContext`
(``ExecutionContext(paper_scale=True)``, or the ``--paper-scale`` CLI flag)
to use the instance counts reported in the paper (e.g. 10,000 random
instances per size for Conjecture 12).  The context also selects the
execution backend — ``serial``, ``process-pool`` or ``cluster`` — for every
experiment uniformly.
"""

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments.report import run_all, render_markdown_report

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
    "run_all",
    "render_markdown_report",
]
