"""Assemble experiment and sweep results into Markdown reports.

:func:`run_all` / :func:`render_markdown_report` build the classic
``EXPERIMENTS.md`` document from the E1–E9 harness;
:func:`render_sweep_report` renders the records persisted by a
:class:`repro.scenarios.store.ResultsStore` (a directory holding
``results.jsonl``) into the same Markdown style, so sweep outputs slot into
the report pipeline.
"""

from __future__ import annotations

import datetime
import os
from typing import Any, Iterable, Mapping, Sequence

from repro.exec import ExecutionContext
from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, reject_legacy_options
from repro.viz.tables import format_markdown_table

__all__ = ["run_all", "render_markdown_report", "render_sweep_report"]


def run_all(
    experiment_ids: Sequence[str] | None = None,
    ctx: ExecutionContext | None = None,
    **kwargs,
) -> list[ExperimentResult]:
    """Run every (or the selected) experiment and collect the results.

    All execution options travel in ``ctx`` (the same context is handed to
    every experiment, so ``malleable-repro all --workers N``
    exercises one code path end to end).  Remaining keyword arguments are
    experiment parameters forwarded verbatim to every selected experiment —
    useful when selecting a single experiment, and a ``TypeError`` when a
    parameter does not fit one of the selected experiments.  The legacy
    execution keywords (``seed`` / ``paper_scale`` / ``runner`` /
    ``use_batch`` / ``cache``) raise ``TypeError`` naming the ``ctx=``
    replacement.
    """
    reject_legacy_options(kwargs)
    ids = list(experiment_ids) if experiment_ids else sorted(EXPERIMENTS)
    results = []
    for experiment_id in ids:
        spec = EXPERIMENTS[experiment_id.upper()]
        results.append(spec.run(ctx=ctx, **kwargs))
    return results


def render_markdown_report(
    results: Iterable[ExperimentResult], title: str = "Experiment results"
) -> str:
    """Render a full Markdown report from a collection of results."""
    results = list(results)
    lines = [
        f"# {title}",
        "",
        "Reproduction of *Minimizing Weighted Mean Completion Time for Malleable Tasks "
        "Scheduling* (Beaumont, Bonichon, Eyraud-Dubois, Marchal — IPDPS 2012).",
        "",
        f"Generated on {datetime.date.today().isoformat()} by `repro.experiments.report`.",
        "",
        "| Experiment | Paper artifact | Headline result |",
        "|---|---|---|",
    ]
    for result in results:
        headline = "; ".join(f"{k}: {v}" for k, v in list(result.summary.items())[:2])
        lines.append(f"| {result.experiment_id} | {result.title} | {headline} |")
    lines.append("")
    for result in results:
        lines.append(result.to_markdown())
        lines.append("")
    return "\n".join(lines)


def render_sweep_report(
    source: "str | os.PathLike | Sequence[Mapping[str, Any]]",
    title: str = "Sweep results",
    metrics: Sequence[str] = (),
) -> str:
    """Render a results store (or raw records) as a Markdown section.

    ``source`` is either a store directory / ``results.jsonl`` path written
    by :class:`repro.scenarios.store.ResultsStore`, or an in-memory record
    sequence.  The table layout matches
    :func:`repro.scenarios.store.summary_table`, prefixed with a per-scenario
    cell/record census so a report reader can see the sweep's size at a
    glance.
    """
    from repro.scenarios.store import load_records, summary_table

    if isinstance(source, (str, os.PathLike)):
        records: Sequence[Mapping[str, Any]] = load_records(source)
    else:
        records = list(source)
    headers, rows = summary_table(records, metrics)
    census: dict[str, set[int]] = {}
    for record in records:
        census.setdefault(str(record["scenario"]), set()).add(int(record["cell"]))
    lines = [f"## {title}", ""]
    for name in sorted(census):
        cells = census[name]
        lines.append(
            f"* `{name}` — {len(cells)} grid cell(s), "
            f"{sum(1 for r in records if r['scenario'] == name)} record(s)"
        )
    if census:
        lines.append("")
    lines.append(format_markdown_table(headers, rows))
    return "\n".join(lines)
