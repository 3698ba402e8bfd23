"""Common result container for all experiments.

Experiments return an :class:`ExperimentResult` (a small table plus notes
and a machine-readable summary) and receive their execution options as one
:class:`repro.exec.ExecutionContext`; per-instance loops go through
``ctx.map`` — there is no keyword-argument filtering anywhere (the
historical ``accepted_kwargs`` signature filter finished its deprecation
cycle and was removed from :mod:`repro.experiments.registry`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.viz.tables import format_markdown_table, format_table

__all__ = ["ExperimentResult"]


@dataclass
class ExperimentResult:
    """Outcome of one experiment run.

    Attributes
    ----------
    experiment_id:
        Identifier from DESIGN.md (E1, E2, ...).
    title:
        Human-readable title.
    paper_claim:
        One-sentence statement of what the paper claims / reports.
    headers, rows:
        The result table.
    notes:
        Free-form remarks (e.g. structural checks, gantt snippets).
    summary:
        Machine-readable key figures (used by tests and the report
        conclusion line).
    """

    experiment_id: str
    title: str
    paper_claim: str
    headers: Sequence[str]
    rows: list[Sequence[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    summary: dict[str, object] = field(default_factory=dict)

    def to_text(self) -> str:
        """Monospace rendering (for terminals / logs)."""
        parts = [
            f"[{self.experiment_id}] {self.title}",
            f"Paper claim: {self.paper_claim}",
            "",
            format_table(self.headers, self.rows),
        ]
        if self.notes:
            parts.append("")
            parts.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(parts)

    def to_markdown(self) -> str:
        """Markdown rendering (for EXPERIMENTS.md)."""
        parts = [
            f"### {self.experiment_id} — {self.title}",
            "",
            f"**Paper claim.** {self.paper_claim}",
            "",
            format_markdown_table(self.headers, self.rows),
        ]
        if self.summary:
            parts.append("")
            parts.append("**Measured.** " + "; ".join(f"{k} = {v}" for k, v in self.summary.items()))
        if self.notes:
            parts.append("")
            parts.extend(f"* {note}" for note in self.notes)
        return "\n".join(parts)
