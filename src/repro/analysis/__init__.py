"""Analysis utilities: ratios, conjecture checkers, structural properties.

These helpers sit between the raw algorithms and the experiment drivers:
they compute the quantities the paper's claims are about (approximation
ratios, greedy-vs-optimal gaps, preemption counts, ordering structure) on an
instance or on a batch of them, so that the experiment modules only have to
generate workloads and aggregate.
"""

from repro.analysis.stats import SummaryStats, summarize
from repro.analysis.ratios import policy_ratios, wdeq_ratio
from repro.analysis.conjectures import (
    Conjecture12Check,
    Conjecture13Check,
    check_conjecture12_batch,
    check_conjecture13,
)
from repro.analysis.orderings import (
    OrderingStructure,
    five_task_condition_holds,
    optimal_order_structure,
)
from repro.analysis.preemptions import PreemptionReport, preemption_report

__all__ = [
    "SummaryStats",
    "summarize",
    "wdeq_ratio",
    "policy_ratios",
    "Conjecture12Check",
    "Conjecture13Check",
    "check_conjecture12_batch",
    "check_conjecture13",
    "OrderingStructure",
    "optimal_order_structure",
    "five_task_condition_holds",
    "PreemptionReport",
    "preemption_report",
]
