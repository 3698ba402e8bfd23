"""Scheduling algorithms from the paper and the baselines it compares against.

Clairvoyant algorithms
----------------------
* :mod:`repro.algorithms.water_filling` — the Water-Filling normal-form
  algorithm of Section IV (Algorithm 2 / Theorem 8).
* :mod:`repro.algorithms.greedy` — greedy schedules (Algorithm 3) and the
  best-greedy search used in the Conjecture 12 experiments.
* :mod:`repro.algorithms.greedy_homogeneous` — the closed-form greedy
  recurrence for the homogeneous instances of Section V-B.
* :mod:`repro.algorithms.makespan` / :mod:`repro.algorithms.lateness` —
  polynomial solvers for the ``C_max`` and ``L_max`` objectives mentioned in
  Table I.

Non-clairvoyant algorithms
--------------------------
* :mod:`repro.algorithms.wdeq` — WDEQ (Algorithm 1), the paper's weighted
  dynamic equipartition 2-approximation, plus the DEQ and Weighted
  Round-Robin baselines it generalises.

Support
-------
* :mod:`repro.algorithms.profile` — the piecewise-constant availability
  profile used by the greedy scheduler.
* :mod:`repro.algorithms.ordering` — ordering heuristics (Smith's rule,
  height order, ...).
* :mod:`repro.algorithms.preemption` — processor assignment and preemption
  accounting (Lemmas 6 and 10).
"""

from repro.algorithms.profile import CapacityProfile
from repro.algorithms.water_filling import (
    water_filling_levels,
    water_filling_schedule,
)
from repro.algorithms.wdeq import (
    deq_schedule,
    wdeq_allocation,
    wdeq_schedule,
    weighted_round_robin_schedule,
)
from repro.algorithms.greedy import (
    best_greedy_schedule,
    greedy_completion_times,
    greedy_schedule,
    local_search_greedy_schedule,
)
from repro.algorithms.greedy_homogeneous import (
    homogeneous_greedy_completion_times,
    homogeneous_greedy_value,
    homogeneous_best_order,
)
from repro.algorithms.ordering import ORDERING_HEURISTICS, order_by
from repro.algorithms.makespan import minimal_makespan, makespan_schedule
from repro.algorithms.lateness import minimize_max_lateness
from repro.algorithms.preemption import (
    assign_processors,
    integer_allocation_change_count,
)

__all__ = [
    "CapacityProfile",
    "water_filling_levels",
    "water_filling_schedule",
    "wdeq_allocation",
    "wdeq_schedule",
    "deq_schedule",
    "weighted_round_robin_schedule",
    "greedy_schedule",
    "greedy_completion_times",
    "best_greedy_schedule",
    "local_search_greedy_schedule",
    "homogeneous_greedy_completion_times",
    "homogeneous_greedy_value",
    "homogeneous_best_order",
    "ORDERING_HEURISTICS",
    "order_by",
    "minimal_makespan",
    "makespan_schedule",
    "minimize_max_lateness",
    "assign_processors",
    "integer_allocation_change_count",
]
