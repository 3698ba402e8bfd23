"""Approximation-ratio measurements on a single instance.

Three comparisons are used throughout the experiments:

* greedy vs exact optimum (Conjecture 12, Theorem 11),
* WDEQ vs exact optimum (small instances) — Theorem 4 says the ratio is at
  most 2,
* WDEQ (and other online policies) vs the combined lower bound of Lemma 1 —
  usable on instances far too large for the brute-force optimum; a ratio
  below 2 against the lower bound is implied by Theorem 4, and the measured
  values show how loose the bound is in practice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.greedy import best_greedy_schedule
from repro.algorithms.optimal import optimal_value
from repro.algorithms.wdeq import wdeq_schedule
from repro.core.bounds import combined_lower_bound
from repro.core.instance import Instance
from repro.core.objectives import weighted_completion_time
from repro.simulation.nonclairvoyant import compare_policies

__all__ = ["GreedyGap", "greedy_vs_optimal", "wdeq_ratio", "policy_ratios"]


@dataclass(frozen=True)
class GreedyGap:
    """Best-greedy value against the exact optimum on one instance."""

    best_greedy: float
    optimal: float

    @property
    def ratio(self) -> float:
        """``best_greedy / optimal`` (1.0 means the greedy schedule is optimal)."""
        if self.optimal <= 0:
            return 1.0
        return self.best_greedy / self.optimal

    @property
    def relative_gap(self) -> float:
        """``(best_greedy - optimal) / optimal``; ~0 supports Conjecture 12."""
        if self.optimal <= 0:
            return 0.0
        return (self.best_greedy - self.optimal) / self.optimal


def greedy_vs_optimal(instance: Instance) -> GreedyGap:
    """Compare the best greedy schedule with the exact optimum (small ``n`` only)."""
    greedy = best_greedy_schedule(instance)
    opt = optimal_value(instance)
    return GreedyGap(best_greedy=greedy.objective, optimal=opt)


def wdeq_ratio(instance: Instance, exact: bool | None = None) -> float:
    """Measured WDEQ approximation ratio on one instance.

    ``exact=True`` compares against the brute-force optimum (requires small
    ``n``); ``exact=False`` uses the combined lower bound of Lemma 1;
    ``exact=None`` (default) picks the exact optimum when ``n <= 6`` and the
    lower bound otherwise.
    """
    if exact is None:
        exact = instance.n <= 6
    wdeq_value = wdeq_schedule(instance).weighted_completion_time()
    if exact:
        reference = optimal_value(instance)
    else:
        reference = combined_lower_bound(instance)
    if reference <= 0:
        return 1.0
    return wdeq_value / reference


def policy_ratios(instance: Instance, exact: bool | None = None) -> dict[str, float]:
    """Ratio of every default online policy against the chosen reference.

    Policies whose schedules are infeasible in the malleable model (e.g. the
    cap-less weighted fair share once clamped) are still reported: after
    clamping, the engine produces a feasible execution, just not the one the
    policy "intended".
    """
    if exact is None:
        exact = instance.n <= 6
    if exact:
        reference = optimal_value(instance)
    else:
        reference = combined_lower_bound(instance)
    results = compare_policies(instance)
    ratios: dict[str, float] = {}
    for name, result in results.items():
        value = weighted_completion_time(instance, result.completion_times)
        ratios[name] = value / reference if reference > 0 else 1.0
    return ratios
