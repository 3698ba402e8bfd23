"""Approximation-ratio measurements on a single instance.

WDEQ (and the other online policies) are compared with the combined lower
bound of Lemma 1, which is usable on instances far too large for an exact
optimum; a ratio below 2 against the lower bound is implied by Theorem 4,
and the measured values show how loose the bound is in practice.  These
scalar forms are the references of the batched
:func:`repro.batch.sim_kernels.policy_ratios_batch`.  Ratios against the
exact optimum are batched: E5 divides the batched WDEQ values by the
branch-and-bound objectives of :func:`repro.lp.optimal`.
"""

from __future__ import annotations

from repro.algorithms.wdeq import wdeq_schedule
from repro.core.bounds import combined_lower_bound
from repro.core.instance import Instance
from repro.core.objectives import weighted_completion_time
from repro.simulation.nonclairvoyant import compare_policies

__all__ = ["wdeq_ratio", "policy_ratios"]


def wdeq_ratio(instance: Instance) -> float:
    """WDEQ's weighted completion time over the Lemma 1 lower bound."""
    wdeq_value = wdeq_schedule(instance).weighted_completion_time()
    reference = combined_lower_bound(instance)
    if reference <= 0:
        return 1.0
    return wdeq_value / reference


def policy_ratios(instance: Instance) -> dict[str, float]:
    """Ratio of every default online policy against the Lemma 1 lower bound.

    Policies whose schedules are infeasible in the malleable model (e.g. the
    cap-less weighted fair share once clamped) are still reported: after
    clamping, the engine produces a feasible execution, just not the one the
    policy "intended".
    """
    reference = combined_lower_bound(instance)
    results = compare_policies(instance)
    ratios: dict[str, float] = {}
    for name, result in results.items():
        value = weighted_completion_time(instance, result.completion_times)
        ratios[name] = value / reference if reference > 0 else 1.0
    return ratios
