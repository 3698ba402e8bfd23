"""Vectorized batch execution of the paper's kernels.

The experiments of DESIGN.md sweep thousands of random instances through the
scalar WDEQ / Water-Filling implementations one at a time; at production
scale that per-instance Python overhead dominates.  This package provides

* :mod:`repro.batch.sim_kernels` — the batched discrete-event simulation
  engine (``simulate_batch``), the one batched WDEQ simulator: every online
  policy of :mod:`repro.simulation.policies` has a vectorized counterpart
  that advances a whole ``(B, n_max)`` batch through release / completion /
  reshare events in lockstep, validated event-for-event against the scalar
  engine;
* :mod:`repro.batch.kernels` — NumPy kernels that process a padded
  ``(B, n_max)`` batch of instances in one shot (``water_filling_batch``,
  ``combined_lower_bound_batch``, ...), validated against the scalar
  implementations by the property tests in ``tests/test_batch.py``;
* :mod:`repro.batch.cache` — a :class:`ResultCache` keyed on
  ``(generator, seed, params)`` so repeated conjecture sweeps skip
  recomputation.

The batch substrate operates on :class:`~repro.core.batch.InstanceBatch`
(struct-of-arrays) and runs on every :class:`repro.exec.ExecutionContext`
backend; the context, not this package, owns the worker nodes
(``--workers`` on the CLI).
"""

from repro.batch.cache import ResultCache, cache_key
from repro.batch.kernels import (
    BatchWaterFilling,
    combined_lower_bound_batch,
    height_bound_batch,
    smith_rule_batch,
    water_filling_batch,
)
from repro.batch.sim_kernels import (
    BatchPolicy,
    BatchSimulationResult,
    DeqBatchPolicy,
    FairShareNoCapBatchPolicy,
    PriorityBatchPolicy,
    WdeqBatchPolicy,
    default_batch_policies,
    policy_ratios_batch,
    simulate_batch,
)

__all__ = [
    "BatchWaterFilling",
    "water_filling_batch",
    "smith_rule_batch",
    "height_bound_batch",
    "combined_lower_bound_batch",
    "ResultCache",
    "cache_key",
    "BatchPolicy",
    "BatchSimulationResult",
    "WdeqBatchPolicy",
    "DeqBatchPolicy",
    "FairShareNoCapBatchPolicy",
    "PriorityBatchPolicy",
    "simulate_batch",
    "default_batch_policies",
    "policy_ratios_batch",
]
