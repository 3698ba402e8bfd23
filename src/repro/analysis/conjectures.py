"""Checkers for Conjectures 12 and 13 of the paper.

*Conjecture 12*: for every instance, some greedy schedule is optimal for
MWCT-CB-F.  The paper supports it with 10,000 random instances per size
(n = 2..5) on which the best greedy value was numerically indistinguishable
from the optimum; :func:`check_conjecture12_batch` reproduces that
comparison on every row of a batch.

*Conjecture 13*: on the Section V-B homogeneous instances the greedy value of
an order equals the value of the reversed order; the paper checked it
formally up to 15 tasks.  :func:`check_conjecture13` verifies it numerically
for a sample of (or all) orders.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.algorithms.greedy import best_greedy_schedule
from repro.algorithms.greedy_homogeneous import homogeneous_greedy_value
from repro.core.batch import InstanceBatch
from repro.core.bounds import time_leq
from repro.lp.batch import optimal

__all__ = [
    "Conjecture12Check",
    "check_conjecture12_batch",
    "Conjecture13Check",
    "check_conjecture13",
]


@dataclass(frozen=True)
class Conjecture12Check:
    """Result of checking Conjecture 12 on one instance (one batch row)."""

    best_greedy: float
    optimal: float
    relative_gap: float
    holds: bool


def check_conjecture12_batch(batch: InstanceBatch, tolerance: float = 1e-6) -> list[Conjecture12Check]:
    """Compare the best greedy schedule with the exact optimum on every row.

    OPT comes from one branch-and-bound call (:func:`repro.lp.optimal`) for
    the whole batch and the best greedy value from
    :func:`~repro.algorithms.greedy.best_greedy_schedule` per row.  Each
    row's check depends on that row alone, so ``ctx.map_batch`` may shard
    the batch anywhere.

    The conjecture "holds" on a row when the relative gap is below
    ``tolerance`` (the paper reports the values as "numerically
    indistinguishable"; LP solves and the greedy profile simulation both
    carry ~1e-9 of noise, so 1e-6 is a comfortable threshold).
    """
    checks = []
    for instance, opt in zip(batch.to_instances(), optimal(batch).objectives.tolist()):
        greedy = best_greedy_schedule(instance).objective
        gap = 0.0 if opt <= 0 else (greedy - opt) / opt
        checks.append(
            Conjecture12Check(
                best_greedy=greedy,
                optimal=opt,
                relative_gap=gap,
                holds=time_leq(gap, 0.0, rtol=0.0, atol=tolerance),
            )
        )
    return checks


@dataclass(frozen=True)
class Conjecture13Check:
    """Result of checking the reversal symmetry of Conjecture 13."""

    orders_checked: int
    max_asymmetry: float
    holds: bool


def check_conjecture13(
    deltas: Sequence[float],
    orders: Sequence[Sequence[int]] | None = None,
    max_orders: int = 720,
    tolerance: float = 1e-9,
    rng: np.random.Generator | int | None = None,
) -> Conjecture13Check:
    """Check that greedy(order) == greedy(reversed order) on a V-B instance.

    Parameters
    ----------
    deltas:
        Caps of the homogeneous instance (``P=1``, ``V=w=1``).
    orders:
        Explicit orders to check.  Defaults to all permutations when there
        are at most ``max_orders`` of them, otherwise to a random sample of
        ``max_orders`` permutations.
    tolerance:
        Maximum allowed relative difference between the two values.
    """
    deltas = np.asarray(deltas, dtype=float)
    n = deltas.size
    if orders is None:
        total = math.factorial(n)
        if total <= max_orders:
            orders = list(itertools.permutations(range(n)))
        else:
            generator = (
                rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
            )
            orders = [tuple(generator.permutation(n)) for _ in range(max_orders)]
    max_asymmetry = 0.0
    checked = 0
    for order in orders:
        forward = homogeneous_greedy_value(deltas, order)
        backward = homogeneous_greedy_value(deltas, list(reversed(list(order))))
        scale = max(abs(forward), abs(backward), 1.0)
        max_asymmetry = max(max_asymmetry, abs(forward - backward) / scale)
        checked += 1
    return Conjecture13Check(
        orders_checked=checked,
        max_asymmetry=max_asymmetry,
        holds=time_leq(max_asymmetry, 0.0, rtol=0.0, atol=tolerance),
    )
