"""Checkers for Conjectures 12 and 13 of the paper.

*Conjecture 12*: for every instance, some greedy schedule is optimal for
MWCT-CB-F.  The paper supports it with 10,000 random instances per size
(n = 2..5) on which the best greedy value was numerically indistinguishable
from the optimum; :func:`check_conjecture12` reproduces that comparison on a
single instance.

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
from repro.algorithms.optimal import optimal_value
from repro.core.bounds import time_leq
from repro.core.instance import Instance

__all__ = [
    "Conjecture12Check",
    "check_conjecture12",
    "Conjecture13Check",
    "check_conjecture13",
]


@dataclass(frozen=True)
class Conjecture12Check:
    """Result of checking Conjecture 12 on one instance."""

    best_greedy: float
    optimal: float
    relative_gap: float
    holds: bool


def check_conjecture12(instance: Instance, tolerance: float = 1e-6) -> Conjecture12Check:
    """Compare the best greedy schedule with the exact optimum.

    The conjecture "holds" on the instance when the relative gap is below
    ``tolerance`` (the paper reports the values as "numerically
    indistinguishable"; LP solves and the greedy profile simulation both
    carry ~1e-9 of noise, so 1e-6 is a comfortable threshold).
    """
    greedy = best_greedy_schedule(instance)
    opt = optimal_value(instance)
    gap = 0.0 if opt <= 0 else (greedy.objective - opt) / opt
    return Conjecture12Check(
        best_greedy=greedy.objective,
        optimal=opt,
        relative_gap=gap,
        holds=time_leq(gap, 0.0, rtol=0.0, atol=tolerance),
    )


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
