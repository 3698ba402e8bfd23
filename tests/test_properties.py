"""Property-based tests (hypothesis) on the core invariants of the library.

These tests exercise randomly generated instances far beyond the hand-picked
unit-test cases.  Each property is a statement proved in the paper (or a
direct consequence), so a counterexample would indicate an implementation
bug, not an unlucky draw.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Instance, Task
from repro.core.bounds import (
    combined_lower_bound,
    height_bound,
    mixed_lower_bound,
    squashed_area_bound,
)
from repro.core.validation import (
    check_column_schedule,
    check_continuous_schedule,
    check_processor_assignment,
)
from repro.algorithms.greedy import best_greedy_schedule, greedy_completion_times
from repro.algorithms.greedy_homogeneous import homogeneous_greedy_value
from repro.algorithms.makespan import minimal_makespan
from tests.oracles import bruteforce_opt
from repro.algorithms.preemption import assign_processors
from repro.algorithms.water_filling import water_filling_schedule
from repro.algorithms.wdeq import wdeq_allocation, wdeq_schedule
from repro.batch.sim_kernels import _wdeq_allocation_batch

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

positive = st.floats(min_value=0.05, max_value=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def instances(draw, min_tasks=1, max_tasks=6, max_platform=8.0):
    """Random malleable-task instances with positive weights."""
    n = draw(st.integers(min_value=min_tasks, max_value=max_tasks))
    P = draw(st.floats(min_value=0.5, max_value=max_platform))
    tasks = []
    for _ in range(n):
        volume = draw(positive)
        weight = draw(st.floats(min_value=0.05, max_value=5.0))
        delta = draw(st.floats(min_value=0.05, max_value=P))
        tasks.append(Task(volume=volume, weight=weight, delta=delta))
    return Instance(P=P, tasks=tasks)


@st.composite
def integer_instances(draw, min_tasks=1, max_tasks=6):
    """Instances with an integer platform and integer caps."""
    n = draw(st.integers(min_value=min_tasks, max_value=max_tasks))
    P = draw(st.integers(min_value=1, max_value=6))
    tasks = []
    for _ in range(n):
        volume = draw(positive)
        weight = draw(st.floats(min_value=0.05, max_value=5.0))
        delta = draw(st.integers(min_value=1, max_value=P))
        tasks.append(Task(volume=volume, weight=weight, delta=float(delta)))
    return Instance(P=float(P), tasks=tasks)


COMMON_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# WDEQ allocation rule
# ---------------------------------------------------------------------------


@COMMON_SETTINGS
@given(
    P=st.floats(min_value=0.5, max_value=16.0),
    weights=st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=1, max_size=8),
    data=st.data(),
)
def test_wdeq_allocation_feasible_and_monotone(P, weights, data):
    deltas = data.draw(
        st.lists(
            st.floats(min_value=0.05, max_value=P),
            min_size=len(weights),
            max_size=len(weights),
        )
    )
    alloc = wdeq_allocation(P, weights, deltas)
    assert np.all(alloc >= -1e-12)
    assert np.all(alloc <= np.asarray(deltas) + 1e-9)
    assert alloc.sum() <= P + 1e-9
    # The sharing is work-conserving up to the caps: either the platform is
    # fully used or every task is at its cap.
    if alloc.sum() < P - 1e-6:
        assert np.all(np.abs(alloc - np.asarray(deltas)) <= 1e-6)


def _wdeq_rounds(P, weights, deltas, atol=1e-12):
    """Algorithm 1 as written: clamp every over-share task, reshare, repeat."""
    w, d = np.asarray(weights, dtype=float), np.asarray(deltas, dtype=float)
    alloc, active = np.zeros(w.size), np.ones(w.size, dtype=bool)
    remaining_P, remaining_W = float(P), float(w.sum())
    while active.any() and remaining_W > atol and remaining_P > atol:
        shares = w * (remaining_P / remaining_W)
        capped = active & (d < shares - atol)
        if not capped.any():
            alloc[active] = shares[active]
            break
        alloc[capped] = d[capped]
        remaining_P = max(remaining_P - float(d[capped].sum()), 0.0)
        remaining_W -= float(w[capped].sum())
        active &= ~capped
    return alloc


@COMMON_SETTINGS
@given(
    P=st.floats(min_value=0.5, max_value=64.0),
    weights=st.lists(
        st.one_of(st.floats(min_value=0.05, max_value=50.0), st.sampled_from([1.0, 2.0])),
        min_size=1,
        max_size=24,
    ),
    data=st.data(),
)
def test_wdeq_allocation_closed_form_matches_the_rounds(P, weights, data):
    deltas = data.draw(
        st.lists(
            st.one_of(st.floats(min_value=0.05, max_value=P), st.sampled_from([1.0, P / 2])),
            min_size=len(weights),
            max_size=len(weights),
        )
    )
    closed = wdeq_allocation(P, weights, deltas)
    np.testing.assert_allclose(closed, _wdeq_rounds(P, weights, deltas), rtol=1e-9, atol=1e-12)
    # The batched rounds behind ``simulate_batch`` give the same shares.
    w, d = np.asarray(weights)[None, :], np.asarray(deltas)[None, :]
    batched = _wdeq_allocation_batch(np.array([P]), w, d, np.ones(w.shape, dtype=bool), 1e-12)
    np.testing.assert_allclose(closed, batched[0], rtol=1e-9, atol=1e-12)


@COMMON_SETTINGS
@given(
    P=st.floats(min_value=0.5, max_value=64.0),
    weights=st.lists(st.sampled_from([1e-13, 2e-13]), min_size=1, max_size=4),
    data=st.data(),
)
def test_wdeq_allocation_gives_nothing_when_the_total_weight_is_below_atol(P, weights, data):
    """The rounds, and the batched rounds behind ``simulate_batch``, stop at
    once when the weights sum to at most ``atol``; the closed form agrees."""
    deltas = data.draw(
        st.lists(
            st.floats(min_value=0.05, max_value=P), min_size=len(weights), max_size=len(weights)
        )
    )
    assert sum(weights) <= 1e-12
    assert not wdeq_allocation(P, weights, deltas).any()
    assert not _wdeq_rounds(P, weights, deltas).any()
    w, d = np.asarray(weights)[None, :], np.asarray(deltas)[None, :]
    batched = _wdeq_allocation_batch(np.array([P]), w, d, np.ones(w.shape, dtype=bool), 1e-12)
    assert not batched.any()


# ---------------------------------------------------------------------------
# Schedules produced by the algorithms are valid
# ---------------------------------------------------------------------------


@COMMON_SETTINGS
@given(instance=instances())
def test_wdeq_schedule_is_valid(instance):
    sched = wdeq_schedule(instance)
    assert check_column_schedule(sched) == []


@COMMON_SETTINGS
@given(instance=instances())
def test_water_filling_normalisation_preserves_completions(instance):
    targets = wdeq_schedule(instance).completion_times_by_task()
    sched = water_filling_schedule(instance, targets)
    assert check_column_schedule(sched) == []
    np.testing.assert_allclose(sched.completion_times_by_task(), targets, rtol=1e-7, atol=1e-9)


@COMMON_SETTINGS
@given(instance=instances())
def test_water_filling_change_count_bound(instance):
    targets = wdeq_schedule(instance).completion_times_by_task()
    sched = water_filling_schedule(instance, targets)
    assert sched.allocation_change_count(convention="paper") <= instance.n
    assert sched.allocation_change_count(convention="all") <= 2 * instance.n


@COMMON_SETTINGS
@given(instance=instances(), data=st.data())
def test_greedy_schedule_valid_for_any_order(instance, data):
    order = data.draw(st.permutations(list(range(instance.n))))
    completions = greedy_completion_times(instance, order)
    assert np.all(completions > 0)
    # Greedy completion times are at least the task heights and at least the
    # work lower bound of everything scheduled before them.
    heights = instance.heights
    for position, task in enumerate(order):
        assert completions[task] >= heights[task] - 1e-9


@COMMON_SETTINGS
@given(instance=integer_instances())
def test_integer_conversion_valid(instance):
    targets = wdeq_schedule(instance).completion_times_by_task()
    sched = water_filling_schedule(instance, targets)
    assignment = assign_processors(sched)
    assert check_processor_assignment(assignment) == []
    lateness = assignment.completion_times() - targets
    assert float(np.max(lateness)) <= 1e-6


# ---------------------------------------------------------------------------
# Bounds and objectives
# ---------------------------------------------------------------------------


@COMMON_SETTINGS
@given(instance=instances(max_tasks=4))
def test_lower_bounds_below_optimum(instance):
    opt = bruteforce_opt(instance)
    assert squashed_area_bound(instance) <= opt * (1 + 1e-6) + 1e-9
    assert height_bound(instance) <= opt * (1 + 1e-6) + 1e-9
    assert combined_lower_bound(instance) <= opt * (1 + 1e-6) + 1e-9


@COMMON_SETTINGS
@given(instance=instances(max_tasks=4))
def test_wdeq_two_approximation(instance):
    ratio = wdeq_schedule(instance).weighted_completion_time() / bruteforce_opt(instance)
    assert ratio <= 2.0 + 1e-6


@COMMON_SETTINGS
@given(instance=instances(max_tasks=4))
def test_best_greedy_matches_optimum_conjecture12(instance):
    greedy = best_greedy_schedule(instance).objective
    opt = bruteforce_opt(instance)
    assert greedy <= opt * (1 + 1e-5) + 1e-7
    assert greedy >= opt - 1e-7


@COMMON_SETTINGS
@given(instance=instances(), fraction=st.floats(min_value=0.0, max_value=1.0))
def test_mixed_bound_monotone_structure(instance, fraction):
    bound = mixed_lower_bound(instance, np.full(instance.n, fraction))
    assert bound <= combined_lower_bound(instance) + 1e-9
    assert bound >= 0.0


@COMMON_SETTINGS
@given(instance=instances())
def test_makespan_schedule_consistency(instance):
    cmax = minimal_makespan(instance)
    assert cmax >= float(np.max(instance.heights)) - 1e-12
    assert cmax >= instance.total_volume / instance.P - 1e-12
    # WDEQ (a valid schedule) can never beat the optimal makespan.
    assert wdeq_schedule(instance).makespan() >= cmax - 1e-7


# ---------------------------------------------------------------------------
# Section V-B recurrence
# ---------------------------------------------------------------------------


@COMMON_SETTINGS
@given(
    deltas=st.lists(st.floats(min_value=0.5, max_value=1.0), min_size=1, max_size=8),
    data=st.data(),
)
def test_homogeneous_reversal_symmetry(deltas, data):
    order = data.draw(st.permutations(list(range(len(deltas)))))
    forward = homogeneous_greedy_value(deltas, order)
    backward = homogeneous_greedy_value(deltas, list(reversed(order)))
    assert forward == backward or abs(forward - backward) <= 1e-9 * max(abs(forward), 1.0)


@COMMON_SETTINGS
@given(deltas=st.lists(st.floats(min_value=0.5, max_value=1.0), min_size=1, max_size=8))
def test_homogeneous_completions_increasing(deltas):
    completions = homogeneous_greedy_value(deltas)
    assert completions >= len(deltas) * 1.0 - 1e-9  # each unit task needs >= 1 time unit


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------


@COMMON_SETTINGS
@given(instance=instances())
def test_theorem3_round_trip(instance):
    sched = wdeq_schedule(instance)
    continuous = sched.to_continuous()
    assert check_continuous_schedule(continuous) == []
    back = continuous.to_column()
    assert check_column_schedule(back) == []
    np.testing.assert_allclose(
        back.completion_times_by_task(),
        sched.completion_times_by_task(),
        rtol=1e-7,
        atol=1e-9,
    )
