"""Tests for greedy schedules and the best-greedy search (Section V)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Instance, Task
from repro.core.exceptions import InvalidScheduleError
from repro.core.validation import validate_continuous_schedule
from repro.algorithms.greedy import (
    _permutation_blocks,
    best_greedy_schedule,
    exhaustive_greedy_values,
    greedy_completion_times,
    greedy_completion_times_batch,
    greedy_schedule,
    local_search_greedy_schedule,
)
from tests.oracles import bruteforce_opt
from repro.lp.exact import permutation_table
from repro.workloads import generators
from tests.conftest import random_instance

#: Every generator family that yields :class:`Instance` objects.
INSTANCE_FAMILIES = [name for name in generators.__all__ if name.endswith("_instances")]


class TestGreedyCompletionTimes:
    def test_single_task_runs_at_cap(self):
        inst = Instance(P=4, tasks=[Task(volume=6, delta=3)])
        np.testing.assert_allclose(greedy_completion_times(inst, [0]), [2.0])

    def test_two_tasks_first_saturated(self):
        # P=2; first task delta=1 occupies one processor for 2 time units; the
        # second (delta=2) gets 1 processor until t=2 then 2 processors.
        inst = Instance(P=2, tasks=[Task(2, 1, 1), Task(3, 1, 2)])
        completions = greedy_completion_times(inst, [0, 1])
        assert completions[0] == pytest.approx(2.0)
        assert completions[1] == pytest.approx(2.5)

    def test_order_changes_completions(self):
        inst = Instance(P=2, tasks=[Task(2, 1, 1), Task(3, 1, 2)])
        a = greedy_completion_times(inst, [0, 1])
        b = greedy_completion_times(inst, [1, 0])
        assert not np.allclose(a, b)

    def test_invalid_order(self, small_instance):
        with pytest.raises(InvalidScheduleError):
            greedy_completion_times(small_instance, [0, 1, 2])

    def test_empty_instance(self):
        inst = Instance(P=1, tasks=[])
        assert greedy_completion_times(inst, []).size == 0


class TestGreedyKernel:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(INSTANCE_FAMILIES), st.integers(1, 7), st.integers(0, 2**16))
    def test_matches_scalar_algorithm3(self, family, n, seed):
        """Per-row instances and orders, each pinned to the scalar placement."""
        rng = np.random.default_rng(seed)
        insts = list(getattr(generators, family)(n, 4, rng=rng))
        orders = np.array([rng.permutation(n) for _ in insts])
        times = greedy_completion_times_batch(
            np.array([inst.P for inst in insts]),
            np.array([inst.volumes for inst in insts]),
            np.array([inst.deltas for inst in insts]),
            orders,
        )
        for inst, order, row in zip(insts, orders, times):
            np.testing.assert_allclose(row, greedy_completion_times(inst, order), rtol=1e-12, atol=0)

    def test_shared_instance_broadcasts(self, small_instance):
        orders = np.array([[0, 1, 2, 3], [3, 2, 1, 0]])
        times = greedy_completion_times_batch(
            small_instance.P, small_instance.volumes, small_instance.deltas, orders
        )
        for order, row in zip(orders, times):
            np.testing.assert_allclose(row, greedy_completion_times(small_instance, order), rtol=1e-12)

    def test_no_tasks(self):
        assert greedy_completion_times_batch(1.0, np.zeros(0), np.zeros(0), np.zeros((3, 0))).shape == (3, 0)


def _take_along_axis_kernel(P, volumes, deltas, orders):
    """The Algorithm 3 batch kernel as it was written with ``np.take_along_axis``.

    Kept as a test oracle: the production kernel gathers by fancy indexing
    and reuses its buffers, and must return the same bits on real tasks.
    """
    orders = np.asarray(orders, dtype=np.int64)
    F, n = orders.shape
    v = np.take_along_axis(np.broadcast_to(volumes, (F, n)), orders, axis=1)
    d = np.take_along_axis(np.broadcast_to(deltas, (F, n)), orders, axis=1)
    times, free = np.zeros((2, F, n + 1))
    free[:, 0] = P
    completions = np.empty((F, n))
    rows = np.arange(F)
    for j in range(n):
        t, c = times[:, : j + 1], free[:, : j + 1]
        rate = np.minimum(d[:, j, None], c)
        done = np.zeros((F, j + 1))
        np.cumsum(rate[:, :-1] * np.diff(t, axis=1), axis=1, out=done[:, 1:])
        step = (done < v[:, j, None]).sum(axis=1) - 1
        finish = t[rows, step] + (v[:, j] - done[rows, step]) / rate[rows, step]
        completions[rows, orders[:, j]] = finish
        position = np.arange(j + 2)
        before = position <= step[:, None]
        source = np.where(before, position, position - 1)
        free[:, : j + 2] = np.take_along_axis(c, source, axis=1) - np.where(
            before, np.take_along_axis(rate, source, axis=1), 0.0
        )
        times[:, : j + 2] = np.take_along_axis(t, source, axis=1)
        times[rows, step + 1] = finish
    return completions


@st.composite
def kernel_batches(draw):
    """``(P, volumes, deltas, orders)``: shared or per-row tasks, scalar or per-row ``P``."""
    n = draw(st.integers(1, 9))
    F = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (F, n) if draw(st.booleans()) else (n,)
    volumes = rng.uniform(0.05, 5.0, shape)
    deltas = rng.uniform(0.05, 4.0, shape)
    if draw(st.booleans()):
        # Integral sizes make simultaneous completions (zero-width steps).
        volumes, deltas = np.ceil(volumes), np.ceil(deltas)
    P = rng.uniform(0.5, 8.0, F) if draw(st.booleans()) else float(rng.uniform(0.5, 8.0))
    orders = np.array([rng.permutation(n) for _ in range(F)])
    return P, volumes, deltas, orders


class TestGreedyKernelBits:
    @settings(max_examples=150, deadline=None)
    @given(kernel_batches())
    def test_matches_the_take_along_axis_kernel_bit_for_bit(self, case):
        P, volumes, deltas, orders = case
        assert np.array_equal(
            greedy_completion_times_batch(P, volumes, deltas, orders),
            _take_along_axis_kernel(P, volumes, deltas, orders),
        )

    @pytest.mark.parametrize(
        "order",
        [[2, 3, 0, 1], [0, 1, 2, 3], [0, 2, 1, 3], [3, 0, 2, 1]],
        ids=["zeros-first", "zeros-last", "interleaved", "zeros-around"],
    )
    def test_zero_volume_tasks_complete_at_zero_without_warnings(self, order):
        volumes, deltas = np.array([2.0, 1.0, 0.0, 0.0]), np.array([1.0, 2.0, 1.0, 1.0])
        with np.errstate(all="raise"):
            times = greedy_completion_times_batch(2.0, volumes, deltas, np.array([order]))[0]
            real = greedy_completion_times_batch(
                2.0, volumes[:2], deltas[:2], np.array([[i for i in order if i < 2]])
            )[0]
        assert np.array_equal(times, [real[0], real[1], 0.0, 0.0])
        np.testing.assert_allclose(real, [2.0, 1.0], rtol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(kernel_batches(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_zero_volume_slots_leave_real_tasks_bit_identical(self, case, zeros, seed):
        P, volumes, deltas, orders = case
        F, n = orders.shape
        rng = np.random.default_rng(seed)
        wide_v = np.concatenate([np.broadcast_to(volumes, (F, n)), np.zeros((F, zeros))], axis=1)
        wide_d = np.concatenate([np.broadcast_to(deltas, (F, n)), np.ones((F, zeros))], axis=1)
        # Insert the zero slots at random places of every order.
        wide_orders = np.array([
            np.insert(row, np.sort(rng.integers(0, n + 1, zeros)), np.arange(n, n + zeros))
            for row in orders
        ])
        with np.errstate(all="raise"):
            times = greedy_completion_times_batch(P, wide_v, wide_d, wide_orders)
        assert np.array_equal(times[:, :n], greedy_completion_times_batch(P, volumes, deltas, orders))
        assert not times[:, n:].any()


class TestGreedySchedule:
    def test_schedule_matches_fast_path(self, rng):
        for _ in range(10):
            inst = random_instance(rng, n=5, P=2.0)
            order = list(rng.permutation(5))
            fast = greedy_completion_times(inst, order)
            full = greedy_schedule(inst, order)
            validate_continuous_schedule(full)
            np.testing.assert_allclose(full.completion_times(), fast, rtol=1e-7, atol=1e-9)

    def test_greedy_is_work_conserving_prefix(self):
        # The first task in the order always runs at min(delta, P) from t=0.
        inst = Instance(P=2, tasks=[Task(2, 1, 1.5), Task(1, 1, 2)])
        sched = greedy_schedule(inst, [0, 1])
        assert sched.rate_at(0, 0.1) == pytest.approx(1.5)

    def test_empty(self):
        inst = Instance(P=1, tasks=[])
        sched = greedy_schedule(inst, [])
        assert sched.n == 0


class TestBestGreedy:
    def test_exhaustive_small(self, small_instance):
        result = best_greedy_schedule(small_instance)
        assert result.exhaustive
        assert result.evaluated == 24
        assert len(result.order) == 4

    def test_best_greedy_matches_optimal_conjecture12(self, rng):
        """Conjecture 12 on random instances (the paper's E1 in miniature)."""
        for _ in range(10):
            n = int(rng.integers(2, 5))
            inst = random_instance(rng, n=n, P=1.0)
            greedy = best_greedy_schedule(inst)
            opt = bruteforce_opt(inst)
            assert greedy.objective == pytest.approx(opt, rel=1e-6, abs=1e-9)

    def test_best_greedy_never_below_optimal(self, rng):
        for _ in range(10):
            inst = random_instance(rng, n=4, P=2.0)
            greedy = best_greedy_schedule(inst)
            assert greedy.objective >= bruteforce_opt(inst) - 1e-7

    def test_schedule_materialisation(self, small_instance):
        result = best_greedy_schedule(small_instance)
        sched = result.schedule(small_instance)
        validate_continuous_schedule(sched)
        np.testing.assert_allclose(
            sched.completion_times(), result.completion_times, rtol=1e-9
        )

    def test_empty_instance(self):
        result = best_greedy_schedule(Instance(P=1, tasks=[]))
        assert result.order == ()
        assert result.objective == 0.0

    def test_falls_back_to_local_search(self, rng):
        inst = random_instance(rng, n=9, P=4.0)
        result = best_greedy_schedule(inst, exhaustive_limit=6, local_search_restarts=1)
        assert not result.exhaustive
        assert len(result.order) == 9

    def test_exhaustive_matches_scalar_enumeration(self, rng):
        for _ in range(5):
            inst = random_instance(rng, n=5, P=2.0)
            scalar = min(
                float(inst.weights @ greedy_completion_times(inst, order))
                for order in itertools.permutations(range(5))
            )
            result = best_greedy_schedule(inst)
            assert result.evaluated == 120
            assert result.objective == pytest.approx(scalar, rel=1e-12)
            np.testing.assert_allclose(
                result.completion_times, greedy_completion_times(inst, result.order), rtol=1e-12
            )

    def test_exhaustive_values_reject_non_permutations(self):
        inst = Instance(P=2, tasks=[Task(1, 1, 1), Task(2, 1, 2)])
        with pytest.raises(InvalidScheduleError):
            exhaustive_greedy_values(inst, [[0, 0]])

    def test_exhaustive_values_no_tasks(self):
        inst = Instance(P=1, tasks=[])
        assert exhaustive_greedy_values(inst) == {(): 0.0}
        assert exhaustive_greedy_values(inst, []) == {}

    def test_blocks_are_the_lexicographic_table(self):
        blocks = list(_permutation_blocks(9))
        assert max(len(b) for b in blocks) == 40_320
        np.testing.assert_array_equal(np.concatenate(blocks), permutation_table(9))

    def test_exhaustive_values_dictionary(self):
        inst = Instance(P=2, tasks=[Task(1, 1, 1), Task(2, 1, 2)])
        values = exhaustive_greedy_values(inst)
        assert set(values) == {(0, 1), (1, 0)}
        assert all(v > 0 for v in values.values())


class TestLocalSearch:
    def test_no_worse_than_smith_seed(self, rng):
        for _ in range(5):
            inst = random_instance(rng, n=7, P=3.0)
            smith_value = float(
                np.dot(
                    inst.weights, greedy_completion_times(inst, inst.smith_order())
                )
            )
            result = local_search_greedy_schedule(inst, restarts=2, rng=rng)
            assert result.objective <= smith_value + 1e-9

    def test_matches_exhaustive_on_small_instances(self, rng):
        for _ in range(5):
            inst = random_instance(rng, n=4, P=2.0)
            exhaustive = best_greedy_schedule(inst)
            local = local_search_greedy_schedule(inst, restarts=3, rng=rng)
            # Pairwise-swap local search is not guaranteed optimal, but on
            # 4-task instances with 3 restarts it should be close.
            assert local.objective <= exhaustive.objective * 1.05 + 1e-9
