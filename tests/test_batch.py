"""Tests for the vectorized batch subsystem (repro.batch).

The property tests generate random padded batches — mixed sizes, including
degenerate one-task instances — and assert that the vectorized kernels agree
with the scalar reference implementations they replace.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.water_filling import water_filling_levels
from repro.algorithms.wdeq import wdeq_schedule
from repro.analysis.ratios import wdeq_ratio
from repro.batch.cache import ResultCache, cache_key
from repro.batch.kernels import combined_lower_bound_batch, water_filling_batch
from repro.batch.sim_kernels import WdeqBatchPolicy, policy_ratios_batch, simulate_batch
from repro.core.batch import InstanceBatch
from repro.core.bounds import combined_lower_bound, time_leq, times_close
from repro.core.exceptions import InfeasibleScheduleError, InvalidInstanceError
from repro.core.instance import Instance, Task
from repro.workloads.generators import cluster_instances, uniform_instances

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def instances(draw, min_tasks: int = 1, max_tasks: int = 6):
    """One random instance with well-conditioned parameters."""
    n = draw(st.integers(min_tasks, max_tasks))
    P = draw(st.floats(0.5, 4.0, **finite))
    tasks = []
    for _ in range(n):
        volume = draw(st.floats(0.05, 10.0, **finite))
        weight = draw(st.floats(0.05, 10.0, **finite))
        delta = draw(st.floats(0.05, 1.0, **finite)) * P
        tasks.append(Task(volume=volume, weight=weight, delta=delta))
    return Instance(P=P, tasks=tasks)


@st.composite
def instance_batches(draw, max_batch: int = 6):
    """A batch of random instances of *mixed* sizes (padding is exercised)."""
    return draw(st.lists(instances(), min_size=1, max_size=max_batch))


def _wdeq_completions(batch: InstanceBatch) -> np.ndarray:
    """WDEQ completion times of every row, from the batched event engine."""
    return simulate_batch(batch, WdeqBatchPolicy()).completion_times


# --------------------------------------------------------------------- #
# InstanceBatch
# --------------------------------------------------------------------- #


class TestInstanceBatch:
    def test_shapes_and_mask(self):
        insts = [
            Instance.from_arrays(P=2.0, volumes=[1.0, 2.0, 3.0]),
            Instance.from_arrays(P=1.0, volumes=[1.0]),
        ]
        batch = InstanceBatch.from_instances(insts)
        assert batch.batch_size == 2
        assert batch.n_max == 3
        assert list(batch.counts) == [3, 1]
        assert batch.mask[1, 0] and not batch.mask[1, 1]
        # Padding slots are inert: zero volume, zero weight, positive delta.
        assert batch.volumes[1, 1] == 0.0
        assert batch.weights[1, 2] == 0.0
        assert batch.deltas[1, 1] > 0.0

    def test_roundtrip_instance(self):
        inst = next(uniform_instances(4, 1, rng=0))
        batch = InstanceBatch.from_instances([inst, next(uniform_instances(2, 1, rng=1))])
        back = batch.instance(0)
        np.testing.assert_allclose(back.volumes, inst.volumes)
        np.testing.assert_allclose(back.deltas, inst.deltas)
        assert back.P == inst.P

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidInstanceError):
            InstanceBatch.from_instances([])


# --------------------------------------------------------------------- #
# WDEQ on the batched event engine
# --------------------------------------------------------------------- #


class TestWdeqBatch:
    @settings(max_examples=30, deadline=None)
    @given(instance_batches())
    def test_agrees_with_scalar(self, insts):
        batch = InstanceBatch.from_instances(insts)
        completions = _wdeq_completions(batch)
        assert completions.shape == (batch.batch_size, batch.n_max)
        for b, inst in enumerate(insts):
            expected = wdeq_schedule(inst).completion_times_by_task()
            np.testing.assert_allclose(
                completions[b, : inst.n], expected, rtol=1e-7, atol=1e-9
            )
            # Padding slots never accumulate completion times.
            assert np.all(completions[b, inst.n :] == 0.0)

    def test_single_task_instance(self):
        inst = Instance(P=2.0, tasks=[Task(volume=3.0, weight=1.0, delta=0.5)])
        completions = _wdeq_completions(InstanceBatch.from_instances([inst]))
        # One task capped at delta=0.5: completes at V / delta = 6.
        np.testing.assert_allclose(completions[0, 0], 6.0)

    def test_weighted_objective_matches(self):
        insts = list(cluster_instances(12, 5, rng=np.random.default_rng(2)))
        batch = InstanceBatch.from_instances(insts)
        values = simulate_batch(batch, WdeqBatchPolicy()).weighted_completion_times()
        expected = [wdeq_schedule(inst).weighted_completion_time() for inst in insts]
        np.testing.assert_allclose(values, expected, rtol=1e-7)

    def test_nonpositive_weights_rejected(self):
        inst = Instance(P=1.0, tasks=[Task(volume=1.0, weight=0.0, delta=0.5)])
        # Both engines reject a zero weight.
        with pytest.raises(InvalidInstanceError):
            simulate_batch(InstanceBatch.from_instances([inst]), WdeqBatchPolicy())
        with pytest.raises(InvalidInstanceError):
            wdeq_schedule(inst)


# --------------------------------------------------------------------- #
# Water-Filling kernel
# --------------------------------------------------------------------- #


class TestWaterFillingBatch:
    @settings(max_examples=20, deadline=None)
    @given(instance_batches(max_batch=4))
    def test_agrees_with_scalar_on_wdeq_targets(self, insts):
        batch = InstanceBatch.from_instances(insts)
        completions = _wdeq_completions(batch)
        result = water_filling_batch(batch, completions)
        for b, inst in enumerate(insts):
            sched, levels = water_filling_levels(inst, completions[b, : inst.n])
            np.testing.assert_allclose(
                result.rates[b, : inst.n, : inst.n], sched.rates, atol=1e-8
            )
            np.testing.assert_allclose(
                result.levels[b, : inst.n], levels, rtol=1e-7, atol=1e-9
            )
            assert list(result.order[b, : inst.n]) == list(sched.order)

    @settings(max_examples=20, deadline=None)
    @given(instance_batches(max_batch=4))
    def test_volume_conservation_and_caps(self, insts):
        batch = InstanceBatch.from_instances(insts)
        completions = _wdeq_completions(batch)
        result = water_filling_batch(batch, completions)
        lengths = np.diff(result.sorted_completion_times, axis=1, prepend=0.0)
        for b, inst in enumerate(insts):
            poured = result.rates[b] @ lengths[b]
            np.testing.assert_allclose(poured[: inst.n], inst.volumes, rtol=1e-6, atol=1e-9)
            # No task exceeds its cap in any positive-length column.
            positive = lengths[b] > 1e-9
            rates = result.rates[b, : inst.n][:, positive]
            assert np.all(rates <= inst.deltas[:, None] + 1e-7)

    def test_infeasible_targets_raise(self):
        inst = Instance(P=1.0, tasks=[Task(volume=5.0, weight=1.0, delta=1.0)])
        batch = InstanceBatch.from_instances([inst])
        with pytest.raises(InfeasibleScheduleError):
            water_filling_batch(batch, np.array([[1.0]]))


# --------------------------------------------------------------------- #
# Bounds and ratios
# --------------------------------------------------------------------- #


class TestBatchBounds:
    @settings(max_examples=30, deadline=None)
    @given(instance_batches())
    def test_combined_lower_bound_agrees(self, insts):
        batch = InstanceBatch.from_instances(insts)
        bounds = combined_lower_bound_batch(batch)
        expected = [combined_lower_bound(inst) for inst in insts]
        np.testing.assert_allclose(bounds, expected, rtol=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(instance_batches(max_batch=4))
    def test_wdeq_ratio_agrees_and_below_two(self, insts):
        batch = InstanceBatch.from_instances(insts)
        ratios = policy_ratios_batch(batch, [WdeqBatchPolicy()])["WDEQ"]
        expected = [wdeq_ratio(inst) for inst in insts]
        np.testing.assert_allclose(ratios, expected, rtol=1e-7)
        # Theorem 4: WDEQ is a 2-approximation, and the reference is a lower
        # bound, so the measured ratio can only be *smaller*.
        assert np.all(ratios <= 2.0 + 1e-6)


# --------------------------------------------------------------------- #
# ResultCache
# --------------------------------------------------------------------- #


class TestResultCache:
    def test_get_put_and_stats(self):
        cache = ResultCache()
        key = cache_key("uniform", 0, {"n": 3})
        assert cache.get(key) is None
        cache.put(key, [1.0, 2.0])
        assert cache.get(key) == [1.0, 2.0]
        assert cache.stats == {"hits": 1, "misses": 1, "size": 1}

    def test_get_or_compute_only_computes_once(self):
        cache = ResultCache()
        calls = []
        key = cache_key("gen", 1, {})
        for _ in range(3):
            cache.get_or_compute(key, lambda: calls.append(1) or "value")
        assert cache.get(key) == "value"
        assert len(calls) == 1

    def test_lru_eviction(self):
        cache = ResultCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" so "b" is the eviction victim
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultCache(path=path)
        cache.put(cache_key("gen", 0, {}), {"gaps": [0.0, 1e-9]})
        cache.put("unserialisable", object())  # silently skipped on save
        cache.save()
        reloaded = ResultCache(path=path)
        assert reloaded.get(cache_key("gen", 0, {})) == {"gaps": [0.0, 1e-9]}
        assert "unserialisable" not in reloaded

    def test_cache_key_canonicalisation(self):
        a = cache_key(uniform_instances, 0, {"b": 2, "a": 1})
        b = cache_key(uniform_instances, 0, {"a": 1, "b": 2})
        assert a == b
        assert cache_key("uniform", 0, {"a": 1}) != cache_key("uniform", 1, {"a": 1})


# --------------------------------------------------------------------- #
# Experiment integration
# --------------------------------------------------------------------- #


class TestExperimentIntegration:
    def test_legacy_execution_kwargs_raise_with_ctx_hint(self):
        from repro.experiments.registry import run_experiment

        for kwargs in ({"use_batch": True}, {"seed": 3}, {"runner": None, "cache": None}):
            with pytest.raises(TypeError, match="ExecutionContext"):
                run_experiment("E5", **kwargs)
        # The error names the ctx= replacement for the offending keyword.
        with pytest.raises(TypeError, match=r"use_batch= -> ctx=ExecutionContext\(\)"):
            run_experiment("E5", use_batch=True)

    def test_run_experiment_rejects_misspelled_parameter(self):
        from repro.experiments.registry import run_experiment

        with pytest.raises(TypeError):
            run_experiment("E5", samll_count=5)

    def test_cache_key_stable_for_partials(self):
        import functools

        from repro.analysis.conjectures import check_conjecture12_batch

        a = cache_key(functools.partial(check_conjecture12_batch, tolerance=1e-6), 0, {})
        b = cache_key(functools.partial(check_conjecture12_batch, tolerance=1e-6), 0, {})
        c = cache_key(functools.partial(check_conjecture12_batch, tolerance=1e-3), 0, {})
        assert a == b
        assert a != c

    def test_e5_batch_matches_serial_rows(self):
        from repro.exec import ExecutionContext
        from repro.experiments.registry import run_experiment

        kwargs = dict(small_sizes=(2,), small_count=2, large_sizes=(8,), large_count=3)
        serial = run_experiment("E5", **kwargs)
        batched = run_experiment("E5", ctx=ExecutionContext(backend="vectorized"), **kwargs)
        assert serial.rows == batched.rows


# --------------------------------------------------------------------- #
# Tolerance helpers (core.bounds)
# --------------------------------------------------------------------- #


class TestToleranceHelpers:
    def test_times_close_scalar_and_array(self):
        assert times_close(1.0, 1.0 + 1e-12)
        assert not times_close(1.0, 1.1)
        np.testing.assert_array_equal(
            times_close(np.array([1.0, 2.0]), np.array([1.0, 2.5])), [True, False]
        )

    def test_time_leq_tolerates_jitter(self):
        assert time_leq(1.0 + 1e-12, 1.0)
        assert not time_leq(1.1, 1.0)
        assert time_leq(0.5, 1.0)
        # Explicit absolute slack, as the validators use it.
        assert time_leq(1.05, 1.0, rtol=0.0, atol=0.1)
