"""Tests for the ExecutionContext and the InstanceBatch struct-of-arrays type."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.cache import ResultCache
from repro.batch.runner import BatchRunner
from repro.core.batch import InstanceBatch
from repro.core.exceptions import InvalidInstanceError
from repro.core.instance import Instance, Task
from repro.exec import BACKENDS, ExecutionContext
from repro.workloads.generators import bandwidth_scenario_instances
from repro.workloads.suites import get_suite

# --------------------------------------------------------------------- #
# InstanceBatch
# --------------------------------------------------------------------- #


class TestInstanceBatch:
    def test_lossless_roundtrip_including_names(self):
        insts = list(bandwidth_scenario_instances(3, 2, rng=np.random.default_rng(0)))
        insts.append(Instance(P=2.0, tasks=[Task(1.0, 0.5, 1.5, name=None)]))
        back = InstanceBatch.from_instances(insts).to_instances()
        assert back == insts  # Instance equality covers P and every Task field
        assert [t.name for t in back[0].tasks] == [t.name for t in insts[0].tasks]

    def test_padding_convention(self):
        insts = [
            Instance.from_arrays(P=2.0, volumes=[1.0, 2.0, 3.0]),
            Instance.from_arrays(P=1.0, volumes=[1.0]),
        ]
        batch = InstanceBatch.from_instances(insts)
        assert batch.batch_size == 2 and batch.n_max == 3
        assert list(batch.counts) == [3, 1]
        assert batch.volumes[1, 1] == 0.0
        assert batch.weights[1, 2] == 0.0
        assert batch.deltas[1, 1] > 0.0
        assert not batch.mask[1, 1]

    def test_from_arrays_normalises_padding(self):
        batch = InstanceBatch.from_arrays(
            P=[2.0],
            volumes=[[1.0, 9.0]],
            weights=[[1.0, 9.0]],
            deltas=[[1.0, 9.0]],
            mask=[[True, False]],
        )
        assert batch.volumes[0, 1] == 0.0
        assert batch.weights[0, 1] == 0.0
        assert batch.deltas[0, 1] == 1.0
        assert batch.instance(0).n == 1

    def test_from_arrays_validates_shapes(self):
        with pytest.raises(InvalidInstanceError):
            InstanceBatch.from_arrays(P=[1.0], volumes=[[1.0]], weights=[[1.0, 2.0]], deltas=[[1.0]])
        with pytest.raises(InvalidInstanceError):
            InstanceBatch.from_arrays(
                P=[1.0, 2.0], volumes=[[1.0]], weights=[[1.0]], deltas=[[1.0]]
            )

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidInstanceError):
            InstanceBatch.from_instances([])

    def test_suite_generate_batch_matches_generate(self):
        suite = get_suite("cluster")
        batch = suite.generate_batch(5, count=4, seed=3)
        assert isinstance(batch, InstanceBatch)
        assert batch.to_instances() == list(suite.generate(5, count=4, seed=3))


# --------------------------------------------------------------------- #
# ExecutionContext
# --------------------------------------------------------------------- #


def _double(x):
    """Module-level so it pickles into worker processes."""
    return 2 * x


class TestExecutionContext:
    def test_defaults_are_serial(self):
        ctx = ExecutionContext()
        assert ctx.backend == "serial" and not ctx.vectorized
        assert ctx.runner is None and ctx.cache is None
        assert ctx.map(_double, [1, 2]) == [2, 4]

    def test_backend_validation(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            ExecutionContext(backend="gpu")
        with pytest.raises(ValueError, match="workers"):
            ExecutionContext(workers=-1)
        assert set(BACKENDS) == {"serial", "vectorized", "process-pool", "cluster"}

    def test_workers_promote_serial_to_process_pool(self):
        # A context that reports "serial" must never shard: asking for
        # workers (or handing over a runner) selects the pool backend.
        with ExecutionContext(workers=2) as ctx:
            assert ctx.backend == "process-pool"
            assert ctx.runner is not None
        runner = BatchRunner(workers=2, executor="thread")
        ctx = ExecutionContext(runner=runner)
        assert ctx.backend == "process-pool"
        runner.close()
        # Serial without workers stays a plain in-process loop, and may map
        # non-picklable functions.
        assert ExecutionContext().map(lambda x: x * 2, [1, 2]) == [2, 4]

    def test_workers_build_a_runner(self):
        with ExecutionContext(backend="vectorized", workers=2) as ctx:
            assert ctx.vectorized
            assert isinstance(ctx.runner, BatchRunner)
            assert ctx.runner.workers == 2
            assert ctx.map(_double, [1, 2, 3]) == [2, 4, 6]
        # close() shut the owned runner's pool down
        assert ctx.runner._pool is None

    def test_explicit_runner_is_not_owned(self):
        runner = BatchRunner(workers=2, executor="thread")
        runner.map(_double, [1, 2])  # spin the pool up
        ctx = ExecutionContext(backend="process-pool", runner=runner)
        ctx.close()
        assert runner._pool is not None  # the context must not close it
        runner.close()

    def test_rng_is_deterministic_and_salted(self):
        ctx = ExecutionContext(seed=5)
        assert ctx.rng().uniform() == np.random.default_rng(5).uniform()
        assert ctx.rng(3).uniform() == np.random.default_rng(8).uniform()

    def test_scale(self):
        assert ExecutionContext().scale(10, 1000) == 10
        assert ExecutionContext(paper_scale=True).scale(10, 1000) == 1000
        assert ExecutionContext(paper_scale=True).scale(10) == 10

    def test_cached_without_cache_computes_every_time(self):
        ctx = ExecutionContext()
        calls = []
        for _ in range(2):
            ctx.cached("sweep", {"n": 1}, lambda: calls.append(1) or "v")
        assert len(calls) == 2

    def test_cached_with_cache_memoizes_by_seed(self):
        cache = ResultCache()
        calls = []

        def compute():
            calls.append(1)
            return "v"

        ctx = ExecutionContext(cache=cache)
        assert ctx.cached("sweep", {"n": 1}, compute) == "v"
        assert ctx.cached("sweep", {"n": 1}, compute) == "v"
        assert len(calls) == 1
        # A different seed must not collide with the first entry.
        other = ExecutionContext(seed=9, cache=cache)
        other.cached("sweep", {"n": 1}, compute)
        assert len(calls) == 2

    def test_cached_keys_include_the_resolved_lp_backend(self):
        # Regression test: results computed with one LP solver must never be
        # served to a run using another solver from a shared cache — the old
        # keys ignored the selection entirely.
        cache = ResultCache()
        values = iter(["scipy-result", "kernel-result", "unused"])

        def compute():
            return next(values)

        scipy_ctx = ExecutionContext(cache=cache, lp_backend="scipy")
        kernel_ctx = ExecutionContext(cache=cache, backend="vectorized")
        assert kernel_ctx.resolved_lp_backend() == "batch"
        assert scipy_ctx.cached("sweep", {"n": 1}, compute) == "scipy-result"
        assert kernel_ctx.cached("sweep", {"n": 1}, compute) == "kernel-result"
        # Each selection keeps hitting its own entry afterwards.
        assert scipy_ctx.cached("sweep", {"n": 1}, compute) == "scipy-result"
        assert kernel_ctx.cached("sweep", {"n": 1}, compute) == "kernel-result"
        # 'auto' keys on what it resolves to: a serial auto context shares
        # the scipy entry, and so does a vectorized context pinned to scipy.
        serial_auto = ExecutionContext(cache=cache)
        vectorized_scipy = ExecutionContext(cache=cache, backend="vectorized", lp_backend="scipy")
        assert serial_auto.cached("sweep", {"n": 1}, compute) == "scipy-result"
        assert vectorized_scipy.cached("sweep", {"n": 1}, compute) == "scipy-result"
        # A caller-supplied params entry cannot shadow the context's solver:
        # the bogus 'batch' value is overwritten, so this hits the scipy entry.
        assert (
            scipy_ctx.cached("sweep", {"n": 1, "lp_backend": "batch"}, compute) == "scipy-result"
        )

    def test_from_options_lp_backend(self):
        assert ExecutionContext.from_options().lp_backend == "auto"
        ctx = ExecutionContext.from_options(lp_backend="scipy", batch=True)
        assert ctx.lp_backend == "scipy"
        assert ctx.resolved_lp_backend() == "scipy"

    def test_close_saves_backed_cache(self, tmp_path):
        path = tmp_path / "cache.json"
        ctx = ExecutionContext(cache=ResultCache(path=path))
        ctx.cached("sweep", {"n": 1}, lambda: [1.0, 2.0])
        ctx.close()
        reloaded = ResultCache(path=path)
        assert len(reloaded) == 1

    def test_from_options_backend_mapping(self):
        assert ExecutionContext.from_options().backend == "serial"
        assert ExecutionContext.from_options(batch=True).backend == "vectorized"
        with ExecutionContext.from_options(workers=2) as ctx:
            assert ctx.backend == "process-pool"
        with ExecutionContext.from_options(batch=True, workers=2) as ctx:
            assert ctx.backend == "vectorized" and ctx.runner is not None

    def test_from_options_cache_dir(self, tmp_path):
        target = tmp_path / "deep" / "cache"
        ctx = ExecutionContext.from_options(cache_dir=target)
        assert target.is_dir()
        assert ctx.cache is not None
        ctx.cached("sweep", {}, lambda: 1)
        ctx.close()
        assert (target / "results-cache.json").is_file()

    def test_legacy_kwargs_shim_is_gone(self):
        # The deprecation cycle is over: the translation classmethod no
        # longer exists, and the registry refuses the legacy spelling with
        # a TypeError that names the ctx= replacement.
        assert not hasattr(ExecutionContext, "from_legacy_kwargs")
        from repro.experiments.registry import run_experiment

        with pytest.raises(TypeError, match=r"ctx=ExecutionContext\(seed=\.\.\.\)"):
            run_experiment("E5", seed=3)


class TestContextDrivesExperiments:
    def test_process_pool_context_matches_serial_rows(self):
        from repro.experiments import run_experiment

        kwargs = dict(sizes=(2, 3), count=3, families=("uniform",))
        serial = run_experiment("E1", **kwargs)
        with ExecutionContext(backend="process-pool", workers=2) as ctx:
            pooled = run_experiment("E1", ctx=ctx, **kwargs)
        assert serial.rows == pooled.rows

    def test_seed_changes_results(self):
        from repro.experiments import run_experiment

        kwargs = dict(small_sizes=(3,), small_count=3, large_sizes=(), large_count=0)
        a = run_experiment("E5", ctx=ExecutionContext(seed=0), **kwargs)
        b = run_experiment("E5", ctx=ExecutionContext(seed=1), **kwargs)
        assert a.rows != b.rows

    def test_no_experiment_takes_legacy_execution_kwargs(self):
        # The acceptance criterion of the refactor: no experiment signature
        # carries per-experiment execution options any more; execution travels
        # only through ctx.
        import inspect

        from repro.experiments.registry import EXPERIMENTS

        for spec in EXPERIMENTS.values():
            parameters = inspect.signature(spec.run).parameters
            assert "ctx" in parameters, spec.experiment_id
            for legacy in ("runner", "use_batch", "cache", "seed", "paper_scale"):
                assert legacy not in parameters, (spec.experiment_id, legacy)

    def test_vectorized_context_runs_every_experiment(self):
        # Every registered experiment accepts the same vectorized context
        # (tiny parameters keep this fast; E5/E6/E7 actually hit the kernels).
        from repro.experiments.report import run_all

        small = {
            "E1": dict(sizes=(2,), count=2, families=("uniform",)),
            "E2": dict(sizes=(3,), count=2, max_orders=10),
            "E3": dict(sizes=(2,), count=2, five_task_count=1),
            "E4": dict(sizes=(2,), count=2),
            "E5": dict(small_sizes=(2,), small_count=2, large_sizes=(6,), large_count=2),
            "E6": dict(sizes=(5,), count=2),
            "E7": dict(sizes=(10,), lp_sizes=(), simplex_sizes=(), batch_sizes=(4,), batch_task_count=4),
            "E8": dict(worker_counts=(4,), count=2),
            "E9": dict(small_sizes=(3,), large_sizes=(), count=2),
        }
        with ExecutionContext(backend="vectorized") as ctx:
            for experiment_id, params in small.items():
                (result,) = run_all(experiment_ids=[experiment_id], ctx=ctx, **params)
                assert result.experiment_id == experiment_id
