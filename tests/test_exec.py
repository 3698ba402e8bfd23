"""Tests for the ExecutionContext and the InstanceBatch struct-of-arrays type."""

from __future__ import annotations

import functools
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.batch.cache import ResultCache, cache_key
from repro.core.batch import InstanceBatch
from repro.core.bounds import combined_lower_bound
from repro.core.exceptions import InvalidInstanceError
from repro.core.instance import Instance, Task
from repro.exec import BACKENDS, ExecutionContext
from repro.workloads.generators import bandwidth_scenario_instances, cluster_instances
from repro.workloads.suites import get_suite

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

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


def _row_sum_and_mapped_segments(sub):
    """Per row: the volume sum, and how many shared segments this node maps."""
    with open("/proc/self/maps") as maps:
        segments = {line.split()[5] for line in maps if "/dev/shm/" in line}
    return [(float(total), len(segments)) for total in sub.volumes.sum(axis=1)]


def _die_once(marker, x):
    """Double ``x``; the first node to reach item 3 SIGKILLs itself instead."""
    if x == 3 and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return 2 * x


class TestExecutionContext:
    def test_defaults_are_serial(self):
        ctx = ExecutionContext()
        assert ctx.backend == "serial"
        assert ctx.cache is None
        assert ctx.map(_double, [1, 2]) == [2, 4]
        assert not ctx.off_process and ctx.coordinator is None  # never forks nodes
        with pytest.raises(ValueError, match="in-process"):
            ctx.cluster()

    def test_backend_validation(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            ExecutionContext(backend="gpu")
        with pytest.raises(ValueError, match="workers"):
            ExecutionContext(workers=-1)
        assert set(BACKENDS) == {"serial", "process-pool", "cluster"}
        # The deprecated "vectorized" alias still constructs: serial, or
        # process-pool once workers are asked for.
        assert ExecutionContext(backend="vectorized").backend == "serial"
        assert ExecutionContext(backend="vectorized", workers=2).backend == "process-pool"

    def test_workers_promote_serial_to_process_pool(self):
        # A context that reports "serial" must never shard: asking for
        # workers selects the pool backend.
        with ExecutionContext(workers=2) as ctx:
            assert ctx.backend == "process-pool"
            assert ctx.map(_double, [1, 2, 3]) == [2, 4, 6]
            assert ctx.last_submission_count > 0
        # Serial without workers stays a plain in-process loop, and may map
        # non-picklable functions.
        assert ExecutionContext().map(lambda x: x * 2, [1, 2]) == [2, 4]

    def test_workers_build_a_pool(self):
        with ExecutionContext(workers=2) as ctx:
            assert ctx.off_process
            assert ctx.coordinator is None  # local nodes are forked on first use
            assert ctx.map(_double, [1, 2, 3]) == [2, 4, 6]
            nodes = ctx.coordinator
            assert nodes is not None and nodes.local_nodes == 2 and nodes.live_workers() == 2
            assert ctx.map(_double, [4, 5]) == [8, 10]
            assert ctx.coordinator is nodes  # one set of nodes for every map
        assert ctx.coordinator is None  # close() drained and joined them

    def test_close_leaves_no_live_child_process(self):
        import multiprocessing

        with ExecutionContext(workers=2) as ctx:
            assert ctx.map(_double, [1, 2, 3]) == [2, 4, 6]
            processes = [worker.process for worker in ctx.coordinator._workers]
            assert all(process.is_alive() for process in processes)
        assert not any(process.is_alive() for process in processes)
        assert all(process.exitcode == 0 for process in processes)  # drained, not killed
        assert not multiprocessing.active_children()

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
    def test_local_nodes_keep_a_bounded_number_of_segments_mapped(self):
        from repro.exec.cluster import MAX_NODE_BATCHES

        rng = np.random.default_rng(4)
        with ExecutionContext(workers=2) as ctx:
            for _ in range(5 * MAX_NODE_BATCHES):
                batch = InstanceBatch.from_arrays(
                    P=rng.uniform(1.0, 4.0, 8),
                    volumes=rng.uniform(0.1, 1.0, (8, 3)),
                    weights=np.ones((8, 3)),
                    deltas=np.ones((8, 3)),
                )
                rows = ctx.map_batch(_row_sum_and_mapped_segments, batch)
                assert [total for total, _ in rows] == list(batch.volumes.sum(axis=1))
                assert max(mapped for _, mapped in rows) <= MAX_NODE_BATCHES

    def test_local_node_killed_mid_map_is_reassigned(self, tmp_path):
        """SIGKILL one local node during a map: the result still equals the
        serial one, and the lost chunk is re-run on the survivor."""
        items = list(range(8))
        marker = tmp_path / "killed"
        fn = functools.partial(_die_once, str(marker))
        with ExecutionContext(workers=2) as ctx:
            assert ctx.map(fn, items) == [2 * x for x in items]
            stats = dict(ctx.coordinator.stats)
        assert marker.exists()
        assert stats["reassigned"] >= 1 and stats["dead_workers"] == 1

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_local_nodes_exit_when_their_parent_dies(self):
        """A SIGKILLed parent never reaches close(): its nodes see EOF and exit."""
        script = (
            "import time\n"
            "from repro.exec import ExecutionContext\n"
            "ctx = ExecutionContext(workers=2)\n"
            "ctx.map(abs, [1, -2, 3])\n"
            "print(*(w.process.pid for w in ctx.coordinator._workers), flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])))
        parent = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env)
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
        finally:
            parent.kill()
            parent.wait(timeout=10)
            parent.stdout.close()
        assert len(pids) == 2

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 10.0
        while any(running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(running(pid) for pid in pids)

    def test_pool_map_matches_serial(self):
        insts = list(cluster_instances(6, 8, rng=np.random.default_rng(1)))
        serial = [combined_lower_bound(inst) for inst in insts]
        with ExecutionContext(workers=2) as ctx:
            assert ctx.map(combined_lower_bound, insts) == serial

    def test_shm_keyword_is_accepted_and_ignored(self):
        # Deprecated: pooled batch maps always go through shared memory.
        # (The exact spelling of the trace-sweep benchmark's context.)
        with ExecutionContext(backend="vectorized", workers=2, shm=True) as ctx:
            assert ctx == ExecutionContext(backend="vectorized", workers=2)
            assert ctx.backend == "process-pool" and ctx.off_process

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

    def test_cached_keys_are_shared_by_every_backend(self):
        # Every backend computes the same values, so the key holds no
        # backend and no LP solver: serial and pooled runs share an entry.
        cache = ResultCache()
        values = iter(["first", "unused"])

        def compute():
            return next(values)

        assert ExecutionContext(cache=cache).cached("sweep", {"n": 1}, compute) == "first"
        # No node is forked: the entry is already cached.
        pool_ctx = ExecutionContext(cache=cache, backend="process-pool", workers=2)
        assert pool_ctx.cached("sweep", {"n": 1}, compute) == "first"
        assert len(cache) == 1 and cache_key("sweep", 0, {"n": 1}) in cache

    def test_from_options_lp_backend(self):
        # Neither the lp_backend knob nor --batch reaches the context: the
        # problem size picks the LP solver.
        for removed in ("lp_backend", "batch"):
            with pytest.raises(TypeError, match=removed):
                ExecutionContext.from_options(**{removed: True})
        with pytest.raises(TypeError, match="lp_backend"):
            ExecutionContext(lp_backend="scipy")  # type: ignore[call-arg]

    @pytest.mark.parametrize(
        ("field", "value"),
        [("cell_timeout", 0.0), ("cell_timeout", -1.0), ("cluster_retries", -3)],
    )
    def test_invalid_cluster_knobs_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExecutionContext(backend="cluster", hosts="127.0.0.1:1", **{field: value})
        with pytest.raises(ValueError, match=field):
            ExecutionContext.from_options(workers=2, **{field: value})

    @pytest.mark.parametrize("content", [b'{"a": [1, 2', b"[1, 2]"], ids=["truncated", "not-an-object"])
    def test_unloadable_cache_file_raises_and_is_left_intact(self, tmp_path, content):
        path = tmp_path / "results-cache.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=r"results-cache\.json.*delete the file"):
            ResultCache(path=path)
        with pytest.raises(ValueError, match="delete the file"):
            ExecutionContext.from_options(cache_dir=tmp_path)
        assert path.read_bytes() == content
        assert len(ResultCache(path=tmp_path / "missing.json")) == 0  # absent means empty

    def test_close_saves_backed_cache(self, tmp_path):
        path = tmp_path / "cache.json"
        ctx = ExecutionContext(cache=ResultCache(path=path))
        ctx.cached("sweep", {"n": 1}, lambda: [1.0, 2.0])
        ctx.close()
        reloaded = ResultCache(path=path)
        assert len(reloaded) == 1

    def test_failed_cache_save_keeps_the_old_file_and_raises(self, tmp_path, monkeypatch):
        import errno
        import json

        path = tmp_path / "cache.json"
        with ExecutionContext(cache=ResultCache(path=path)) as ctx:
            ctx.cached("sweep", {"n": 1}, lambda: [1.0])
        before = path.read_bytes()
        real_dumps = json.dumps

        def torn_dump(obj, handle, **kwargs):
            handle.write(real_dumps(obj)[:5])  # part of the payload, then the disk fills
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(json, "dump", torn_dump)
        ctx = ExecutionContext(cache=ResultCache(path=path))
        ctx.cached("sweep", {"n": 2}, lambda: [2.0])
        with pytest.raises(OSError, match="No space left on device"):
            ctx.close()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]  # no temp file left

    def test_cache_save_keeps_the_file_mode(self, tmp_path):
        import os
        import stat

        path = tmp_path / "cache.json"
        old_umask = os.umask(0o022)
        try:
            ResultCache(path=path).save()
            assert stat.S_IMODE(path.stat().st_mode) == 0o644  # a new file follows the umask
            path.chmod(0o640)
            cache = ResultCache(path=path)
            cache.put("k", 1)
            cache.save()
            assert stat.S_IMODE(path.stat().st_mode) == 0o640  # an existing file keeps its mode
        finally:
            os.umask(old_umask)

    def test_from_options_backend_mapping(self):
        assert ExecutionContext.from_options().backend == "serial"
        with ExecutionContext.from_options(workers=2) as ctx:
            assert ctx.backend == "process-pool" and ctx.map(_double, [1, 2]) == [2, 4]
            assert ctx.last_submission_count > 0
        # The CLI no longer offers the deprecated alias.
        with pytest.raises(ValueError, match="unknown execution backend"):
            ExecutionContext.from_options(backend="vectorized")

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
        # Every registered experiment accepts a context built with the
        # deprecated "vectorized" alias (tiny parameters keep this fast).
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
