"""``trace-sweep``: pooled, shared-memory replay of a generated trace.

Each repetition calls :func:`repro.scenarios.stream.replay_stream` on one
seeded trace from ``tools/gen_trace.py`` (release times on, the default
chunk size) with the full default policy line-up, dispatched through
``ExecutionContext(backend="vectorized", workers=2, shm=True)``.  The
parent parses the CSV and folds the accumulators; the two pool workers run
the batched engine and the Lemma 1 bound on shared-memory row slices.

The trace is generated once per seed, before timing.  Its instance count
is a whole number of chunks, so every chunk is full.
"""

from __future__ import annotations

import functools
import math
import time
from pathlib import Path

from harness import Breakdown, Checks, Pass, Tracer, WorkloadBase, replaced

#: Platform size and the ``gen_trace`` shape of the trace.
P = 8.0
TASKS = (2, 10)
RELEASE_RATE = 1.0
WORKERS = 2
#: ``repro.scenarios.stream.DEFAULT_CHUNK_SIZE``; the trace fills whole chunks.
CHUNK_SIZE = 4096
#: Instances per second of ``--seconds``: fixed work, sized to take about
#: that long on a 2-vCPU host.
INSTANCES_PER_SECOND = 8000

_REL = 1e-9


class _RowCheck:
    """In-process stand-in for ``ExecutionContext.map_batch`` that checks rows.

    Runs the mapped function on the whole chunk, as ``replay_stream`` does
    without a context, and counts the rows whose ``(ratio, objective,
    makespan)`` says the Lemma 1 bound exceeds the objective.
    """

    def __init__(self) -> None:
        self.checks = Checks()

    def map_batch(self, fn, batch, extra=None):
        triples = list(fn(batch, extra) if extra else fn(batch))
        for row, (ratio, objective, _) in enumerate(triples):
            self.checks.expect(ratio >= 1.0 - _REL, f"row {row}: bound exceeds objective {objective}")
        return triples


class Workload(WorkloadBase):
    """The ``trace-sweep`` workload: every repetition replays the same trace."""

    # A chunk's best time depends on how the two pool workers happened to
    # overlap.  Over ten seeds, throughput from best chunk times spread
    # 0.11; from median chunk times, 0.04 and 0.14 in two sets of runs.
    BEST_OF_REPS = False
    BUSY_PROCESSES = WORKERS

    def __init__(self, work_dir: Path, seed: int, seconds: int, reps: int):
        self.seed = seed
        self.trace = work_dir / "trace.csv"
        self.ctx = None
        chunks = max(1, math.ceil(INSTANCES_PER_SECOND * seconds / reps / CHUNK_SIZE))
        self.instances = chunks * CHUNK_SIZE

    # -- parent side ------------------------------------------------------ #

    def prepare_shared(self) -> None:
        """Generate the trace, then replay it in process: the reference (untimed)."""
        import gen_trace

        from repro.batch import kernels, sim_kernels
        from repro.scenarios import stream

        if stream.DEFAULT_CHUNK_SIZE != CHUNK_SIZE:
            raise RuntimeError(f"default chunk size is now {stream.DEFAULT_CHUNK_SIZE}; update CHUNK_SIZE")
        _, self.rows = gen_trace.generate(
            str(self.trace), "csv", None, self.instances, TASKS, P, RELEASE_RATE, self.seed
        )
        # The pool workers are out of reach, so the kernel layers are timed
        # here, on the same chunks, during the reference replay.
        self.kernel_s = {"simulate": 0.0, "lower_bound": 0.0}
        self.events = 0

        def timed(key, fn):
            def call(*args, **kwargs):
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                self.kernel_s[key] += time.perf_counter() - start
                if key == "simulate":
                    self.events += int(result.num_events.sum())
                return result

            return call

        rows = _RowCheck()
        with replaced(sim_kernels, "simulate_batch", functools.partial(timed, "simulate")), replaced(
            kernels, "combined_lower_bound_batch", functools.partial(timed, "lower_bound")
        ):
            self.reference, total = stream.replay_stream(self.trace, P, ctx=rows)
        self.reference_checks = rows.checks
        self.reference_checks.expect(total == self.instances, f"reference replayed {total} instances")

    def shared_checks(self) -> Checks:
        return self.reference_checks

    def check_report(self, report: "dict[str, object]") -> Checks:
        """The pooled per-policy metrics equal the in-process reference."""
        checks = Checks()
        pooled = report["per_policy"]
        checks.expect(pooled.keys() == self.reference.keys(), f"policies {sorted(pooled)}")
        for name, want in self.reference.items():
            got = pooled.get(name, {})
            same = got.keys() == want.keys() and all(
                math.isclose(got[key], value, rel_tol=_REL, abs_tol=0.0) for key, value in want.items()
            )
            checks.expect(same, f"{name}: pooled {got} != in-process {want}")
        return checks

    def shared_layers(self, traced: "dict[str, object]") -> "dict[str, float]":
        kernel_s = self.kernel_s["simulate"] + self.kernel_s["lower_bound"]
        return {
            "stream.rows": float(self.rows),
            "sim_kernels.simulate_s": self.kernel_s["simulate"],
            "sim_kernels.events": float(self.events),
            "kernels.lower_bound_s": self.kernel_s["lower_bound"],
            "exec.overhead_s": traced["layers"]["exec.map_batch_s"] - kernel_s / WORKERS,
            "exec.worker_rss_mb": traced["worker_rss_mb"],
        }

    # -- set-up ----------------------------------------------------------- #

    def setup(self) -> None:
        """Imports, the execution context, and both pool workers started."""
        import numpy as np

        from repro.batch.kernels import combined_lower_bound_batch
        from repro.core.batch import InstanceBatch
        from repro.exec import ExecutionContext
        from repro.scenarios import stream

        self.stream = stream
        self.ctx = ExecutionContext(backend="vectorized", workers=WORKERS, shm=True)
        ones = np.ones((4 * WORKERS, 2))
        warm = InstanceBatch.from_arrays(P=np.full(4 * WORKERS, P), volumes=ones, weights=ones, deltas=ones)
        self.ctx.map_batch(combined_lower_bound_batch, warm)

    # -- timed passes ---------------------------------------------------- #

    def run(self, rep: int, tracer: "Tracer | None" = None) -> Pass:
        replay = functools.partial(self.stream.replay_stream, self.trace, P, ctx=self.ctx)
        if tracer is None:
            return self._replay(replay)
        import numpy as np

        from repro.exec import ExecutionContext, shm

        self.shm_bytes = 0

        def counting(publish):
            def call(batch, **extra):
                shared = publish(batch, **extra)
                for field in (*shared.handle.fields, *shared.handle.extra):
                    self.shm_bytes += math.prod(field.shape) * np.dtype(field.dtype).itemsize
                return shared

            return call

        with replaced(shm, "publish_batch", counting), tracer.patched(
            (ExecutionContext, "map_batch", "exec.map_batch"),
            (shm, "publish_batch", "exec.publish"),
            iterators=((self.stream, "stream_trace", "stream.parse"),),
        ):
            result = self._replay(tracer.wrap("stream.replay", replay))
        result.breakdown = Breakdown(result.seconds, tracer.stats())
        return result

    def _replay(self, replay) -> Pass:
        perf = time.perf_counter
        latencies: "list[float]" = []
        last = [perf()]

        def on_chunk(chunk, metrics) -> None:
            now = perf()
            latencies.append(now - last[0])
            last[0] = now

        start = last[0] = perf()
        per_policy, total = replay(on_chunk=on_chunk)
        seconds = perf() - start
        return Pass(total, seconds, latencies, output=per_policy)

    # -- output checks ---------------------------------------------------- #

    def finish(self, result: Pass) -> Checks:
        """Every chunk was replayed; the parent compares the metrics."""
        checks = Checks()
        checks.expect(result.operations == self.instances, f"pool replayed {result.operations} instances")
        return checks

    def report(self, result: Pass) -> "dict[str, object]":
        return {"per_policy": result.output}

    def layer_metrics(self, traced: Pass) -> "dict[str, float]":
        breakdown = traced.breakdown
        return {
            "stream.parse_s": breakdown.get("stream.parse").total_s,
            "stream.fold_s": breakdown.get("stream.replay").self_s,
            "stream.chunks": float(len(traced.latencies_s)),
            "exec.map_batch_s": breakdown.get("exec.map_batch").total_s,
            "exec.publish_s": breakdown.get("exec.publish").total_s,
            "exec.shm_bytes": float(self.shm_bytes),
        }

    def close(self) -> None:
        if self.ctx is not None:
            self.ctx.close()
            self.ctx = None
