"""``exact-opt``: branch-and-bound exact optima of mixed-size instances.

Each repetition solves the seeded ``cluster_instances`` of its input set
with :func:`repro.lp.exact.branch_and_bound_optimal_batch`, one call per
instance.  The sizes cycle through :data:`SIZES`, which straddle
``_LOCKSTEP_MAX_TASKS = 8``: leaves with ``n <= 8`` go to the lockstep
simplex, larger ones to one HiGHS call per LP.  No engine, stream, exec or
service code runs in the timed phase.

The search handles the rows of a batch one task count at a time, so a
batch with one instance of each size costs what its three single-instance
calls cost; timing instances one by one gives shorter units, whose best
time over the repetitions is steadier.

The cost of one instance is heavy-tailed.  At ``cluster_instances``'
default ``P = 64`` about one instance in thirty with ``n = 9`` or
``n = 10`` needs thousands of leaf LPs (up to 13.6 s in samples of 30),
and at ``P = 128`` an ``n = 10`` instance still takes seconds now and
then.  So the platform is ``P = 128`` and the sizes stop at 9, where the
median instance needs about 15 LPs and a few in a thousand take a
second or more.
"""

from __future__ import annotations

import time
from pathlib import Path

from harness import Breakdown, Checks, Pass, Tracer, WorkloadBase

#: Platform size and task counts of the generated instances.
P = 128.0
SIZES = (7, 8, 9)
#: Instances per second of ``--seconds``: fixed work, sized to take about
#: that long on a 2-vCPU host.
INSTANCES_PER_SECOND = 18

_REL = 1e-9
#: Lockstep simplex and HiGHS agree to about this relative precision.
_LP_REL = 1e-6


class Workload(WorkloadBase):
    """The ``exact-opt`` workload: seeded instances per input set."""

    SETS = 6
    # One instance in a few hundred needs tens of times the median time
    # (up to 14% of a run's total).  Over ten seeds, throughput spread 0.17
    # with every instance and 0.06 without the slowest 5%.
    TRIM = 0.05

    def __init__(self, work_dir: Path, seed: int, seconds: int, reps: int):
        self.seed = seed
        per_rep = INSTANCES_PER_SECOND * seconds // reps
        self.rounds = max(1, round(per_rep / len(SIZES)))

    # -- set-up --------------------------------------------------------- #

    def setup(self) -> None:
        """Imports, including SciPy's HiGHS front end that the first solve loads."""
        import scipy.optimize  # noqa: F401 - imported lazily by the first HiGHS call

        from repro.lp import exact

        self.exact = exact

    def prepare(self, input_set: int) -> None:
        """Generate the instances of ``input_set``, one batch each (untimed)."""
        import numpy as np

        from repro.core.batch import InstanceBatch
        from repro.workloads.generators import cluster_instances

        rng = np.random.default_rng([self.seed, input_set])
        self.batches = [
            InstanceBatch.from_instances(cluster_instances(n, 1, P=P, rng=rng))
            for _ in range(self.rounds)
            for n in SIZES
        ]
        # The first solves in an interpreter are about 45 ms slower than the
        # rest; warm up on one instance of each size so every timed solve is alike.
        for batch in self.batches[: len(SIZES)]:
            self.exact.branch_and_bound_optimal_batch(batch)

    # -- timed passes ---------------------------------------------------- #

    def run(self, rep: int, tracer: "Tracer | None" = None) -> Pass:
        batches = self.batches
        solve = self.exact.branch_and_bound_optimal_batch
        if tracer is None:
            return self._solve(batches, solve)
        import scipy.optimize

        from repro.lp import batch as lp_batch

        with tracer.patched(
            (lp_batch, "build_ordered_lp_batch", "lp.build"),
            (self.exact, "solve_linear_program_batch", "lp.lockstep"),
            (scipy.optimize, "linprog", "lp.highs"),
        ):
            result = self._solve(batches, tracer.wrap("exact.search", solve))
        result.breakdown = Breakdown(result.seconds, tracer.stats())
        return result

    @staticmethod
    def _solve(batches, solve) -> Pass:
        perf = time.perf_counter
        latencies = []
        results = []
        start = perf()
        for batch in batches:
            sent = perf()
            results.append(solve(batch))
            latencies.append(perf() - sent)
        seconds = perf() - start
        operations = sum(batch.batch_size for batch in batches)
        return Pass(operations, seconds, latencies, output=list(zip(batches, results)))

    # -- output checks ---------------------------------------------------- #

    def finish(self, result: Pass) -> Checks:
        """Lemma 1 bound <= OPT <= WDEQ <= 2 OPT, and OPT is the HiGHS value of its order."""
        from repro.batch.kernels import combined_lower_bound_batch
        from repro.batch.sim_kernels import WdeqBatchPolicy, simulate_batch
        from repro.lp.batch import solve_ordered_relaxation_batch

        checks = Checks()
        stats = self.exact.ExactSearchStats()
        for batch, solved in result.output:
            stats.merge(solved.stats)
            opt = solved.objectives
            bound = combined_lower_bound_batch(batch)
            wdeq = simulate_batch(batch, WdeqBatchPolicy()).weighted_completion_times()
            highs = solve_ordered_relaxation_batch(batch, orders=solved.orders, backend="scipy").objectives
            for row in range(batch.batch_size):
                o, b, w, h = opt[row], bound[row], wdeq[row], highs[row]
                ok = (
                    b <= o * (1 + _REL)
                    and o <= w * (1 + _REL)
                    and w <= 2 * o * (1 + _REL)
                    and abs(o - h) <= _LP_REL * max(1.0, abs(h))
                )
                checks.expect(ok, f"n={int(batch.counts[row])}: bound {b} OPT {o} WDEQ {w} HiGHS {h}")
        result.output = stats
        return checks

    # -- reporting -------------------------------------------------------- #

    def layer_metrics(self, traced: Pass) -> "dict[str, float]":
        breakdown = traced.breakdown
        stats = traced.output
        return {
            "exact.lps_solved": float(stats.lps_solved),
            "exact.nodes_expanded": float(stats.nodes_expanded),
            "exact.pruned": float(stats.pruned),
            "exact.floors_certified": float(stats.floors_certified),
            "lp.build_s": breakdown.get("lp.build").total_s,
            "lp.lockstep_calls": float(breakdown.get("lp.lockstep").calls),
            "lp.lockstep_s": breakdown.get("lp.lockstep").total_s,
            "lp.highs_calls": float(breakdown.get("lp.highs").calls),
            "lp.highs_s": breakdown.get("lp.highs").total_s,
            "exact.search_self_s": breakdown.get("exact.search").self_s,
        }
