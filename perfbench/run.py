#!/usr/bin/env python3
"""End-to-end benchmark of the malleable-scheduling reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

Workloads: ``serve`` (a durable ``SchedulerService`` driven in process),
``trace-sweep`` (pooled, shared-memory ``replay_stream`` of a generated
trace) and ``exact-opt`` (branch-and-bound exact optima).  Every input is
built from ``--seed`` before timing starts, and the timed work is fixed:
``--seconds`` sets how much work a run does (sized to take about that
long on a 2-vCPU host), never when it stops.

A workload has ``SETS`` seeded input sets, and the run makes :data:`REPS`
repetitions; repetition ``r`` works on set ``r % SETS``, so every set is
run several times, spread over the whole run.  Each repetition runs in a
fresh interpreter: it sets the program up (imports, construction, pool
spawn), builds its inputs, runs the timed phase, checks the outputs and
reports its set-up time, per-unit latencies (a request, an instance or a
chunk) and peak memory.

The host's speed changes by up to 2x from one second to the next, and by
up to 1.5x between phases that last minutes.  Two steps keep both out of
the timed metrics:

* Host speed.  Each repetition times a fixed pure-Python loop, best of
  25, right before and right after its timed phase (``calib_ms``), and
  its latencies are scaled by ``REF_CALIB_MS / calib_ms``: they read as
  on a host where the loop takes :data:`REF_CALIB_MS`.  A workload that
  keeps ``BUSY_PROCESSES`` processors busy times the loop in that many
  processes at once and counts the slowest.
* Short stalls.  Each unit of work keeps its least scaled latency over
  the repetitions that ran it.  ``trace-sweep`` keeps the median
  (``BEST_OF_REPS = False``): a chunk's best time depends on how its two
  pool workers happened to overlap.

``throughput`` is the operations of all units over the sum of their
latencies; ``exact-opt`` leaves out its slowest ``TRIM`` = 5% of
instances, whose cost is heavy-tailed.  ``p50_ms`` is the median of all
the units' latencies.  ``setup_s`` and ``peak_rss_mb`` are medians over
the repetitions, unscaled.  The diagnostics line holds the unscaled
figures beside them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds one
traced repetition that wraps the library's public calls in spans and
reports the per-layer breakdown instead.  A failed output check makes the
run exit 1.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds diagnostics, among them ``machine.calib_ms``, a fixed interpreter
loop timed before and after the run.  See ``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Repetitions per run, each in its own interpreter; a multiple of every
#: workload's ``SETS``.
REPS = 12
#: Best time of the calibration loop on the reference host, in ms; timed
#: metrics are scaled to it (a 2-vCPU KVM guest measures 1.0 to 1.7).
REF_CALIB_MS = 1.0
#: Seconds one repetition may take before the run is abandoned.
REP_TIMEOUT = 120

WORKLOADS = {
    "serve": "serve_workload",
    "trace-sweep": "sweep_workload",
    "exact-opt": "exact_workload",
}


def _workload_class(name: str):
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]
    return importlib.import_module(WORKLOADS[name]).Workload


def _repetition(args: argparse.Namespace) -> int:
    """Child mode: set up, build inputs, run one timed repetition, report it."""
    from harness import Tracer, best_calibration_ms, children_peak_rss_mb, peak_rss_mb

    start = time.perf_counter()
    workload_class = _workload_class(args.workload)
    workload = workload_class(args.work_dir, args.seed, args.seconds, REPS)
    workload.setup()
    setup_s = time.perf_counter() - start
    try:
        workload.prepare(args.rep % workload_class.SETS)
        tracer = Tracer() if args.traced else None
        # The traced repetition is not scaled, and calibrating it in child
        # processes would put their size into its workers' peak memory.
        busy = 0 if args.traced else workload_class.BUSY_PROCESSES
        calib_before = best_calibration_ms(processes=busy) if busy else None
        result = workload.run(args.rep, tracer)
        calib_ms = min(calib_before, best_calibration_ms(processes=busy)) if busy else None
        checks = workload.finish(result)
        report = {
            "setup_s": setup_s,
            "calib_ms": calib_ms,
            "set": args.rep % workload_class.SETS,
            "operations": result.operations,
            "seconds": result.seconds,
            "latencies_s": result.latencies_s,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "problems": checks.problems,
            "report": workload.report(result),
        }
        if tracer is not None:
            report["layers"] = workload.layer_metrics(result)
            report["coverage_pct"] = result.breakdown.coverage_pct
    finally:
        workload.close()
    report["worker_rss_mb"] = children_peak_rss_mb()
    report["peak_rss_mb"] = max(peak_rss_mb(), report["worker_rss_mb"])
    print(json.dumps(report))
    return 0


def _spawn(args: argparse.Namespace, work_dir: Path, rep: int, traced: bool) -> dict:
    command = [
        sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--rep", str(rep), "--work-dir", str(work_dir),
    ]
    if traced:
        command.append("--traced")
    child = subprocess.run(command, capture_output=True, text=True, timeout=REP_TIMEOUT)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        print(f"error: repetition {rep} exited with {child.returncode}", file=sys.stderr)
        raise SystemExit(2)
    return json.loads(child.stdout.strip().splitlines()[-1])


def _unit_latencies(reps: "list[dict]", sets: int, checks, best_of: bool, scaled: bool = True) -> "list[float]":
    """Each unit's latency over the repetitions that ran it, for all sets.

    A unit keeps its least latency with ``best_of``, its median otherwise.
    With ``scaled``, every latency is first scaled to the reference host by
    its repetition's calibration.
    """
    combine = min if best_of else statistics.median
    latencies = []
    for index in range(sets):
        group = [rep for rep in reps if rep["set"] == index]
        units = {len(rep["latencies_s"]) for rep in group}
        checks.expect(len(units) == 1, f"set {index}: repetitions timed {sorted(units)} units")
        factors = [REF_CALIB_MS / rep["calib_ms"] if scaled else 1.0 for rep in group]
        samples = [[t * factor for t in rep["latencies_s"]] for rep, factor in zip(group, factors)]
        latencies.extend(combine(unit) for unit in zip(*samples))
    return latencies


def _throughput(latencies: "list[float]", operations_per_unit: float, trim: float) -> float:
    """Operations per second over the units, leaving out the slowest ``trim`` share."""
    kept = sorted(latencies)[: len(latencies) - round(trim * len(latencies))]
    return operations_per_unit * len(kept) / sum(kept)


def _summary(label: str, metrics: "dict[str, dict[str, float | str]]") -> None:
    print(f"{label}:")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="sizes the fixed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rep", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.rep is not None:
        return _repetition(args)

    from harness import PER_LAYER_UNITS, Checks, calibration_ms, percentile_ms

    workload_class = _workload_class(args.workload)
    work_dir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        calib_before = calibration_ms()
        parent = workload_class(work_dir, args.seed, args.seconds, REPS)
        parent.prepare_shared()
        reps = [_spawn(args, work_dir, rep, traced=False) for rep in range(REPS)]
        traced = _spawn(args, work_dir, 0, traced=True) if args.trace else None
        calib_after = calibration_ms()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    checks = parent.shared_checks()
    for rep in reps + ([traced] if traced else []):
        checks.merge(Checks(rep["attempted"], rep["failed"], rep["problems"]))
        checks.merge(parent.check_report(rep["report"]))

    throughputs = [rep["operations"] / rep["seconds"] for rep in reps]
    sets, best_of = workload_class.SETS, workload_class.BEST_OF_REPS
    unit_s = _unit_latencies(reps, sets, checks, best_of)
    unscaled_unit_s = _unit_latencies(reps, sets, Checks(), best_of, scaled=False)
    per_unit_ops = reps[0]["operations"] / len(reps[0]["latencies_s"])
    end_to_end = {
        "throughput": {"value": _throughput(unit_s, per_unit_ops, workload_class.TRIM), "unit": "1/s"},
        "p50_ms": {"value": percentile_ms(unit_s, 50), "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reps), "unit": "MB"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in reps), "unit": "s"},
    }
    calib = (calib_before + calib_after) / 2
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "reps": REPS,
        "sets": workload_class.SETS,
        "operations_per_rep": reps[0]["operations"],
        "latency_samples_per_rep": len(reps[0]["latencies_s"]),
        "p99_ms": percentile_ms(unit_s, 99),
        "unscaled_throughput": _throughput(unscaled_unit_s, per_unit_ops, workload_class.TRIM),
        "unscaled_p50_ms": percentile_ms(unscaled_unit_s, 50),
        "throughput_per_rep": throughputs,
        "peak_rss_mb_per_rep": [r["peak_rss_mb"] for r in reps],
        "setup_s_per_rep": [r["setup_s"] for r in reps],
        "machine.calib_ms": calib,
        "calib_ms_per_rep": [r["calib_ms"] for r in reps],
        "machine.calib_ms_before_after": [calib_before, calib_after],
    }
    per_unit = f"{'best' if best_of else 'median'} of {REPS // sets} per unit"
    _summary(f"{args.workload} seed {args.seed}: end-to-end ({per_unit})", end_to_end)
    print(f"  {'p99_ms (not gated)':40s} {diagnostics['p99_ms']:14.6g} ms")
    if traced is not None:
        layers = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        layers.update(traced["layers"])
        layers.update(parent.shared_layers(traced))
        layers["machine.calib_ms"] = calib
        # The traced repetition replays set 0; against the median untraced
        # time of that set it is less exposed to one noisy repetition.
        untraced_s = statistics.median(rep["seconds"] for rep in reps if rep["set"] == 0)
        layers["trace.overhead_pct"] = 100.0 * (traced["seconds"] / untraced_s - 1.0)
        layers["trace.coverage_pct"] = traced["coverage_pct"]
        checks.expect(
            abs(traced["coverage_pct"] - 100.0) <= 10.0,
            f"layer self times cover {traced['coverage_pct']:.1f}% of the traced total",
        )
        metrics = {name: {"value": float(value), "unit": PER_LAYER_UNITS[name]} for name, value in layers.items()}
        _summary("per-layer (one traced repetition)", metrics)
    else:
        metrics = end_to_end
    diagnostics["error_rate"] = checks.failed / checks.attempted
    diagnostics["problems"] = checks.problems
    print(f"  {'error_rate':40s} {diagnostics['error_rate']:14.6g} ({checks.failed} of {checks.attempted})")
    print(json.dumps({"diagnostics": diagnostics}))
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
