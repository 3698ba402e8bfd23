"""Benchmark — streamed trace replay: throughput and bounded peak memory.

Script mode (used by the CI benchmark-smoke job)::

    python benchmarks/bench_trace.py --smoke --output BENCH_trace.json

synthesises two traces with ``tools/gen_trace.py`` — a small one and one
several times larger — and measures, each in a **fresh subprocess** so peak
RSS (``resource.getrusage``) is attributable to exactly one workload:

* **Streamed replay** (:func:`repro.scenarios.stream.replay_stream`) of both
  traces: wall-clock seconds land in ``benchmarks`` (compared against the
  committed baseline by ``compare_baseline.py``), rows/s and peak RSS in
  ``derived``.
* **In-memory replay** (the legacy :func:`repro.scenarios.families.load_trace`
  path: every row becomes a ``Task`` object before anything simulates) of the
  same traces, for the memory contrast.

Two gates make the tentpole claim enforceable:

* the streamed peak RSS on the large trace must stay within
  ``MEMORY_GROWTH_LIMIT`` of the small-trace peak (plus a fixed allowance) —
  peak memory is O(chunk), independent of trace length;
* the in-memory peak on the large trace must exceed the streamed peak by a
  clear margin — i.e. the streaming path actually avoids the O(trace) cost
  it was built to avoid.

Run the pytest-benchmark variant with ``pytest benchmarks/bench_trace.py
--benchmark-only``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GEN_TRACE = os.path.join(REPO_ROOT, "tools", "gen_trace.py")

#: Streamed peak RSS on the large trace may be at most this multiple of the
#: small-trace peak (the interpreter + NumPy baseline dominates both)...
MEMORY_GROWTH_LIMIT = 1.35
#: ...plus this absolute allowance, so tiny absolute wobbles (allocator
#: pools, import order) cannot fail the ratio on small smoke traces.
MEMORY_GROWTH_SLACK_MB = 24.0
#: The in-memory path must pay at least this much more RSS than the
#: streamed path on the large trace — the O(trace) vs O(chunk) contrast.
INMEMORY_MARGIN_MB = 24.0


def _subprocess_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def generate_trace(path: str, rows: int, seed: int, release_rate: float = 1.0) -> None:
    """Synthesise a trace via tools/gen_trace.py (its own process, O(1) RAM)."""
    subprocess.run(
        [
            sys.executable, GEN_TRACE, "--out", path, "--rows", str(rows),
            "--seed", str(seed), "--release-rate", str(release_rate),
        ],
        check=True,
        env=_subprocess_env(),
        stdout=subprocess.DEVNULL,
    )


def measure(mode: str, trace: str, chunk_size: int) -> dict:
    """Run one replay in a fresh interpreter; returns its timing + peak RSS.

    A subprocess per measurement is what makes ``ru_maxrss`` meaningful: the
    high-water mark belongs to exactly one workload, not to whatever the
    benchmark driver touched before.
    """
    code = (
        "import json, resource, sys, time\n"
        "mode, trace, chunk = sys.argv[1], sys.argv[2], int(sys.argv[3])\n"
        "start = time.perf_counter()\n"
        "if mode == 'streamed':\n"
        "    from repro.scenarios.stream import replay_stream\n"
        "    per_policy, total = replay_stream(\n"
        "        trace, 8.0, chunk_size=chunk, policies=('WDEQ',))\n"
        "else:\n"
        "    import numpy as np\n"
        "    from repro.batch.kernels import combined_lower_bound_batch\n"
        "    from repro.core.batch import InstanceBatch\n"
        "    from repro.scenarios.families import load_trace\n"
        "    from repro.scenarios.stream import _simulate_rows\n"
        "    instances, releases = load_trace(trace, 8.0)\n"
        "    batch = InstanceBatch.from_instances(instances)\n"
        "    extra = {'bounds': combined_lower_bound_batch(batch)}\n"
        "    if releases is not None:\n"
        "        extra['releases'] = releases\n"
        "    triples = _simulate_rows('WDEQ', batch, extra)\n"
        "    total = batch.batch_size\n"
        "    per_policy = {'WDEQ': {'mean_ratio': float(np.mean([t[0] for t in triples]))}}\n"
        "seconds = time.perf_counter() - start\n"
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "peak_mb = rss / 1e6 if sys.platform == 'darwin' else rss / 1024.0\n"
        "print(json.dumps({'seconds': seconds, 'peak_mb': peak_mb, 'instances': total,\n"
        "                  'mean_ratio': per_policy['WDEQ']['mean_ratio']}))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, mode, trace, str(chunk_size)],
        check=True,
        env=_subprocess_env(),
        capture_output=True,
        text=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def run_trace_benchmark(
    small_rows: int, big_rows: int, chunk_size: int, seed: int, workdir: str
) -> "tuple[dict, dict]":
    """Measure streamed + in-memory replay of a small and a large trace."""
    small = os.path.join(workdir, "trace_small.csv")
    big = os.path.join(workdir, "trace_big.csv")
    generate_trace(small, small_rows, seed)
    generate_trace(big, big_rows, seed + 1)

    streamed_small = measure("streamed", small, chunk_size)
    streamed_big = measure("streamed", big, chunk_size)
    inmemory_small = measure("inmemory", small, chunk_size)
    inmemory_big = measure("inmemory", big, chunk_size)

    benchmarks = {
        "trace_streamed_small_seconds": streamed_small["seconds"],
        "trace_streamed_big_seconds": streamed_big["seconds"],
        "trace_inmemory_small_seconds": inmemory_small["seconds"],
    }
    derived = {
        "trace_small_rows": float(small_rows),
        "trace_big_rows": float(big_rows),
        "trace_big_instances": float(streamed_big["instances"]),
        "trace_streamed_rows_per_s_big": big_rows / max(streamed_big["seconds"], 1e-9),
        "trace_streamed_peak_mb_small": streamed_small["peak_mb"],
        "trace_streamed_peak_mb_big": streamed_big["peak_mb"],
        "trace_inmemory_peak_mb_small": inmemory_small["peak_mb"],
        "trace_inmemory_peak_mb_big": inmemory_big["peak_mb"],
        "trace_streamed_peak_growth": streamed_big["peak_mb"]
        / max(streamed_small["peak_mb"], 1e-9),
        "trace_inmemory_over_streamed_mb": inmemory_big["peak_mb"]
        - streamed_big["peak_mb"],
    }
    return benchmarks, derived


def check_gates(derived: dict) -> list[str]:
    """The two memory gates; returns human-readable failures (empty = pass)."""
    failures = []
    limit = derived["trace_streamed_peak_mb_small"] * MEMORY_GROWTH_LIMIT + MEMORY_GROWTH_SLACK_MB
    if derived["trace_streamed_peak_mb_big"] > limit:
        failures.append(
            f"streamed peak RSS grows with trace length: "
            f"{derived['trace_streamed_peak_mb_big']:.1f} MB on the big trace vs "
            f"{derived['trace_streamed_peak_mb_small']:.1f} MB on the small one "
            f"(limit {limit:.1f} MB) — expected O(chunk), not O(trace)"
        )
    if derived["trace_inmemory_over_streamed_mb"] < INMEMORY_MARGIN_MB:
        failures.append(
            f"in-memory replay only used "
            f"{derived['trace_inmemory_over_streamed_mb']:.1f} MB more than the "
            f"streamed path on the big trace (expected >= {INMEMORY_MARGIN_MB} MB) — "
            "the benchmark no longer demonstrates the O(trace) contrast"
        )
    return failures


# --------------------------------------------------------------------- #
# pytest-benchmark variant
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("trace") / "bench_small.csv")
    generate_trace(path, rows=4000, seed=7)
    return path


@pytest.mark.benchmark(group="trace")
def test_streamed_replay(benchmark, small_trace):
    from repro.scenarios.stream import replay_stream

    per_policy, total = benchmark(
        replay_stream, small_trace, 8.0, chunk_size=256, policies=("WDEQ",)
    )
    assert total > 0 and "WDEQ" in per_policy


def test_streamed_matches_inmemory(small_trace):
    from repro.batch.kernels import combined_lower_bound_batch
    from repro.core.batch import InstanceBatch
    from repro.scenarios.families import load_trace
    from repro.scenarios.stream import _simulate_rows, replay_stream

    per_policy, total = replay_stream(small_trace, 8.0, chunk_size=100, policies=("WDEQ",))
    instances, releases = load_trace(small_trace, 8.0)
    batch = InstanceBatch.from_instances(instances)
    extra = {"bounds": combined_lower_bound_batch(batch)}
    if releases is not None:
        extra["releases"] = releases
    triples = _simulate_rows("WDEQ", batch, extra)
    assert total == batch.batch_size
    ratios = np.array([t[0] for t in triples])
    assert per_policy["WDEQ"]["mean_ratio"] == pytest.approx(ratios.mean(), rel=1e-9)
    assert per_policy["WDEQ"]["max_ratio"] == pytest.approx(ratios.max(), rel=1e-12)


# --------------------------------------------------------------------- #
# Script mode
# --------------------------------------------------------------------- #


def main(argv=None) -> int:
    import argparse
    import tempfile

    from _common import write_payload

    parser = argparse.ArgumentParser(
        description="Streamed trace-replay benchmark (script mode)"
    )
    parser.add_argument("--smoke", action="store_true", help="reduced CI configuration")
    parser.add_argument("--output", default="BENCH_trace.json", help="output JSON path")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    if args.smoke:
        small_rows, big_rows, chunk_size = 30_000, 120_000, 2048
    else:
        small_rows, big_rows, chunk_size = 120_000, 1_200_000, 4096
    config = {
        "small_rows": small_rows,
        "big_rows": big_rows,
        "chunk_size": chunk_size,
        "seed": args.seed,
        "smoke": args.smoke,
    }
    with tempfile.TemporaryDirectory(prefix="bench_trace_") as workdir:
        benchmarks, derived = run_trace_benchmark(
            small_rows, big_rows, chunk_size, args.seed, workdir
        )
    write_payload("trace", config, benchmarks, derived, args.output)
    for name, seconds in sorted(benchmarks.items()):
        print(f"  {name}: {seconds * 1e3:.1f} ms")
    for name, value in sorted(derived.items()):
        print(f"  {name}: {value:.4g}")
    failures = check_gates(derived)
    for failure in failures:
        print(f"ERROR: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
