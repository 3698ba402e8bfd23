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
* **In-memory replay** (the same ``replay_stream`` call with one chunk that
  holds the whole trace, so every instance is in memory at once) of the same
  traces, for the memory contrast.

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


def data_rows(path: str) -> int:
    """The number of data rows of a CSV trace: an upper bound on its instances."""
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle) - 1


def measure(trace: str, chunk_size: int) -> dict:
    """Run one replay in a fresh interpreter; returns its timing + peak RSS.

    A subprocess per measurement is what makes ``ru_maxrss`` meaningful: the
    high-water mark belongs to exactly one workload, not to whatever the
    benchmark driver touched before.
    """
    code = (
        "import json, resource, sys, time\n"
        "trace, chunk = sys.argv[1], int(sys.argv[2])\n"
        "start = time.perf_counter()\n"
        "from repro.scenarios.stream import replay_stream\n"
        "per_policy, total = replay_stream(trace, 8.0, chunk_size=chunk, policies=('WDEQ',))\n"
        "seconds = time.perf_counter() - start\n"
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "peak_mb = rss / 1e6 if sys.platform == 'darwin' else rss / 1024.0\n"
        "print(json.dumps({'seconds': seconds, 'peak_mb': peak_mb, 'instances': total,\n"
        "                  'mean_ratio': per_policy['WDEQ']['mean_ratio']}))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, trace, str(chunk_size)],
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

    streamed_small = measure(small, chunk_size)
    streamed_big = measure(big, chunk_size)
    # One chunk of at least the trace's instance count holds the whole trace.
    inmemory_small = measure(small, data_rows(small))
    inmemory_big = measure(big, data_rows(big))

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
    """100-instance chunks fold to the metrics of one whole-trace chunk."""
    from repro.scenarios.stream import replay_stream

    per_policy, total = replay_stream(small_trace, 8.0, chunk_size=100, policies=("WDEQ",))
    whole, whole_total = replay_stream(
        small_trace, 8.0, chunk_size=data_rows(small_trace), policies=("WDEQ",)
    )
    assert total == whole_total
    for name, value in whole["WDEQ"].items():
        assert per_policy["WDEQ"][name] == pytest.approx(value, rel=1e-9)


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
