"""Benchmark — the online scheduling service and its incremental state.

Script mode (used by the CI benchmark-smoke job)::

    python benchmarks/bench_service.py --output BENCH_service.json

measures two things:

* **Incremental vs from-scratch queries.**  A live system is loaded with
  ``live_tasks`` concurrently running tasks, then a share query at a
  slightly later time is answered two ways: incrementally
  (:meth:`repro.service.LiveSystemState.advance_to` from the current
  clock — one horizon step) and from scratch (re-initialising the engine
  at ``t = 0`` and replaying the entire submission history up to the query
  time, which is what a service without resumable state would have to do
  per query).  The speedup is recorded in ``derived`` and gated at >= 5x
  for the full (1000-task) configuration — in practice it is orders of
  magnitude, since the replay walks one event per historical arrival.
* **Service throughput.**  The NDJSON loadgen replays an open-loop
  Poisson workload against an in-process asyncio server; requests/s and
  the conservative p50/p99 latency estimates land in the payload
  (latencies under ``benchmarks`` as seconds, throughput in ``derived``).

Run the pytest-benchmark variant with ``pytest benchmarks/bench_service.py
--benchmark-only``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.sim_kernels import advance_simulation_state, init_simulation_state
from repro.core.batch import InstanceBatch
from repro.service.state import LiveSystemState, make_batch_policy


def _loaded_system(
    live_tasks: int, P: float, seed: int
) -> "tuple[LiveSystemState, np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """A live system with ``live_tasks`` still-running tasks, plus its history."""
    rng = np.random.default_rng(seed)
    submit_times = np.sort(rng.uniform(0.0, 10.0, live_tasks))
    # Volumes far exceed what P processors finish over the warm-up window,
    # so every task is still live when the measurement starts.
    volumes = rng.uniform(200.0, 400.0, live_tasks)
    weights = rng.uniform(0.5, 3.0, live_tasks)
    deltas = rng.uniform(0.5, 4.0, live_tasks)
    live = LiveSystemState(P=P, policy="wdeq")
    for k in range(live_tasks):
        live.submit(volumes[k], weights[k], deltas[k], now=float(submit_times[k]))
    live.advance_to(11.0)
    assert live.live_count == live_tasks
    return live, submit_times, volumes, weights, deltas


def _replay_from_scratch(
    P: float,
    submit_times: np.ndarray,
    volumes: np.ndarray,
    weights: np.ndarray,
    deltas: np.ndarray,
    until: float,
) -> None:
    """What a non-resumable service pays per query: replay history from t=0."""
    batch = InstanceBatch.from_arrays(
        P=np.array([P]),
        volumes=volumes[None, :],
        weights=weights[None, :],
        deltas=np.minimum(deltas, P)[None, :],
    )
    state = init_simulation_state(batch, release_times=submit_times[None, :])
    advance_simulation_state(state, make_batch_policy("wdeq"), until=until)


def run_incremental_benchmark(
    live_tasks: int, queries: int = 50, P: float = 64.0, seed: int = 21
) -> "tuple[dict, dict]":
    """Per-query cost, incremental vs from-scratch, at ``live_tasks`` live."""
    import time

    from _common import best_of

    live, submit_times, volumes, weights, deltas = _loaded_system(live_tasks, P, seed)
    task_ids = list(live.records)

    # Incremental: each query advances the resumable state by one small
    # horizon step.  Amortise over `queries` strictly increasing times.
    start = time.perf_counter()
    now = live.now
    for q in range(queries):
        now += 1e-4
        live.share_of(task_ids[q % len(task_ids)], now=now)
    incremental_seconds = (time.perf_counter() - start) / queries

    replay_seconds = best_of(
        lambda: _replay_from_scratch(P, submit_times, volumes, weights, deltas, until=11.0),
        3,
    )

    tag = f"n{live_tasks}"
    benchmarks = {
        f"service_query_incremental_{tag}": incremental_seconds,
        f"service_query_replay_{tag}": replay_seconds,
    }
    derived = {
        f"service_incremental_speedup_{tag}": replay_seconds / max(incremental_seconds, 1e-12),
    }
    return benchmarks, derived


def run_throughput_benchmark(
    clients: int,
    tasks_per_client: int,
    seed: int = 5,
    journal_dir: "str | None" = None,
    tag_suffix: str = "",
) -> "tuple[dict, dict]":
    """Loadgen against an in-process asyncio server; rps and latency tails.

    With ``journal_dir`` the server runs *durable* (write-ahead journal,
    ``fsync='interval'``) — the configuration the journaled-throughput gate
    compares against the in-memory run.
    """
    import asyncio

    from repro.service import LoadgenConfig, SchedulerService, ServiceConfig, run_loadgen_async

    async def body():
        service = SchedulerService(
            ServiceConfig(port=0, P=64.0, journal_dir=journal_dir, fsync="interval")
        )
        await service.start()
        host, port = service.address
        try:
            config = LoadgenConfig(
                host=host,
                port=port,
                clients=clients,
                tasks_per_client=tasks_per_client,
                arrival="poisson",
                rate=500.0,
                query_ratio=0.25,
                cancel_ratio=0.05,
                seed=seed,
            )
            return await run_loadgen_async(config)
        finally:
            await service.shutdown()

    report = asyncio.run(body())
    tag = f"c{clients}_t{tasks_per_client}{tag_suffix}"
    benchmarks = {
        f"service_latency_p50_{tag}": float(report.latency.get("p50", 0.0)),
        f"service_latency_p99_{tag}": float(report.latency.get("p99", 0.0)),
    }
    derived = {
        f"service_rps_{tag}": report.rps,
        f"service_requests_{tag}": float(report.requests),
        f"service_errors_{tag}": float(report.errors + report.protocol_errors),
    }
    return benchmarks, derived


def _journaled_history(
    journal_dir: str, events: int, P: float, seed: int, snapshot_every: int
) -> None:
    """Write an ``events``-record journal backed by a realistic live system.

    Volumes are small relative to ``P`` so tasks complete and the live set
    stays bounded — recovery therefore replays records at a steady
    per-event cost instead of an ever-growing one.  ``snapshot_every``
    mirrors the server knob: 0 leaves the full history in the journal,
    anything else writes periodic snapshots exactly as a live server would.
    """
    from repro.service.journal import IdempotencyTable, ServiceDurability

    rng = np.random.default_rng(seed)
    durability = ServiceDurability(
        journal_dir, fsync="off", snapshot_every=snapshot_every
    )
    live = LiveSystemState(P=P, policy="wdeq")
    idempotency = IdempotencyTable(16)
    now = 0.0
    try:
        for _ in range(events):
            now += float(rng.uniform(0.005, 0.015))
            record = live.submit(
                float(rng.uniform(0.1, 0.5)),
                float(rng.uniform(0.5, 3.0)),
                float(rng.uniform(0.5, 2.0)),
                now=now,
            )
            durability.record_submit(record, None)
            durability.note_applied(live, idempotency, 0)
    finally:
        durability.close()


def run_recovery_benchmark(
    events: int = 10_000,
    P: float = 64.0,
    seed: int = 9,
    snapshot_every: int = 0,
    tag_suffix: str = "",
) -> "tuple[dict, dict]":
    """Cold-start recovery cost of an ``events``-record journal.

    ``snapshot_every=0`` measures the worst case (a full journal replay);
    the default server cadence (1000) measures what a crashed server
    actually pays: latest snapshot + a bounded journal suffix.
    """
    import tempfile

    from _common import best_of
    from repro.service.journal import ServiceDurability

    with tempfile.TemporaryDirectory() as journal_dir:
        _journaled_history(journal_dir, events, P, seed, snapshot_every)

        def recover_once() -> None:
            durability = ServiceDurability(
                journal_dir, fsync="off", snapshot_every=snapshot_every
            )
            try:
                result = durability.recover(P=P, policy="wdeq", atol=1e-10)
            finally:
                durability.close()
            assert result.last_seq == events
            if snapshot_every == 0:
                assert result.recovered_events == events
            else:
                assert result.recovered_events <= snapshot_every

        # Recovery is seconds-scale, so one timed run after the warm-up is
        # plenty of resolution and keeps the bench job bounded.
        recovery_seconds = best_of(recover_once, 1)

    tag = f"n{events}{tag_suffix}"
    benchmarks = {f"service_recovery_{tag}": recovery_seconds}
    derived = {
        f"service_recovery_events_per_s_{tag}": events / max(recovery_seconds, 1e-12),
    }
    return benchmarks, derived


# --------------------------------------------------------------------- #
# pytest-benchmark variant
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def loaded_200():
    return _loaded_system(200, P=64.0, seed=21)


@pytest.mark.benchmark(group="service")
def test_incremental_query_200(benchmark, loaded_200):
    live, *_ = loaded_200
    task_ids = list(live.records)
    clock = {"now": live.now, "q": 0}

    def one_query():
        clock["now"] += 1e-6
        clock["q"] += 1
        return live.share_of(task_ids[clock["q"] % len(task_ids)], now=clock["now"])

    share = benchmark(one_query)
    assert share >= 0.0


@pytest.mark.benchmark(group="service")
def test_replay_query_200(benchmark, loaded_200):
    _, submit_times, volumes, weights, deltas = loaded_200
    benchmark(
        _replay_from_scratch, 64.0, submit_times, volumes, weights, deltas, 11.0
    )


def test_incremental_beats_replay_even_small():
    benchmarks, derived = run_incremental_benchmark(live_tasks=200, queries=20)
    assert derived["service_incremental_speedup_n200"] > 5.0


# --------------------------------------------------------------------- #
# Script mode
# --------------------------------------------------------------------- #


def main(argv=None) -> int:
    import argparse

    from _common import write_payload

    parser = argparse.ArgumentParser(
        description="Online scheduling service benchmark (script mode)"
    )
    parser.add_argument("--smoke", action="store_true", help="reduced CI configuration")
    parser.add_argument("--output", default="BENCH_service.json", help="output JSON path")
    parser.add_argument("--seed", type=int, default=21)
    args = parser.parse_args(argv)

    if args.smoke:
        live_tasks, queries = 1000, 20
        clients, tasks_per_client = 50, 10
    else:
        live_tasks, queries = 1000, 50
        clients, tasks_per_client = 200, 20
    config = {
        "live_tasks": live_tasks,
        "queries": queries,
        "clients": clients,
        "tasks_per_client": tasks_per_client,
        "seed": args.seed,
        "smoke": args.smoke,
    }
    benchmarks, derived = run_incremental_benchmark(
        live_tasks=live_tasks, queries=queries, seed=args.seed
    )
    tp_benchmarks, tp_derived = run_throughput_benchmark(clients, tasks_per_client)
    benchmarks.update(tp_benchmarks)
    derived.update(tp_derived)

    import tempfile

    with tempfile.TemporaryDirectory() as journal_dir:
        j_benchmarks, j_derived = run_throughput_benchmark(
            clients,
            tasks_per_client,
            journal_dir=journal_dir,
            tag_suffix="_journaled",
        )
    benchmarks.update(j_benchmarks)
    derived.update(j_derived)
    tag = f"c{clients}_t{tasks_per_client}"
    journal_ratio = derived[f"service_rps_{tag}_journaled"] / max(
        derived[f"service_rps_{tag}"], 1e-12
    )
    derived[f"service_journal_rps_ratio_{tag}"] = journal_ratio

    recovery_events = 10_000
    # What a crashed server pays under the default snapshot cadence
    # (hard-gated below) plus the snapshot-less worst case (gated only
    # against the committed baseline, machine-calibrated).
    r_benchmarks, r_derived = run_recovery_benchmark(
        events=recovery_events, snapshot_every=1000
    )
    f_benchmarks, f_derived = run_recovery_benchmark(
        events=recovery_events, snapshot_every=0, tag_suffix="_fullreplay"
    )
    benchmarks.update(r_benchmarks)
    benchmarks.update(f_benchmarks)
    derived.update(r_derived)
    derived.update(f_derived)

    write_payload("service", config, benchmarks, derived, args.output)
    for name, seconds in sorted(benchmarks.items()):
        print(f"  {name}: {seconds * 1e3:.4f} ms")
    for name, value in sorted(derived.items()):
        print(f"  {name}: {value:.4g}")
    speedup = derived[f"service_incremental_speedup_n{live_tasks}"]
    if speedup < 5.0:
        print("ERROR: incremental queries are below the required 5x speedup over replay")
        return 1
    if derived[f"service_errors_c{clients}_t{tasks_per_client}"] > 0:
        print("ERROR: the load generator saw request errors")
        return 1
    if derived[f"service_errors_c{clients}_t{tasks_per_client}_journaled"] > 0:
        print("ERROR: the load generator saw request errors against the durable server")
        return 1
    if journal_ratio < 0.5:
        print(
            "ERROR: journaled throughput (fsync=interval) is "
            f"{journal_ratio:.2f}x the in-memory rate; the floor is 0.5x"
        )
        return 1
    recovery_seconds = benchmarks[f"service_recovery_n{recovery_events}"]
    if recovery_seconds >= 5.0:
        print(
            f"ERROR: recovering a {recovery_events}-event journal took "
            f"{recovery_seconds:.2f}s; the ceiling is 5s"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
