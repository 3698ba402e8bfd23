"""Synthetic load for the scheduling service.

The load generator replays the :mod:`repro.scenarios` arrival families
against a running service: each simulated client draws its submission
offsets from :func:`repro.scenarios.families.draw_release_times` (plain
``poisson`` or gang-submitted ``bursty-poisson`` streams) and its task
weights optionally from the heavy-tailed draw of
:func:`repro.scenarios.families.draw_weights` (``pareto`` /
``lognormal``, with its default parameters), then submits over one NDJSON connection, mixing in share
queries and cancellations at configurable ratios.

Every request is timed individually; :class:`LoadReport` aggregates
counts, error codes and latency percentiles — the numbers
``benchmarks/bench_service.py`` records and the CI loadgen smoke gate
checks (zero protocol errors at hundreds of concurrent clients).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.api import CancelTask, ErrorReply, QueryShare, SubmitTask
from repro.scenarios.families import draw_release_times, draw_weights
from repro.service.client import ServiceClient, ServiceUnavailable

__all__ = ["LoadgenConfig", "LoadReport", "run_loadgen", "run_loadgen_async"]

#: Arrival processes the load generator accepts (``none`` = submit as fast
#: as possible, the throughput-measuring mode).
ARRIVALS = ("none", "poisson", "bursty-poisson")

_WEIGHT_DISTS = ("constant", "pareto", "lognormal")


@dataclass
class LoadgenConfig:
    """One load-generation run.

    ``rate`` is each client's arrival rate in requests/second of *wall
    time*; with ``arrival="none"`` clients submit back-to-back instead.
    ``query_ratio`` / ``cancel_ratio`` are the per-task probabilities of
    following a submission with a share query / a cancellation.
    """

    host: str = "127.0.0.1"
    port: int = 0
    clients: int = 10
    tasks_per_client: int = 20
    arrival: str = "poisson"
    rate: float = 200.0
    burst_size: int = 4
    weight_dist: str = "constant"
    volume_range: "tuple[float, float]" = (0.5, 4.0)
    delta_max: float = 8.0
    query_ratio: float = 0.25
    cancel_ratio: float = 0.05
    seed: int = 0
    retries: int = 0  # per-request reconnect attempts (0: fail fast)
    backoff: float = 0.05  # initial retry backoff, seconds

    def validate(self) -> None:
        """Fail fast on nonsensical settings (before any connection opens)."""
        if self.clients <= 0 or self.tasks_per_client <= 0:
            raise ValueError("clients and tasks_per_client must be positive")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.arrival not in ARRIVALS:
            raise ValueError(f"arrival must be one of {ARRIVALS}, got {self.arrival!r}")
        if self.weight_dist not in _WEIGHT_DISTS:
            raise ValueError(
                f"weight_dist must be one of {_WEIGHT_DISTS}, got {self.weight_dist!r}"
            )
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        lo, hi = self.volume_range
        if not (0 < lo <= hi):
            raise ValueError(f"volume_range must be 0 < lo <= hi, got {self.volume_range}")


@dataclass
class LoadReport:
    """Aggregate outcome of one load-generation run."""

    requests: int = 0
    replies: int = 0
    submitted: int = 0
    queries: int = 0
    cancels: int = 0
    errors: int = 0
    protocol_errors: int = 0
    #: Transport-level outcomes (meaningful under retries / chaos runs):
    #: ``retried`` reconnect-and-resend attempts, ``deduplicated`` replies the
    #: server answered from its idempotency table (the retried request was
    #: already applied), ``unavailable`` requests that failed even after retries.
    retried: int = 0
    deduplicated: int = 0
    unavailable: int = 0
    error_codes: "dict[str, int]" = field(default_factory=dict)
    duration: float = 0.0
    rps: float = 0.0
    latency: "dict[str, float]" = field(default_factory=dict)

    def to_dict(self) -> "dict[str, Any]":
        """JSON-representable form (what the CLI prints)."""
        return {
            "requests": self.requests,
            "replies": self.replies,
            "submitted": self.submitted,
            "queries": self.queries,
            "cancels": self.cancels,
            "errors": self.errors,
            "protocol_errors": self.protocol_errors,
            "retried": self.retried,
            "deduplicated": self.deduplicated,
            "unavailable": self.unavailable,
            "error_codes": dict(sorted(self.error_codes.items())),
            "duration_s": self.duration,
            "rps": self.rps,
            "latency_s": self.latency,
        }


def _draw_offsets(config: LoadgenConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-task wall-clock submission offsets for one client."""
    n = config.tasks_per_client
    if config.arrival == "none":
        return np.zeros(n)
    spec: "dict[str, Any]" = {"process": config.arrival, "rate": config.rate}
    if config.arrival == "bursty-poisson":
        spec["burst_size"] = config.burst_size
    offsets = draw_release_times(spec, 1, n, rng)
    assert offsets is not None
    return offsets[0]


def _draw_weights(config: LoadgenConfig, rng: np.random.Generator) -> np.ndarray:
    """Task weights: all ones, or the scenario families' heavy-tailed draw."""
    n = config.tasks_per_client
    if config.weight_dist == "constant":
        return np.ones(n)
    return draw_weights({"dist": config.weight_dist}, n, rng)


class _Collector:
    """Shared tally the client coroutines report into."""

    def __init__(self) -> None:
        self.report = LoadReport()
        self.latencies: "list[float]" = []

    def record(self, kind: str, reply: object, elapsed: float) -> None:
        r = self.report
        r.requests += 1
        self.latencies.append(elapsed)
        if isinstance(reply, ErrorReply):
            r.replies += 1
            r.errors += 1
            r.error_codes[reply.code] = r.error_codes.get(reply.code, 0) + 1
            if reply.code == "protocol":
                r.protocol_errors += 1
            return
        r.replies += 1
        if getattr(reply, "deduplicated", False):
            r.deduplicated += 1
        if kind == "submit":
            r.submitted += 1
        elif kind == "query":
            r.queries += 1
        elif kind == "cancel":
            r.cancels += 1

    def transport_failure(self, unavailable: bool = False) -> None:
        self.report.requests += 1
        self.report.errors += 1
        if unavailable:
            self.report.unavailable += 1
        else:
            self.report.protocol_errors += 1


async def _run_client(
    config: LoadgenConfig,
    index: int,
    start_at: float,
    collector: _Collector,
) -> None:
    rng = np.random.default_rng(config.seed * 100_003 + index)
    offsets = _draw_offsets(config, rng)
    weights = _draw_weights(config, rng)
    lo, hi = config.volume_range
    volumes = rng.uniform(lo, hi, size=config.tasks_per_client)
    deltas = rng.integers(1, max(2, int(config.delta_max) + 1), size=config.tasks_per_client)
    client = ServiceClient(
        config.host,
        config.port,
        client_id=f"loadgen-{index}",
        retries=config.retries,
        backoff=config.backoff,
        seed=config.seed * 100_003 + index,
    )
    # Deterministic idempotency keys make every retried mutation exactly-once
    # against a durable server (only attached when retries are enabled).
    keyed = config.retries > 0
    loop = asyncio.get_running_loop()
    my_tasks: "list[str]" = []
    try:
        await client.connect()
        for k in range(config.tasks_per_client):
            delay = start_at + float(offsets[k]) - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            message: object = SubmitTask(
                volume=float(volumes[k]),
                weight=float(weights[k]),
                delta=float(deltas[k]),
                client=client.client_id,
                idempotency_key=f"lg-{config.seed}-{index}-{k}" if keyed else None,
            )
            await _issue(client, "submit", message, collector, my_tasks)
            if my_tasks and rng.random() < config.query_ratio:
                target = my_tasks[int(rng.integers(0, len(my_tasks)))]
                await _issue(
                    client,
                    "query",
                    QueryShare(task_id=target, client=client.client_id),
                    collector,
                    my_tasks,
                )
            if my_tasks and rng.random() < config.cancel_ratio:
                victim = my_tasks.pop(int(rng.integers(0, len(my_tasks))))
                await _issue(
                    client,
                    "cancel",
                    CancelTask(
                        task_id=victim,
                        client=client.client_id,
                        idempotency_key=f"lgc-{config.seed}-{index}-{k}" if keyed else None,
                    ),
                    collector,
                    my_tasks,
                )
    except ServiceUnavailable:
        collector.transport_failure(unavailable=True)
    except (ConnectionError, OSError):
        collector.transport_failure()
    finally:
        collector.report.retried += client.stats["retries"]
        await client.close()


async def _issue(
    client: ServiceClient,
    kind: str,
    message: object,
    collector: _Collector,
    my_tasks: "list[str]",
) -> None:
    start = time.perf_counter()
    try:
        reply = await client.request(message)
    except ServiceUnavailable:
        collector.transport_failure(unavailable=True)
        return
    except Exception:  # noqa: BLE001 - transport failure, tallied not raised
        collector.transport_failure()
        return
    collector.record(kind, reply, time.perf_counter() - start)
    if kind == "submit" and not isinstance(reply, ErrorReply):
        my_tasks.append(reply.task_id)  # type: ignore[attr-defined]


async def run_loadgen_async(config: LoadgenConfig) -> LoadReport:
    """Run the load against an already-listening service."""
    config.validate()
    collector = _Collector()
    loop = asyncio.get_running_loop()
    start_at = loop.time() + 0.05  # common start line for all clients
    wall_start = time.perf_counter()
    await asyncio.gather(
        *(
            _run_client(config, index, start_at, collector)
            for index in range(config.clients)
        )
    )
    report = collector.report
    report.duration = time.perf_counter() - wall_start
    report.rps = report.requests / report.duration if report.duration > 0 else 0.0
    if collector.latencies:
        ordered = np.sort(np.asarray(collector.latencies))
        report.latency = {
            "mean": float(ordered.mean()),
            "p50": float(np.percentile(ordered, 50)),
            "p90": float(np.percentile(ordered, 90)),
            "p99": float(np.percentile(ordered, 99)),
            "max": float(ordered[-1]),
        }
    return report


def run_loadgen(config: LoadgenConfig) -> LoadReport:
    """Synchronous wrapper: run the load in a fresh event loop."""
    return asyncio.run(run_loadgen_async(config))
