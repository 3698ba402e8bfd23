"""The online scheduling service (``malleable-repro serve``).

This package turns the library into a long-running daemon: an asyncio
server accepts task submissions, cancellations and share queries over
newline-delimited JSON (the :mod:`repro.api` message schema), maintains a
live :class:`~repro.service.state.LiveSystemState`, and answers "what share
does my task get *now*?" by driving the one-instance simulator
**incrementally** — each request advances
:func:`repro.simulation.engine.advance_simulation_state` from the current
virtual time instead of replaying from ``t = 0``.  ``simulate`` requests,
which run a whole instance, go to the batched
:func:`repro.batch.sim_kernels.simulate_batch`.

* :mod:`repro.service.state` — the incremental live-system state;
* :mod:`repro.service.protocol` — NDJSON framing of the ``repro.api``
  messages (plus the minimal HTTP responses for ``/metrics`` / ``/health``);
* :mod:`repro.service.metrics` — latency histograms, counters and gauges;
* :mod:`repro.service.ratelimit` — per-client token buckets;
* :mod:`repro.service.journal` — durability: the CRC-framed write-ahead
  journal, snapshots, idempotency table and crash recovery;
* :mod:`repro.service.server` — the asyncio server with admission control
  and graceful drain;
* :mod:`repro.service.client` — the asyncio client, with typed
  :class:`~repro.service.client.ServiceUnavailable` transport errors and
  idempotent reconnect-and-retry;
* :mod:`repro.service.loadgen` — the synthetic load driver built on the
  :mod:`repro.scenarios` arrival families.
"""

from repro.service.client import ServiceClient, ServiceError, ServiceUnavailable
from repro.service.journal import (
    IdempotencyTable,
    Journal,
    JournalCorruptError,
    ServiceDurability,
    SnapshotStore,
    inspect_journal,
    recover_state,
)
from repro.service.loadgen import LoadgenConfig, LoadReport, run_loadgen, run_loadgen_async
from repro.service.metrics import LatencyHistogram, MetricsRegistry
from repro.service.ratelimit import ClientRateLimiter, TokenBucket
from repro.service.server import SchedulerService, ServiceConfig
from repro.service.state import POLICY_NAMES, LiveSystemState, TaskRecord

__all__ = [
    "LiveSystemState",
    "TaskRecord",
    "POLICY_NAMES",
    "SchedulerService",
    "ServiceConfig",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "Journal",
    "JournalCorruptError",
    "SnapshotStore",
    "IdempotencyTable",
    "ServiceDurability",
    "recover_state",
    "inspect_journal",
    "LoadgenConfig",
    "LoadReport",
    "run_loadgen",
    "run_loadgen_async",
    "LatencyHistogram",
    "MetricsRegistry",
    "TokenBucket",
    "ClientRateLimiter",
]
