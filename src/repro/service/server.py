"""The scheduling service: dispatch, admission, rate limiting, asyncio TCP.

:class:`SchedulerService` is deliberately split in two layers:

* :meth:`SchedulerService.handle` is a *synchronous* request → reply
  function over the :mod:`repro.api` dataclasses.  In-process callers (the
  unit tests, embedding applications) use it directly — no sockets, no
  event loop — and the TCP layer calls the very same method, so wire and
  in-process behaviour cannot drift apart.
* The asyncio layer (:meth:`start` / :meth:`serve_forever`) frames NDJSON
  connections, sniffs plain HTTP ``GET /metrics`` / ``GET /health`` on the
  same port, and implements graceful drain: on SIGTERM the listener closes,
  new submissions are refused with code ``draining``, and existing
  connections get ``drain_grace`` seconds to finish before the loop stops.

Admission control (a ceiling on live tasks) and per-client token-bucket
rate limiting run inside :meth:`handle`, so they protect the in-process
path too.  Every request is timed into per-type latency histograms and the
simulation-advance portion into ``sim.*`` histograms — served by
``/metrics`` and by :class:`repro.api.MetricsRequest`.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import signal
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.api import (
    CancelReply,
    CancelTask,
    ErrorReply,
    HealthReply,
    HealthRequest,
    MetricsReply,
    MetricsRequest,
    ProtocolError,
    QueryShare,
    QueryState,
    ShareReply,
    SimulateReply,
    SimulateRequest,
    StateReply,
    SubmitReply,
    SubmitTask,
    encode_message,
    message_type,
)
from repro.core.batch import InstanceBatch
from repro.core.exceptions import ReproError
from repro.service.journal import FSYNC_POLICIES, IdempotencyTable, ServiceDurability
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import (
    MAX_LINE_BYTES,
    decode_line,
    encode_line,
    http_response,
    sniff_http_path,
)
from repro.service.ratelimit import ClientRateLimiter
from repro.service.state import (
    DuplicateTaskError,
    LiveSystemState,
    UnknownTaskError,
    make_batch_policy,
)

__all__ = ["ServiceConfig", "SchedulerService"]

_log = logging.getLogger("repro.service")


@dataclass
class ServiceConfig:
    """Tunables of one :class:`SchedulerService`.

    ``virtual_time=True`` makes the service honour the ``now`` field of
    requests (clamped monotonic) instead of the wall clock — the mode the
    differential tests use to replay a deterministic event history.
    ``rate_limit`` is per-client requests/second (0 disables), and
    ``max_live_tasks`` is the admission ceiling on concurrently running
    tasks.

    Setting ``journal_dir`` makes the service *durable*: every accepted
    submit/cancel is appended to the CRC-framed write-ahead journal of
    :mod:`repro.service.journal` before it is acknowledged, a snapshot of
    the full state is written every ``snapshot_every`` journaled records
    (covered segments are compacted away), and startup recovers the live
    system as snapshot + journal-suffix replay.  ``fsync`` picks the
    durability/throughput trade-off (``always`` | ``interval`` | ``off``;
    see the journal module docs), and ``idempotency_capacity`` bounds the
    retried-request deduplication table (LRU beyond it).
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0: pick a free port, exposed via .address after start()
    P: float = 8.0
    policy: str = "wdeq"
    max_live_tasks: int = 10_000
    rate_limit: float = 0.0
    rate_burst: float = 100.0
    virtual_time: bool = False
    atol: float = 1e-10
    drain_grace: float = 5.0
    journal_dir: "str | None" = None  # None: in-memory only (no durability)
    fsync: str = "interval"  # 'always' | 'interval' | 'off'
    fsync_interval: float = 0.05
    segment_bytes: int = 4 * 1024 * 1024
    snapshot_every: int = 1000  # journaled records per snapshot (0 disables)
    idempotency_capacity: int = 100_000


class SchedulerService:
    """One live malleable-task system behind a request/reply interface."""

    def __init__(self, config: "ServiceConfig | None" = None):
        self.config = config or ServiceConfig()
        if self.config.fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {self.config.fsync!r}"
            )
        self.metrics = MetricsRegistry()
        self.idempotency = IdempotencyTable(self.config.idempotency_capacity)
        self.durability: "ServiceDurability | None" = None
        # Set when a journal append fails: the live state then holds a
        # mutation the log cannot back, so the server goes read-only for
        # mutations (fail-stop) until a restart recovers a consistent state.
        self.journal_failed = False
        self.recovery_seconds = 0.0
        self.recovered_events = 0
        self.rejected = 0
        if self.config.journal_dir is not None:
            self.durability = ServiceDurability(
                self.config.journal_dir,
                fsync=self.config.fsync,
                fsync_interval=self.config.fsync_interval,
                segment_bytes=self.config.segment_bytes,
                snapshot_every=self.config.snapshot_every,
                observe=self.metrics.observe,
            )
            recovery = self.durability.recover(
                P=self.config.P,
                policy=self.config.policy,
                atol=self.config.atol,
            )
            self.state = recovery.state
            self.idempotency.load(recovery.idempotency)
            self.rejected = recovery.rejected
            self.recovery_seconds = recovery.seconds
            self.recovered_events = recovery.recovered_events
            self.metrics.observe("recovery", recovery.seconds)
            _log.info(
                "recovered service state from %s: snapshot seq %d + %d journal "
                "records in %.3fs (%d torn-tail bytes truncated, %d live tasks)",
                self.config.journal_dir,
                recovery.snapshot_seq,
                recovery.recovered_events,
                recovery.seconds,
                recovery.truncated_bytes,
                self.state.live_count,
            )
        else:
            self.state = LiveSystemState(
                P=self.config.P,
                policy=self.config.policy,
                atol=self.config.atol,
            )
        self.limiter = ClientRateLimiter(
            self.config.rate_limit, self.config.rate_burst
        )
        self.draining = False
        self.address: "tuple[str, int] | None" = None
        self._t0 = time.monotonic()
        self._server: "asyncio.base_events.Server | None" = None
        self._connections: "set[asyncio.StreamWriter]" = set()
        self._stopped: "asyncio.Event | None" = None
        self._register_gauges()

    def _register_gauges(self) -> None:
        self.metrics.register_gauge("live_tasks", lambda: self.state.live_count)
        self.metrics.register_gauge("queue_slots", lambda: self.state.used_slots)
        self.metrics.register_gauge("virtual_now", lambda: self.state.now)
        self.metrics.register_gauge("sim_events", lambda: self.state.total_events)
        self.metrics.register_gauge("connections", lambda: len(self._connections))
        self.metrics.register_gauge("draining", lambda: float(self.draining))
        self.metrics.register_gauge("idempotency_entries", lambda: len(self.idempotency))
        if self.durability is not None:
            durability = self.durability
            self.metrics.register_gauge(
                "journal_bytes", lambda: float(durability.journal.size_bytes)
            )
            self.metrics.register_gauge(
                "journal_segments", lambda: float(len(durability.journal.segment_paths()))
            )
            self.metrics.register_gauge(
                "journal_last_seq", lambda: float(durability.journal.last_seq)
            )
            self.metrics.register_gauge(
                "snapshots_written", lambda: float(durability.snapshots_written)
            )
            self.metrics.register_gauge("recovery_seconds", lambda: self.recovery_seconds)
            self.metrics.register_gauge(
                "recovered_events", lambda: float(self.recovered_events)
            )
            self.metrics.register_gauge(
                "journal_failed", lambda: float(self.journal_failed)
            )

    def recovery_banner(self) -> "str | None":
        """One human-readable startup line about recovery (None when in-memory)."""
        if self.durability is None or self.durability.last_recovery is None:
            return None
        recovery = self.durability.last_recovery
        return (
            f"recovered {recovery.recovered_events} journal records on top of "
            f"snapshot seq {recovery.snapshot_seq} in {recovery.seconds:.3f}s "
            f"({recovery.truncated_bytes} torn-tail bytes truncated, "
            f"{self.state.live_count} live tasks, clock t={self.state.now:.6g})"
        )

    # ----------------------------------------------------------------- #
    # Synchronous request handling (shared by wire and in-process paths)
    # ----------------------------------------------------------------- #

    def handle(self, request: object, client: str = "") -> object:
        """Serve one :mod:`repro.api` request, returning a reply dataclass.

        Never raises for client mistakes — those come back as structured
        :class:`~repro.api.ErrorReply` values; only genuine server bugs
        surface as ``ErrorReply(code='internal')``.
        """
        start = time.perf_counter()
        try:
            tag = message_type(request)
        except ProtocolError as exc:
            return self._finish("invalid", start, ErrorReply("protocol", str(exc)))
        client = getattr(request, "client", "") or client or "anonymous"
        if not isinstance(request, (MetricsRequest, HealthRequest)) and not self.limiter.allow(client):
            self.metrics.inc("rate_limited_total")
            return self._finish(
                tag, start, ErrorReply("rate_limited", f"client {client!r} exceeded the request rate")
            )
        try:
            reply = self._dispatch(request)
        except ProtocolError as exc:
            reply = ErrorReply("protocol", str(exc))
        except (ValueError, ReproError) as exc:
            reply = ErrorReply("invalid", str(exc))
        except Exception as exc:  # noqa: BLE001 - the server must answer
            self.metrics.inc("internal_errors_total")
            reply = ErrorReply("internal", f"{type(exc).__name__}: {exc}")
        return self._finish(tag, start, reply)

    def _finish(self, tag: str, start: float, reply: object) -> object:
        self.metrics.observe(f"latency.{tag}", time.perf_counter() - start)
        self.metrics.inc("requests_total")
        if isinstance(reply, ErrorReply):
            self.metrics.inc("errors_total")
            self.metrics.inc(f"errors.{reply.code}")
        return reply

    def _now(self, request: object) -> float:
        if self.config.virtual_time:
            now = getattr(request, "now", None)
            return self.state.now if now is None else float(now)
        return time.monotonic() - self._t0

    def _timed_sim(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.metrics.observe(name, time.perf_counter() - start)

    @staticmethod
    def _scoped_key(request: object) -> "str | None":
        """The dedup-table key for a request, or None when unkeyed.

        Keys are namespaced by the request's ``client`` id (NUL-joined, so
        no client/key pair can alias another): two clients reusing the same
        ``idempotency_key`` get two tasks, not one client's stored reply.
        The ``client`` field travels with every retry of a request — unlike
        the peer address, which changes across reconnects — so the scope is
        stable exactly where dedup matters.  The *scoped* key is what gets
        journaled, keeping recovery's rebuilt table consistent.
        """
        key = getattr(request, "idempotency_key", None)
        if not key:
            return None
        return f"{getattr(request, 'client', '') or ''}\x00{key}"

    def _deduplicated(self, request: object) -> "object | None":
        """The stored reply for a retried idempotent request, or None.

        Checked *before* draining/admission: a retry of an already-accepted
        request is not new work and must succeed wherever the original did
        — that is the exactly-once contract.
        """
        key = self._scoped_key(request)
        if key is None:
            return None
        reply = self.idempotency.get(key)
        if reply is None:
            return None
        self.metrics.inc("idempotent_hits_total")
        if isinstance(reply, SubmitReply):
            return replace(reply, deduplicated=True)
        return reply

    def _journal_applied(self, append, *args) -> None:
        """Append one record to the WAL and advance the snapshot cadence.

        Called after the state mutation was applied *and* after the reply
        was stored in the idempotency table (so a snapshot triggered by
        this very record already carries the key), and before the reply is
        returned to the client.

        A failed append (disk full, dead volume) is **fail-stop**: the live
        state now holds a mutation the log cannot back, so the server
        refuses all further mutations and starts draining — a restart
        recovers the journaled prefix, which is exactly the acknowledged
        history.  A failed *snapshot* is non-fatal: the record is durably
        in the log, recovery just replays a longer suffix.
        """
        try:
            append(*args)
        except OSError:
            self.journal_failed = True
            self.metrics.inc("journal_failures_total")
            _log.critical(
                "journal append failed; refusing further mutations until restart",
                exc_info=True,
            )
            self.request_drain()
            raise
        self.metrics.inc("journal_records_total")
        assert self.durability is not None
        try:
            self.durability.note_applied(self.state, self.idempotency, self.rejected)
        except OSError:
            self.metrics.inc("snapshot_failures_total")
            _log.exception("snapshot write failed; continuing on the journal alone")

    def _dispatch(self, request: object) -> object:
        state = self.state
        if isinstance(request, SubmitTask):
            stored = self._deduplicated(request)
            if stored is not None:
                return stored
            if self.journal_failed:
                return ErrorReply(
                    "journal_failed",
                    "the write-ahead journal failed; mutations are refused until restart",
                )
            if self.draining:
                return ErrorReply("draining", "service is draining; not accepting tasks")
            if state.live_count >= self.config.max_live_tasks:
                self.rejected += 1
                self.metrics.inc("admission_rejected_total")
                return ErrorReply(
                    "admission_rejected",
                    f"live-task ceiling {self.config.max_live_tasks} reached",
                )
            try:
                record = self._timed_sim(
                    "sim.step",
                    state.submit,
                    request.volume,
                    request.weight,
                    request.delta,
                    now=self._now(request),
                    task_id=request.task_id,
                )
            except DuplicateTaskError as exc:
                return ErrorReply("duplicate_task", str(exc))
            reply = SubmitReply(
                task_id=record.task_id,
                now=state.now,
                share=state.share_of(record.task_id),
                live_tasks=state.live_count,
            )
            # The key must be in the table *before* the journal append: the
            # append may trigger a snapshot, and that snapshot must already
            # carry the key for this very record (recovery replays only
            # records past the snapshot, so it cannot rebuild the key).
            key = self._scoped_key(request)
            if key:
                self.idempotency.put(key, reply)
            if self.durability is not None:
                try:
                    self._journal_applied(self.durability.record_submit, record, key)
                except OSError as exc:
                    if key:
                        self.idempotency.pop(key)  # never ack what the log can't back
                    return ErrorReply(
                        "journal_failed",
                        f"write-ahead journal append failed ({exc}); "
                        "mutations are refused until restart",
                    )
            return reply

        if isinstance(request, CancelTask):
            stored = self._deduplicated(request)
            if stored is not None:
                return stored
            if self.journal_failed:
                return ErrorReply(
                    "journal_failed",
                    "the write-ahead journal failed; mutations are refused until restart",
                )
            try:
                cancelled = self._timed_sim(
                    "sim.step", state.cancel, request.task_id, now=self._now(request)
                )
            except UnknownTaskError:
                return ErrorReply("unknown_task", f"no task {request.task_id!r}")
            record = state.records[request.task_id]
            reply = CancelReply(
                task_id=request.task_id,
                cancelled=cancelled,
                now=state.now,
                status=record.status,
            )
            # Same ordering as submit: key into the table before the append
            # so a snapshot triggered by this record already contains it.
            key = self._scoped_key(request)
            if key:
                self.idempotency.put(key, reply)
            if cancelled and self.durability is not None:
                # No-op cancels (already finished) mutate nothing: not journaled.
                # state.now is the resolved (clamped-monotonic) cancel time —
                # the value replay must pass to reproduce this trajectory.
                try:
                    self._journal_applied(
                        self.durability.record_cancel,
                        request.task_id,
                        state.now,
                        key,
                    )
                except OSError as exc:
                    if key:
                        self.idempotency.pop(key)
                    return ErrorReply(
                        "journal_failed",
                        f"write-ahead journal append failed ({exc}); "
                        "mutations are refused until restart",
                    )
            return reply

        if isinstance(request, QueryShare):
            try:
                share = self._timed_sim(
                    "sim.step", state.share_of, request.task_id, now=self._now(request)
                )
            except UnknownTaskError:
                return ErrorReply("unknown_task", f"no task {request.task_id!r}")
            record = state.records[request.task_id]
            projected = None
            if request.project:
                projected = self._timed_sim(
                    "sim.project", state.project_completion, request.task_id
                )
            return ShareReply(
                task_id=request.task_id,
                status=record.status,
                share=share,
                remaining=state.remaining_of(request.task_id),
                now=state.now,
                completion_time=record.completion_time,
                projected_completion=projected,
            )

        if isinstance(request, QueryState):
            self._timed_sim("sim.step", state.advance_to, self._now(request))
            return StateReply(
                now=state.now,
                live_tasks=state.live_count,
                submitted=state.submitted,
                completed=state.completed,
                cancelled=state.cancelled,
                rejected=self.rejected,
            )

        if isinstance(request, MetricsRequest):
            return MetricsReply(metrics=self.metrics.snapshot())

        if isinstance(request, HealthRequest):
            return HealthReply(
                status="draining" if self.draining else "ok",
                now=state.now,
                live_tasks=state.live_count,
                draining=self.draining,
                durable=self.durability is not None,
                recovered_events=self.recovered_events,
                recovery_seconds=self.recovery_seconds,
            )

        if isinstance(request, SimulateRequest):
            return self._timed_sim("sim.batch", self._simulate, request)

        raise ProtocolError(f"{type(request).__name__} is not a request message")

    def _simulate(self, request: SimulateRequest) -> SimulateReply:
        from repro.batch.sim_kernels import simulate_batch

        n = len(request.volumes)
        if n == 0:
            raise ValueError("simulate requires at least one task")
        if len(request.weights) != n or len(request.deltas) != n:
            raise ValueError("volumes, weights and deltas must have equal length")
        if request.P <= 0:
            raise ValueError(f"P must be positive, got {request.P}")
        batch = InstanceBatch.from_arrays(
            P=np.array([float(request.P)]),
            volumes=np.array([request.volumes], dtype=float),
            weights=np.array([request.weights], dtype=float),
            deltas=np.minimum(np.array([request.deltas], dtype=float), float(request.P)),
        )
        releases = None
        if request.release_times is not None:
            if len(request.release_times) != n:
                raise ValueError("release_times must match the task count")
            releases = np.array([request.release_times], dtype=float)
        result = simulate_batch(batch, make_batch_policy(request.policy), release_times=releases)
        return SimulateReply(
            completion_times=tuple(float(c) for c in result.completion_times[0]),
            weighted_completion_time=float(result.weighted_completion_times()[0]),
            makespan=float(result.makespans()[0]),
            num_events=int(result.num_events[0]),
        )

    # ----------------------------------------------------------------- #
    # The asyncio layer
    # ----------------------------------------------------------------- #

    async def start(self) -> "tuple[str, int]":
        """Bind the listener; returns the actual ``(host, port)``."""
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def serve_forever(self, install_signals: bool = True) -> None:
        """Run until :meth:`request_drain` (or SIGTERM/SIGINT) completes."""
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, RuntimeError):
                    loop.add_signal_handler(sig, self.request_drain)
        await self._stopped.wait()
        await self.shutdown()

    def request_drain(self) -> None:
        """Begin graceful shutdown: refuse submissions, then stop.

        Idempotent and safe to call from a signal handler (it only sets a
        flag and schedules the drain coroutine on the running loop).
        """
        if self.draining:
            return
        self.draining = True
        self.metrics.inc("drains_total")
        if self._stopped is not None:
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                return
            loop.create_task(self._drain())

    async def _drain(self) -> None:
        if self._server is not None:
            self._server.close()  # stop accepting new connections
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_grace
        while self._connections and loop.time() < deadline:
            await asyncio.sleep(0.02)
        assert self._stopped is not None
        self._stopped.set()

    async def shutdown(self) -> None:
        """Close the listener and every remaining connection."""
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.close()
        self._connections.clear()
        self.close()

    def close(self) -> None:
        """Release durability resources (final snapshot + sealed journal).

        The final snapshot makes a *clean* restart replay nothing; crash
        recovery never depends on it.  Safe to call more than once, and a
        no-op for in-memory services.
        """
        if self.durability is None:
            return
        with contextlib.suppress(OSError):
            # After a journal failure the live state holds mutations the log
            # never saw — snapshotting it would persist the divergence.
            if self.durability.journal.appended and not self.journal_failed:
                self.durability.write_snapshot(
                    self.state, self.idempotency, self.rejected
                )
        self.durability.close()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        self.metrics.inc("connections_total")
        try:
            first = await self._read_line(reader, writer)
            if first is None:
                return
            path = sniff_http_path(first)
            if path is not None:
                await self._serve_http(reader, writer, path)
                return
            peer = writer.get_extra_info("peername")
            default_client = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else "local"
            line: "bytes | None" = first
            while line:
                stripped = line.strip()
                if stripped:
                    try:
                        request = decode_line(stripped)
                    except ProtocolError as exc:
                        self.metrics.inc("protocol_errors_total")
                        reply: object = ErrorReply("protocol", str(exc))
                    else:
                        reply = self.handle(request, client=default_client)
                    writer.write(encode_line(reply))
                    await writer.drain()
                line = await self._read_line(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _read_line(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> "bytes | None":
        """One line, or None on EOF / an over-long line (answered + closed)."""
        try:
            line = await reader.readline()
        except ValueError:  # line exceeded the stream limit
            self.metrics.inc("protocol_errors_total")
            with contextlib.suppress(Exception):
                writer.write(
                    encode_line(
                        ErrorReply("protocol", f"message exceeds {MAX_LINE_BYTES} bytes")
                    )
                )
                await writer.drain()
            return None
        return line or None

    async def _serve_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, path: str
    ) -> None:
        with contextlib.suppress(asyncio.TimeoutError, ValueError):
            while True:  # drain the request headers, best effort
                header = await asyncio.wait_for(reader.readline(), timeout=1.0)
                if not header or header in (b"\r\n", b"\n"):
                    break
        path = path.split("?", 1)[0]
        if path == "/metrics":
            reply = self.handle(MetricsRequest())
            payload = http_response(200, encode_message(reply))
        elif path == "/health":
            reply = self.handle(HealthRequest())
            status = 503 if self.draining else 200
            payload = http_response(status, encode_message(reply))
        else:
            payload = http_response(404, {"error": f"unknown path {path!r}"})
        writer.write(payload)
        await writer.drain()
