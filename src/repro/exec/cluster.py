"""The off-process execution engine: a stdlib coordinator + worker nodes.

A :class:`ClusterCoordinator` shards jobs over :class:`WorkerNode`
processes — remote ones reached by TCP (the ``cluster`` backend,
``hosts=...``), or ``local_nodes`` it forks itself on a socket pair each
(``process-pool``).  Stdlib only:
``socket`` + ``threading`` + ``multiprocessing`` + the NDJSON framing of
:meth:`repro.api.MessageRegistry.encode_line`.

Protocol
--------
One tagged JSON message per line, exactly like the scheduling service, but
with its own :class:`~repro.api.MessageRegistry`
(:data:`CLUSTER_REGISTRY`).  The coordinator speaks first on every
connection:

* ``Handshake`` -> ``HelloReply`` — identity + protocol-version check;
* ``RunTask`` -> ``TaskDone`` | ``JobFailed`` — one pickled ``(fn, item)``
  pair: a chunk of ``map`` items or one sweep cell;
* ``PushBatch`` -> ``BatchAck`` then ``RunChunk`` -> ``TaskDone`` — the
  batch path: an ``InstanceBatch`` ships **once per node** in the
  :func:`repro.exec.shm.batch_arrays` layout — base64 data keyed by a
  content fingerprint for remote nodes, a shared-memory segment name for
  local ones — and every chunk job carries only ``(batch_id, lo, hi)``.
  A node keeps :data:`MAX_NODE_BATCHES` batches and answers a chunk of an
  evicted one with ``JobFailed(unknown_batch=True)``: the coordinator
  pushes it again;
* ``Ping`` -> ``Pong`` — heartbeats while a worker is idle;
* ``Drain`` -> ``DrainAck`` — graceful shutdown (``SIGTERM`` on the
  worker process triggers the same drain path).

Failure model
-------------
The coordinator assumes workers can die at any moment and remote
stragglers can stall forever:

* jobs are pre-assigned round-robin (:func:`assign_cells` — a
  deterministic, lossless partition) and idle workers *steal* from the
  longest remaining queue, so one slow node never serialises the run;
* every job on a remote node has a **per-job timeout**; a worker that
  blows it is declared dead, its connection is closed (a late reply can
  never land), and its in-flight job plus queued shard are reassigned to
  live workers.  Local nodes have none: their death is an immediate EOF;
* a worker that drops the connection mid-job (crash, ``kill -9``) is
  detected the same way; re-executions are **bounded** by ``max_retries``
  per job, after which the run fails loudly;
* an exception raised by the mapped function is not a lost worker: the
  run fails on first sight with the node's ``Type: message`` text;
* idle remote workers are **heartbeated** (``Ping``/``Pong``) so a dead
  node is discovered before the tail of the run is routed to it;
* results are deduplicated by job id — the first completion wins, so a job
  is never recorded twice no matter how reassignment races resolve;
* a message over :data:`MAX_CLUSTER_LINE_BYTES` raises
  :class:`ClusterError` before it is sent, instead of costing a worker.

Determinism is untouched by any of this: cells carry their own seeds, so
*where* a job runs never changes *what* it computes — the chaos suite in
``tests/test_cluster.py`` kills and delays real worker processes and
asserts the summaries stay tolerance-identical to the serial backend.

Examples
--------
>>> from repro.exec.cluster import WorkerNode, ClusterCoordinator
>>> node = WorkerNode()
>>> host, port = node.start()
>>> coordinator = ClusterCoordinator([f"{host}:{port}"])
>>> coordinator.connect()
1
>>> coordinator.map(str.upper, ["a", "b"])
['A', 'B']
>>> coordinator.close(); node.stop()
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import multiprocessing
import os
import pickle
import signal
import socket
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.api import MessageRegistry, ProtocolError
from repro.core.batch import InstanceBatch
from repro.exec import shm
from repro.exec.context import chunk_ranges

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_CLUSTER_LINE_BYTES",
    "MAX_NODE_BATCHES",
    "Handshake",
    "HelloReply",
    "Ping",
    "Pong",
    "RunTask",
    "TaskDone",
    "PushBatch",
    "BatchAck",
    "RunChunk",
    "JobFailed",
    "Drain",
    "DrainAck",
    "CLUSTER_MESSAGE_TYPES",
    "CLUSTER_REQUEST_TYPES",
    "CLUSTER_REPLY_TYPES",
    "CLUSTER_REGISTRY",
    "encode_cluster_line",
    "decode_cluster_line",
    "batch_fingerprint",
    "assign_cells",
    "parse_hosts",
    "LineChannel",
    "ClusterError",
    "ClusterAborted",
    "WorkerNode",
    "ClusterCoordinator",
    "run_worker_node",
]

#: Version checked in the ``Handshake``/``HelloReply`` exchange; a mismatch
#: fails the connection instead of corrupting a sweep silently.  Version 2
#: dropped the cell-only messages and added shared-memory pushes.
PROTOCOL_VERSION = 2

#: Line cap for the cluster protocol.  Much larger than the service's cap:
#: ``PushBatch`` ships whole batch arrays (base64 inside JSON) to remote
#: nodes — once per node, so the size is paid per host, not per chunk.
MAX_CLUSTER_LINE_BYTES = 64 << 20

#: Pushed batches a node keeps; the least recently used one is evicted
#: (and its shared-memory attachment closed) beyond this.
MAX_NODE_BATCHES = 4


# --------------------------------------------------------------------- #
# Wire messages
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Handshake:
    """Coordinator's opener on a fresh connection (version negotiation)."""

    coordinator: str = ""
    protocol: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class HelloReply:
    """Worker identity: id, pid and protocol version (checked on connect)."""

    worker_id: str
    pid: int
    protocol: int = PROTOCOL_VERSION
    draining: bool = False


@dataclass(frozen=True)
class Ping:
    """Heartbeat probe sent to idle workers."""

    seq: int = 0


@dataclass(frozen=True)
class Pong:
    """Heartbeat answer: liveness plus progress counters."""

    seq: int = 0
    inflight: int = 0
    completed: int = 0


@dataclass(frozen=True)
class RunTask:
    """Execute one pickled ``(fn, item)`` pair (``map`` chunks and sweep cells)."""

    job_id: int
    task: str


@dataclass(frozen=True)
class TaskDone:
    """Pickled result of a ``RunTask`` or ``RunChunk`` job."""

    job_id: int
    result: str


@dataclass(frozen=True)
class PushBatch:
    """Ship a batch's arrays to a node once; later chunks reference ``batch_id``.

    ``arrays`` is the layout, one :class:`~repro.exec.shm.SharedArrayField`
    mapping per array.  The bytes are either in the shared-memory
    ``segment`` (local nodes) or, laid out the same way, base64-encoded in
    ``data`` (remote nodes).
    """

    batch_id: str
    arrays: tuple
    segment: str = ""
    data: str = ""


@dataclass(frozen=True)
class BatchAck:
    """Worker acknowledges a pushed batch (``cached`` when already held)."""

    batch_id: str
    cached: bool = False


@dataclass(frozen=True)
class RunChunk:
    """Apply a pickled function to rows ``[lo, hi)`` of a pushed batch."""

    job_id: int
    batch_id: str
    fn: str
    lo: int
    hi: int


@dataclass(frozen=True)
class JobFailed:
    """A job raised on the worker; ``retryable`` gates reassignment.

    An exception raised by the mapped function is not retryable: running
    it again would raise again.  ``unknown_batch`` marks a chunk whose batch
    the node no longer holds; the coordinator pushes the batch again
    instead of counting a retry.
    """

    job_id: int
    error: str
    retryable: bool = True
    unknown_batch: bool = False


@dataclass(frozen=True)
class Drain:
    """Ask a worker node to finish in-flight work and shut down."""

    reason: str = ""


@dataclass(frozen=True)
class DrainAck:
    """Worker confirms the drain request before closing."""

    worker_id: str
    completed: int = 0


#: Wire tag <-> dataclass for the coordinator/worker protocol.
CLUSTER_MESSAGE_TYPES: "dict[str, type]" = {
    "handshake": Handshake,
    "hello_reply": HelloReply,
    "ping": Ping,
    "pong": Pong,
    "run_task": RunTask,
    "task_done": TaskDone,
    "push_batch": PushBatch,
    "batch_ack": BatchAck,
    "run_chunk": RunChunk,
    "job_failed": JobFailed,
    "drain": Drain,
    "drain_ack": DrainAck,
}

#: The coordinator->worker half of the protocol.
CLUSTER_REQUEST_TYPES = (Handshake, Ping, RunTask, PushBatch, RunChunk, Drain)

#: The worker->coordinator half of the protocol.
CLUSTER_REPLY_TYPES = (HelloReply, Pong, TaskDone, BatchAck, JobFailed, DrainAck)

#: Strict tagged codec for the cluster protocol (see repro.api.MessageRegistry).
CLUSTER_REGISTRY = MessageRegistry(
    CLUSTER_MESSAGE_TYPES,
    tuple_fields=frozenset({"arrays"}),
    label="repro.exec.cluster",
)


def encode_cluster_line(message: object) -> bytes:
    """Serialise one cluster message to a compact NDJSON line."""
    return CLUSTER_REGISTRY.encode_line(message)


def decode_cluster_line(line: bytes, max_bytes: int = MAX_CLUSTER_LINE_BYTES) -> object:
    """Parse one NDJSON line into its cluster message dataclass.

    Raises :class:`repro.api.ProtocolError` on oversized lines, garbage
    bytes, unknown tags and schema violations — one failure type, so both
    ends can treat any malformed input as a dead peer or a failed job.
    """
    return CLUSTER_REGISTRY.decode_line(line, max_bytes)


# --------------------------------------------------------------------- #
# Payload helpers
# --------------------------------------------------------------------- #


def _pack(obj: Any) -> str:
    """Pickle + base64: arbitrary Python payloads inside JSON lines."""
    return base64.b64encode(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)).decode("ascii")


def _unpack(text: str) -> Any:
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def batch_fingerprint(arrays: "Mapping[str, np.ndarray]") -> str:
    """Content hash of named arrays: the batch id of a remote push.

    Two pushes of identical data share one node-side entry, which is what
    makes "rows ship once per host" hold across repeated ``map_batch`` calls
    over the same batch.
    """
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.shape).encode("ascii"))
        digest.update(str(array.dtype).encode("ascii"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def assign_cells(num_cells: int, num_workers: int) -> "list[list[int]]":
    """Deterministic, lossless round-robin partition of cell indices.

    Cell ``i`` lands on shard ``i % num_workers``: every index appears in
    exactly one shard, shard sizes differ by at most one, and the result is
    a pure function of the two counts (property-tested by Hypothesis in
    ``tests/test_cluster.py``).  This is the coordinator's *initial*
    assignment; work stealing and failure reassignment rebalance from there
    without ever duplicating or dropping a cell.
    """
    if num_workers <= 0:
        raise ValueError(f"num_workers must be positive, got {num_workers}")
    if num_cells < 0:
        raise ValueError(f"num_cells must be non-negative, got {num_cells}")
    shards: "list[list[int]]" = [[] for _ in range(num_workers)]
    for index in range(num_cells):
        shards[index % num_workers].append(index)
    return shards


def parse_hosts(hosts: "str | Iterable[str]") -> "tuple[tuple[str, int], ...]":
    """Normalise ``"host:port,host:port"`` (or an iterable) to address pairs."""
    if isinstance(hosts, str):
        entries: "Iterable[str]" = hosts.split(",")
    else:
        entries = hosts
    parsed = []
    for entry in entries:
        entry = str(entry).strip()
        if not entry:
            continue
        host, sep, port_text = entry.rpartition(":")
        if not sep or not host:
            raise ValueError(f"expected host:port, got {entry!r}")
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(f"invalid port in {entry!r}") from None
        parsed.append((host, port))
    if not parsed:
        raise ValueError("no worker hosts given")
    return tuple(parsed)


# --------------------------------------------------------------------- #
# Socket channel
# --------------------------------------------------------------------- #


class LineChannel:
    """Blocking NDJSON message channel over one TCP socket.

    Owns a private receive buffer, so a timed-out :meth:`recv` never loses
    partial data — the next call resumes where the wire left off (unlike
    ``socket.makefile`` readers, whose buffered state is undefined after a
    timeout).  One thread per channel; neither end shares a channel across
    threads.
    """

    def __init__(self, sock: socket.socket, max_bytes: int = MAX_CLUSTER_LINE_BYTES):
        self._sock = sock
        self._max_bytes = max_bytes
        self._buffer = bytearray()
        self._scanned = 0  # buffer prefix known to hold no newline

    def send(self, message: object) -> None:
        """Write one message as an NDJSON line (blocking)."""
        self.send_line(encode_cluster_line(message))

    def send_line(self, line: bytes) -> None:
        """Write one already-encoded NDJSON line (blocking)."""
        self._sock.sendall(line)

    def recv(self, timeout: "float | None" = None) -> "object | None":
        """Read the next message; ``None`` on EOF, ``TimeoutError`` on expiry."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            newline = self._buffer.find(b"\n", self._scanned)
            if newline >= 0:
                line = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                self._scanned = 0
                if not line.strip():
                    continue
                return decode_cluster_line(line, self._max_bytes)
            self._scanned = len(self._buffer)
            if len(self._buffer) > self._max_bytes:
                raise ProtocolError(f"message exceeds {self._max_bytes} bytes")
            if deadline is None:
                self._sock.settimeout(None)
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("timed out waiting for a cluster message")
                self._sock.settimeout(remaining)
            chunk = self._sock.recv(1 << 16)
            if not chunk:
                return None
            self._buffer += chunk

    def close(self) -> None:
        """Close the underlying socket (idempotent, best-effort)."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - platform-dependent teardown
            pass


# --------------------------------------------------------------------- #
# Worker node
# --------------------------------------------------------------------- #


class WorkerNode:
    """One socket-connected worker: executes pickled tasks and batch chunks.

    Runs a tiny threaded TCP server (one thread per coordinator connection)
    and keeps the last :data:`MAX_NODE_BATCHES` pushed batches, so a batch
    is decoded (or attached) once per node.  Launch it in-process
    (``node.start()``; the unit tests do), as a process via ``malleable-repro
    workers`` / :func:`run_worker_node`, or as a forked local node serving
    one socket pair through :meth:`serve_connection`.

    Shutdown is graceful by design: :meth:`drain` (also wired to ``SIGTERM``
    by :meth:`install_signal_handlers`) stops accepting connections, lets
    the in-flight job finish and send its reply, then closes.  The
    coordinator sees the close *after* the last result, so a drained worker
    never loses work.

    Parameters
    ----------
    host, port:
        Bind address; port ``0`` picks an ephemeral port (read it back from
        :meth:`start`).
    worker_id:
        Stable identity reported in ``HelloReply``/``Pong`` (defaults to
        ``w<pid>``).
    chaos_delay:
        Fault injection for the test harness: sleep this many seconds
        before *every* job, simulating a straggler that blows the
        coordinator's per-cell timeout.
    chaos_die_after:
        Fault injection: the N-th job to *arrive* kills the process with
        ``os._exit`` mid-cell — no reply, no cleanup, exactly like
        ``kill -9``.  Counting arrivals rather than completions makes the
        death deterministic: ``1`` dies on the first job of the node's own
        shard, before any sibling can steal it.  Only meaningful for worker
        subprocesses (an in-process node would take the test down with it).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        worker_id: "str | None" = None,
        chaos_delay: float = 0.0,
        chaos_die_after: int = 0,
    ):
        self.host = host
        self.port = port
        self.worker_id = worker_id or f"w{os.getpid()}"
        self.chaos_delay = float(chaos_delay)
        self.chaos_die_after = int(chaos_die_after)
        self.completed = 0
        self.received = 0
        self._inflight = 0
        self._listener: "socket.socket | None" = None
        self._accept_thread: "threading.Thread | None" = None
        self._threads: "list[threading.Thread]" = []
        #: batch id -> (named arrays, shared-memory attachment or None)
        self._batches: "OrderedDict[str, tuple[dict[str, np.ndarray], Any]]" = OrderedDict()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------- #

    def start(self) -> "tuple[str, int]":
        """Bind, listen and serve in background threads; returns the address."""
        if self._listener is not None:
            raise RuntimeError("worker node already started")
        listener = socket.create_server((self.host, self.port))
        listener.settimeout(0.2)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"cluster-worker-{self.worker_id}", daemon=True
        )
        self._accept_thread.start()
        return (self.host, self.port)

    @property
    def address(self) -> str:
        """The ``host:port`` string coordinators connect to."""
        return f"{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        """True once a drain was requested (SIGTERM or a ``Drain`` message)."""
        return self._draining.is_set()

    def install_signal_handlers(self) -> None:
        """Route ``SIGTERM``/``SIGINT`` to :meth:`drain` (main thread only)."""

        def _on_signal(signum: int, frame: object) -> None:
            self.drain()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)

    def drain(self) -> None:
        """Stop accepting work; in-flight jobs finish and reply first."""
        self._draining.set()

    def stop(self) -> None:
        """Drain, then tear the node down and join its threads."""
        self.drain()
        self._stopped.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for thread in list(self._threads):
            thread.join(timeout=5.0)

    def wait(self) -> None:
        """Block until the node drains (how the CLI verb serves forever)."""
        while not self._draining.wait(timeout=0.2):
            pass
        # Give in-flight connections time to flush their final replies.
        for thread in list(self._threads):
            thread.join(timeout=10.0)
        self.stop()

    # -- serving ------------------------------------------------------- #

    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None
        while not self._stopped.is_set() and not self._draining.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            except OSError:
                break
            thread = threading.Thread(
                target=self.serve_connection, args=(conn,), daemon=True
            )
            self._threads.append(thread)
            thread.start()
        try:
            listener.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def serve_connection(self, conn: socket.socket) -> None:
        """Serve one coordinator connection until it closes or the node drains."""
        channel = LineChannel(conn)
        try:
            while not self._stopped.is_set():
                try:
                    message = channel.recv(timeout=0.25)
                except TimeoutError:
                    if self._draining.is_set():
                        break
                    continue
                except ProtocolError as exc:
                    # Garbage or oversized line: answer with a structured
                    # failure instead of hanging up, so a buggy coordinator
                    # sees *why* (mirrors the service's ErrorReply path).
                    channel.send(JobFailed(job_id=-1, error=f"protocol: {exc}", retryable=False))
                    continue
                if message is None:  # coordinator hung up
                    break
                reply = self._handle(message)
                if reply is not None:
                    channel.send(reply)
                if isinstance(message, Drain) or self._draining.is_set():
                    break
        except OSError:  # connection torn down underneath us
            pass
        finally:
            channel.close()

    # -- job execution ------------------------------------------------- #

    def _chaos_gate(self) -> None:
        """Fault-injection hooks, applied before every job (see class docs)."""
        with self._lock:  # jobs arrive on several connection threads
            self.received += 1
            received = self.received
        if self.chaos_die_after and received >= self.chaos_die_after:
            os._exit(17)  # simulate kill -9 mid-cell: no reply, no cleanup
        if self.chaos_delay > 0:
            time.sleep(self.chaos_delay)

    def _handle(self, message: object) -> "object | None":
        if isinstance(message, Handshake):
            if message.protocol != PROTOCOL_VERSION:
                return JobFailed(
                    job_id=-1,
                    error=f"protocol version mismatch: coordinator {message.protocol}, worker {PROTOCOL_VERSION}",
                    retryable=False,
                )
            return HelloReply(
                worker_id=self.worker_id,
                pid=os.getpid(),
                protocol=PROTOCOL_VERSION,
                draining=self._draining.is_set(),
            )
        if isinstance(message, Ping):
            return Pong(seq=message.seq, inflight=self._inflight, completed=self.completed)
        if isinstance(message, Drain):
            self.drain()
            return DrainAck(worker_id=self.worker_id, completed=self.completed)
        if isinstance(message, PushBatch):
            return BatchAck(batch_id=message.batch_id, cached=self._store(message))
        if isinstance(message, (RunTask, RunChunk)):
            self._chaos_gate()
            self._inflight += 1
            try:
                if isinstance(message, RunTask):
                    reply: object = self._run_task(message)
                else:
                    reply = self._run_chunk(message)
                self.completed += 1
                return reply
            except Exception as exc:  # noqa: BLE001 - every job error -> JobFailed
                unknown_batch = isinstance(exc, _UnknownBatch)
                return JobFailed(
                    job_id=message.job_id,
                    error=f"{type(exc).__name__}: {exc}",
                    retryable=unknown_batch,
                    unknown_batch=unknown_batch,
                )
            finally:
                self._inflight -= 1
        return JobFailed(
            job_id=-1, error=f"unexpected message {type(message).__name__}", retryable=False
        )

    def _store(self, message: PushBatch) -> bool:
        """Hold a pushed batch, evicting the least recently used; True if already held."""
        with self._lock:
            if message.batch_id in self._batches:
                self._batches.move_to_end(message.batch_id)
                return True
            fields = [shm.SharedArrayField(**entry) for entry in message.arrays]
            if message.segment:
                self._batches[message.batch_id] = shm.attach_arrays(message.segment, fields)
            else:
                data = base64.b64decode(message.data.encode("ascii"))
                self._batches[message.batch_id] = (shm.array_views(data, fields), None)
            while len(self._batches) > MAX_NODE_BATCHES:
                _, (arrays, segment) = self._batches.popitem(last=False)
                arrays.clear()  # drop the views before unmapping their pages
                if segment is not None:
                    segment.close()
            return False

    def _run_task(self, message: RunTask) -> TaskDone:
        fn, item = _unpack(message.task)
        return TaskDone(job_id=message.job_id, result=_pack(fn(item)))

    def _run_chunk(self, message: RunChunk) -> TaskDone:
        with self._lock:
            entry = self._batches.get(message.batch_id)
        if entry is None:
            raise _UnknownBatch(f"unknown batch {message.batch_id!r} (push it first)")
        rows = shm.apply_rows(_unpack(message.fn), entry[0], message.lo, message.hi)
        return TaskDone(job_id=message.job_id, result=_pack(rows))


class _UnknownBatch(KeyError):
    """A chunk named a batch the node does not hold (never pushed, or evicted)."""


def _serve_local_node(conn: socket.socket, parent_end: socket.socket) -> None:
    """Body of a forked local node: serve the socket pair until EOF or drain.

    Closing the inherited parent end makes the parent's death an EOF on
    ``conn``, so an orphaned node exits.  ``SIGINT`` is the parent's to handle.
    """
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    WorkerNode(worker_id=f"local{os.getpid()}").serve_connection(conn)


def run_worker_node(
    host: str = "127.0.0.1",
    port: int = 0,
    worker_id: "str | None" = None,
    chaos_delay: float = 0.0,
    chaos_die_after: int = 0,
) -> int:
    """Run one worker node until it drains (the ``malleable-repro workers`` body).

    Prints the bound address (flushed, machine-parsable) so launchers —
    the chaos test harness, the benchmark, shell scripts — can discover
    ephemeral ports, installs the ``SIGTERM``/``SIGINT`` drain handlers and
    blocks until a drain completes.
    """
    node = WorkerNode(
        host=host,
        port=port,
        worker_id=worker_id,
        chaos_delay=chaos_delay,
        chaos_die_after=chaos_die_after,
    )
    bound_host, bound_port = node.start()
    print(f"cluster worker {node.worker_id} listening on {bound_host}:{bound_port}", flush=True)
    node.install_signal_handlers()
    node.wait()
    return 0


# --------------------------------------------------------------------- #
# Coordinator
# --------------------------------------------------------------------- #


class ClusterError(RuntimeError):
    """A cluster operation could not complete (dead workers, retries exhausted)."""


class ClusterAborted(ClusterError):
    """Raised by the ``abort_after`` fault-injection hook (simulated coordinator crash)."""


class _Worker:
    """Coordinator-side view of one worker node (``process``: local nodes only)."""

    def __init__(self, name: str, channel: LineChannel, worker_id: str, process: Any = None):
        self.name = name
        self.channel = channel
        self.worker_id = worker_id
        self.process = process
        self.alive = True
        self.pending: "deque[int]" = deque()
        self.batches: "set[str]" = set()
        self.seq = 0


@dataclass
class _Job:
    """One unit of cluster work: its encoded request (and, for chunks, the
    ``(batch_id, encoded PushBatch)`` it needs) plus retry bookkeeping."""

    index: int
    line: bytes
    push: "tuple[str, bytes] | None" = None
    attempts: int = 0
    done: bool = False
    result: object = None


def _result(job: _Job) -> Any:
    """The unpickled value of a completed job's ``TaskDone``."""
    assert isinstance(job.result, TaskDone)
    return _unpack(job.result.result)


def _encode_request(message: object) -> bytes:
    """Encode a job message; one over the cap would cost every worker it met."""
    line = encode_cluster_line(message)
    if len(line) > MAX_CLUSTER_LINE_BYTES:
        raise ClusterError(
            f"{type(message).__name__} message of {len(line)} bytes exceeds the "
            f"{MAX_CLUSTER_LINE_BYTES}-byte cluster line cap"
        )
    return line


def _fork_local_node(index: int) -> "tuple[LineChannel, Any]":
    """Start one local node on a socket pair, with the default start method."""
    parent_end, child_end = socket.socketpair()
    process = multiprocessing.get_context().Process(
        target=_serve_local_node, args=(child_end, parent_end), name=f"repro-local-node-{index}", daemon=True
    )
    process.start()
    child_end.close()  # the node's end now lives in the node alone
    return LineChannel(parent_end), process


class ClusterCoordinator:
    """Shard jobs over worker nodes with bounded retries.

    :meth:`map` runs one job per item (the context passes it chunks and
    cells), :meth:`map_batch` row-chunks of an ``InstanceBatch`` pushed
    **once per node**.  See the module docstring for the failure model.

    Parameters
    ----------
    hosts:
        ``"host:port,host:port"`` or an iterable of ``host:port`` strings.
        Empty when ``local_nodes`` is given.
    cell_timeout:
        Seconds a single job may take on a remote node before the node is
        declared dead and the job is reassigned.  Local nodes have none.
    max_retries:
        Bound on *re*-executions per job after its worker was lost (or
        evicted its batch twice); exceeding it fails the run.  A job whose
        function raised fails the run at once.
    heartbeat_interval:
        Idle workers are pinged at this cadence so dead nodes are noticed
        before new work is routed to them.
    connect_timeout:
        Seconds allowed for the connect + handshake per worker, and for a
        drained local node to exit.
    abort_after:
        Fault injection for the chaos harness: abort the run (raising
        :class:`ClusterAborted`) once this many results were recorded —
        a deterministic stand-in for killing the coordinator mid-sweep.
    local_nodes:
        Fork this many local nodes in :meth:`connect` instead of dialling
        ``hosts``; :meth:`close` drains and joins them.
    """

    def __init__(
        self,
        hosts: "str | Iterable[str]" = (),
        cell_timeout: float = 120.0,
        max_retries: int = 2,
        heartbeat_interval: float = 2.0,
        connect_timeout: float = 5.0,
        abort_after: int = 0,
        local_nodes: int = 0,
    ):
        self.local_nodes = int(local_nodes)
        self.addresses = () if self.local_nodes else parse_hosts(hosts)
        self.cell_timeout = float(cell_timeout)
        self.max_retries = int(max_retries)
        self.heartbeat_interval = float(heartbeat_interval)
        self.connect_timeout = float(connect_timeout)
        self.abort_after = int(abort_after)
        self.stats: "dict[str, int]" = {
            "dispatched": 0,
            "completed": 0,
            "duplicates": 0,
            "retries": 0,
            "reassigned": 0,
            "dead_workers": 0,
            "heartbeats": 0,
            "batches_pushed": 0,
        }
        #: Jobs of the most recent :meth:`map` / :meth:`map_batch` call.
        self.last_job_count = 0
        self._workers: "list[_Worker]" = []
        self._connected = False

    # -- connection management ----------------------------------------- #

    def connect(self) -> int:
        """Connect + handshake every worker (idempotent); returns live count.

        Local nodes are forked here.  Unreachable remote workers are skipped
        (and counted in ``stats["dead_workers"]``); zero reachable workers
        is an error.
        """
        if self._connected:
            return self.live_workers()
        failures = []
        for host, port in self.addresses:
            name = f"{host}:{port}"
            try:
                sock = socket.create_connection((host, port), timeout=self.connect_timeout)
                self._handshake(name, LineChannel(sock), None)
            except (OSError, ProtocolError, ClusterError) as exc:
                failures.append(f"{name}: {exc}")
                self.stats["dead_workers"] += 1
        forked = [_fork_local_node(index) for index in range(self.local_nodes)]
        for index, (channel, process) in enumerate(forked):  # all start at once
            self._handshake(f"local{index}", channel, process)
        if not self._workers:
            raise ClusterError(
                "no cluster workers reachable: " + "; ".join(failures)
            )
        self._connected = True
        return self.live_workers()

    def _handshake(self, name: str, channel: LineChannel, process: Any) -> None:
        channel.send(Handshake(coordinator=f"pid{os.getpid()}", protocol=PROTOCOL_VERSION))
        reply = channel.recv(timeout=self.connect_timeout)
        if not isinstance(reply, HelloReply):
            raise ClusterError(f"handshake rejected: {reply!r}")
        if reply.protocol != PROTOCOL_VERSION:
            raise ClusterError(f"protocol version mismatch: worker speaks {reply.protocol}")
        self._workers.append(_Worker(name, channel, reply.worker_id, process))

    def live_workers(self) -> int:
        """Number of workers currently believed alive."""
        return sum(1 for w in self._workers if w.alive)

    def ping(self) -> int:
        """Heartbeat every live worker now; returns the surviving count.

        A worker that fails the ping (timeout, EOF, protocol garbage) is
        marked dead immediately — this is the idle-time dead-worker
        detection the worker threads also run between jobs.
        """
        self.connect()
        for worker in self._workers:
            if worker.alive and not self._heartbeat(worker):
                self._retire(worker)
        return self.live_workers()

    def drain_workers(self) -> int:
        """Politely shut down every live worker node (best-effort)."""
        return sum(self._drain(worker) for worker in self._workers if worker.alive)

    def _drain(self, worker: _Worker) -> bool:
        try:
            worker.channel.send(Drain(reason="coordinator drain"))
            drained = isinstance(worker.channel.recv(timeout=self.connect_timeout), DrainAck)
        except (TimeoutError, OSError, ProtocolError):
            drained = False
        worker.alive = False
        worker.channel.close()
        return drained

    def close(self) -> None:
        """Drop every connection; drain and join local nodes (idempotent).

        Remote workers keep running for other sweeps.  A local node that
        has not exited ``connect_timeout`` after its drain is killed.
        """
        for worker in self._workers:
            if worker.alive and worker.process is not None:
                self._drain(worker)
            worker.alive = False
            worker.channel.close()
            if worker.process is not None:
                worker.process.join(self.connect_timeout)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join()
        self._workers.clear()
        self._connected = False

    def __enter__(self) -> "ClusterCoordinator":
        self.connect()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- public mapping API -------------------------------------------- #

    def map(
        self,
        fn: "Callable[[Any], Any]",
        items: "Iterable[Any]",
        on_result: "Callable[[int, Any], None] | None" = None,
    ) -> list:
        """Apply a picklable function to every item, one job per item.

        ``on_result(index, value)`` fires once per job, in completion order
        — the sweep runner persists its cell cache from it.
        """
        jobs = [
            _Job(index=i, line=_encode_request(RunTask(job_id=i, task=_pack((fn, item)))))
            for i, item in enumerate(items)
        ]
        return self._run_jobs(jobs, on_result)

    def map_batch(
        self,
        fn: "Callable[..., Any]",
        batch: InstanceBatch,
        extra: "Mapping[str, Any] | None" = None,
    ) -> list:
        """Map ``fn`` over row-chunks of a batch, shipping rows once per node.

        Local nodes read the batch (plus ``extra`` per-row arrays) from one
        segment published per call through :func:`repro.exec.shm.publish_batch`
        (looked up at call time, unlinked on return; its name is the batch
        id).  Remote nodes get it base64-encoded, keyed by a content
        fingerprint, with the first chunk that lands there.  Chunk jobs
        carry only ``(batch_id, lo, hi)``; results concatenate in row order.
        """
        self.connect()
        shared = shm.publish_batch(batch, **(extra or {})) if self.local_nodes else None
        if shared is not None:
            batch_id = segment = shared.handle.segment
            fields, data = [*shared.handle.fields, *shared.handle.extra], ""
        else:
            arrays = shm.batch_arrays(batch, extra)
            fields, buffer = shm.pack_arrays(arrays)
            batch_id, segment, data = batch_fingerprint(arrays), "", base64.b64encode(buffer).decode("ascii")
        try:
            layout = tuple(dataclasses.asdict(f) for f in fields)
            push = (batch_id, _encode_request(PushBatch(batch_id, layout, segment, data)))
            fn_packed = _pack(fn)
            ranges = chunk_ranges(batch.batch_size, max(1, self.live_workers()))
            jobs = [
                _Job(i, _encode_request(RunChunk(i, batch_id, fn_packed, lo, hi)), push)
                for i, (lo, hi) in enumerate(ranges)
            ]
            chunked = self._run_jobs(jobs, None)
        finally:
            if shared is not None:
                shared.close()
                for worker in self._workers:
                    worker.batches.discard(batch_id)  # the segment is gone
        return [item for chunk in chunked for item in chunk]

    # -- the job engine ------------------------------------------------- #

    def _run_jobs(
        self,
        jobs: "list[_Job]",
        on_result: "Callable[[int, Any], None] | None",
    ) -> list:
        self.last_job_count = len(jobs)
        if not jobs:
            return []
        self.connect()
        live = [w for w in self._workers if w.alive]
        if not live:
            raise ClusterError("no live cluster workers")
        cond = threading.Condition()
        state: "dict[str, Any]" = {"remaining": len(jobs), "error": None}

        for worker, shard in zip(live, assign_cells(len(jobs), len(live))):
            worker.pending = deque(shard)

        def _next_job(worker: _Worker) -> "_Job | None":
            # Own shard first, then steal from the back of the longest
            # remaining queue (classic work stealing: the victim keeps the
            # front it is about to run).
            while worker.pending:
                job = jobs[worker.pending.popleft()]
                if not job.done:
                    return job
            victims = [w for w in self._workers if w.alive and w is not worker and w.pending]
            if victims:
                victim = max(victims, key=lambda w: len(w.pending))
                job = jobs[victim.pending.pop()]
                if not job.done:
                    return job
            return None

        def _fail(error: Exception) -> None:
            if state["error"] is None:
                state["error"] = error
            cond.notify_all()

        def _retire_locked(worker: _Worker, inflight: "_Job | None") -> None:
            if not worker.alive:
                return
            worker.alive = False
            worker.channel.close()
            self.stats["dead_workers"] += 1
            requeue = [i for i in worker.pending if not jobs[i].done]
            worker.pending.clear()
            if inflight is not None and not inflight.done:
                inflight.attempts += 1
                self.stats["reassigned"] += 1
                if inflight.attempts > self.max_retries:
                    _fail(
                        ClusterError(
                            f"job {inflight.index} lost {inflight.attempts} workers; giving up"
                        )
                    )
                    return
                requeue.insert(0, inflight.index)
            survivors = [w for w in self._workers if w.alive]
            if not survivors:
                if requeue or state["remaining"] > 0:
                    _fail(
                        ClusterError(
                            f"all cluster workers dead with {state['remaining']} job(s) outstanding"
                        )
                    )
                return
            for offset, index in enumerate(requeue):
                survivors[offset % len(survivors)].pending.append(index)
            cond.notify_all()

        def _record(worker: _Worker, job: _Job, reply: object) -> None:
            if isinstance(reply, JobFailed):
                if not reply.retryable:
                    _fail(ClusterError(f"job {job.index} failed: {reply.error}"))
                    return
                job.attempts += 1
                self.stats["retries"] += 1
                if job.attempts > self.max_retries:
                    _fail(
                        ClusterError(
                            f"job {job.index} failed after {job.attempts} attempt(s): {reply.error}"
                        )
                    )
                    return
                others = [w for w in self._workers if w.alive and w is not worker]
                target = others[job.index % len(others)] if others else worker
                target.pending.append(job.index)
                cond.notify_all()
                return
            if job.done:
                self.stats["duplicates"] += 1
                return
            job.done = True
            job.result = reply
            state["remaining"] -= 1
            self.stats["completed"] += 1
            if on_result is not None:
                # A raising callback aborts the run: this is exactly how the
                # chaos harness simulates a coordinator crash mid-sweep.
                try:
                    on_result(job.index, _result(job))
                except Exception as exc:  # noqa: BLE001
                    _fail(exc)
                    return
            if self.abort_after and self.stats["completed"] >= self.abort_after:
                _fail(ClusterAborted(f"fault injection: aborted after {self.abort_after} results"))
                return
            cond.notify_all()

        def _worker_loop(worker: _Worker) -> None:
            while True:
                job: "_Job | None" = None
                with cond:
                    while True:
                        if state["error"] is not None or state["remaining"] == 0:
                            return
                        job = _next_job(worker)
                        if job is not None:
                            break
                        # No runnable job for us; others still hold work.
                        # Wait for a notify, and on a quiet interval take a
                        # heartbeat turn so a dead idle worker is noticed.
                        if not cond.wait(timeout=self.heartbeat_interval):
                            break
                if job is None:
                    # A local node's death is an EOF on its next job; a
                    # missed Pong from a busy host must not retire it.
                    if worker.process is None and not self._heartbeat(worker):
                        with cond:
                            _retire_locked(worker, None)
                        return
                    continue
                ok, reply = self._execute(worker, job)
                with cond:
                    if not ok:
                        _retire_locked(worker, job)
                        return
                    _record(worker, job, reply)

        threads = [
            threading.Thread(target=_worker_loop, args=(worker,), daemon=True)
            for worker in live
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if state["error"] is not None:
            raise state["error"]
        if state["remaining"] > 0:  # pragma: no cover - defensive
            raise ClusterError(f"{state['remaining']} job(s) never completed")
        return [_result(job) for job in jobs]

    def _execute(self, worker: _Worker, job: _Job) -> "tuple[bool, object]":
        """Send one job and wait for its reply; False means the worker is lost.

        A chunk of a batch the node evicted is re-pushed once.
        """
        timeout = None if worker.process is not None else self.cell_timeout
        try:
            for _ in range(2):
                if job.push is not None and job.push[0] not in worker.batches:
                    worker.channel.send_line(job.push[1])
                    ack = worker.channel.recv(timeout=timeout)
                    if not isinstance(ack, BatchAck) or ack.batch_id != job.push[0]:
                        return False, None
                    worker.batches.add(job.push[0])
                    self.stats["batches_pushed"] += 1
                worker.channel.send_line(job.line)
                self.stats["dispatched"] += 1
                reply = self._await_reply(worker, job.index, timeout)
                if reply is None:
                    return False, None
                if not (isinstance(reply, JobFailed) and reply.unknown_batch and job.push):
                    break
                worker.batches.discard(job.push[0])
            return True, reply
        except (TimeoutError, OSError, ProtocolError):
            return False, None

    def _await_reply(self, worker: _Worker, job_id: int, timeout: "float | None") -> "object | None":
        """The reply to ``job_id``; ``None`` on EOF, timeout or protocol confusion."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                return None
            reply = worker.channel.recv(timeout=remaining)
            if isinstance(reply, Pong):  # stale heartbeat answer
                continue
            if isinstance(reply, (TaskDone, JobFailed)) and reply.job_id == job_id:
                return reply
            return None  # EOF or protocol confusion: drop the worker

    def _heartbeat(self, worker: _Worker) -> bool:
        """One Ping/Pong exchange; False marks the worker dead."""
        try:
            worker.seq += 1
            worker.channel.send(Ping(seq=worker.seq))
            deadline = time.monotonic() + max(self.heartbeat_interval, 0.5)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                reply = worker.channel.recv(timeout=remaining)
                if reply is None:
                    return False
                if isinstance(reply, Pong) and reply.seq == worker.seq:
                    self.stats["heartbeats"] += 1
                    return True
        except (TimeoutError, OSError, ProtocolError):
            return False

    def _retire(self, worker: _Worker) -> None:
        """Mark a worker dead outside a job run (connect/ping paths)."""
        if worker.alive:
            worker.alive = False
            worker.channel.close()
            self.stats["dead_workers"] += 1
