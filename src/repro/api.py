"""The stable public facade: typed messages shared by every entry point.

This module is the *single schema* of the project's request/response
surface.  The same frozen dataclasses are

* serialised onto the wire by the online scheduling service
  (:mod:`repro.service.protocol` frames them as newline-delimited JSON),
* sent by the service client and the synthetic load generator
  (:mod:`repro.service.client`, :mod:`repro.service.loadgen`), and
* handed directly to :meth:`repro.service.server.SchedulerService.handle`
  by in-process callers — no sockets required.

Every message is a plain frozen dataclass of JSON-representable fields; the
``type`` tag used on the wire is the registry key in :data:`MESSAGE_TYPES`.
:func:`encode_message` / :func:`decode_message` convert between dataclasses
and tagged dicts, raising :class:`ProtocolError` (never a bare
``TypeError``) on malformed payloads so servers can answer with a structured
:class:`ErrorReply` instead of dropping the connection.

The blessed *callable* entry points of the library — ``ExecutionContext``,
``simulate``, ``simulate_batch``, ``lower_bound_batch``, ``optimal``,
``run_experiment``, ``SweepRunner``, ``SchedulerService`` — are re-exported
lazily from the top-level :mod:`repro` package; see ``repro/__init__.py``.

Examples
--------
>>> from repro.api import SubmitTask, decode_message, encode_message
>>> payload = encode_message(SubmitTask(volume=4.0, weight=2.0, delta=2.0))
>>> payload["type"]
'submit_task'
>>> decode_message(payload)
SubmitTask(volume=4.0, weight=2.0, delta=2.0, task_id=None, client='', now=None)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Mapping

__all__ = [
    "ProtocolError",
    "MessageRegistry",
    "REGISTRY",
    "SubmitTask",
    "CancelTask",
    "QueryShare",
    "QueryState",
    "MetricsRequest",
    "HealthRequest",
    "SimulateRequest",
    "SubmitReply",
    "CancelReply",
    "ShareReply",
    "StateReply",
    "MetricsReply",
    "HealthReply",
    "SimulateReply",
    "ErrorReply",
    "MESSAGE_TYPES",
    "REQUEST_TYPES",
    "REPLY_TYPES",
    "message_type",
    "encode_message",
    "decode_message",
]


class ProtocolError(ValueError):
    """A malformed or unknown message reached an encode/decode boundary."""


class MessageRegistry:
    """Tagged-dataclass codec: the machinery behind every wire protocol.

    A registry maps wire tags to frozen dataclasses and converts between the
    two representations — :meth:`encode` flattens a message instance into a
    ``{"type": tag, ...fields}`` dict, :meth:`decode` rebuilds the dataclass
    with *strict* validation (unknown tag, unexpected field, missing required
    field all raise :class:`ProtocolError`, never a bare ``TypeError``).

    The service protocol below and the cluster coordinator/worker protocol
    (:data:`repro.exec.cluster.CLUSTER_REGISTRY`) are both instances; the
    module-level :func:`encode_message` / :func:`decode_message` functions
    delegate to the registry of the service messages.

    Parameters
    ----------
    types:
        Wire tag -> dataclass mapping.
    tuple_fields:
        Field names whose list values decode back to tuples (tuples keep
        frozen dataclasses hashable and round-trip equality exact, since
        JSON has no tuple type).
    """

    def __init__(
        self,
        types: "Mapping[str, type]",
        tuple_fields: "tuple[str, ...] | frozenset[str]" = (),
        label: str = "registered",
    ):
        self.types: "dict[str, type]" = dict(types)
        self.label = label
        self._tag_by_type = {cls: tag for tag, cls in self.types.items()}
        self._tuple_fields = frozenset(tuple_fields)
        # Field names per type, computed once: ``dataclasses.fields`` rebuilds
        # its tuple on every call, and encode/decode run on every request.
        self._field_names = {
            cls: tuple(f.name for f in fields(cls)) for cls in self.types.values()
        }
        self._known_fields = {cls: frozenset(names) for cls, names in self._field_names.items()}

    def __repr__(self) -> str:
        # Stable (no memory address): registry objects appear in generated
        # API docs and in function signature defaults.
        return f"<MessageRegistry {self.label!r}: {len(self.types)} message types>"

    def message_type(self, message: object) -> str:
        """The wire tag of a message instance (ProtocolError if foreign)."""
        try:
            return self._tag_by_type[type(message)]
        except KeyError:
            raise ProtocolError(
                f"{type(message).__name__} is not a {self.label} message type"
            ) from None

    def encode(self, message: object) -> "dict[str, Any]":
        """Flatten a message dataclass into a ``{'type': tag, ...fields}`` dict.

        Tuples are emitted as-is (JSON serialises them as arrays); ``None``
        optionals are included so the payload is self-describing.
        """
        tag = self.message_type(message)
        payload: "dict[str, Any]" = {"type": tag}
        for name in self._field_names[type(message)]:
            value = getattr(message, name)
            if isinstance(value, tuple):
                value = list(value)
            payload[name] = value
        return payload

    def decode(self, payload: "Mapping[str, Any]") -> object:
        """Rebuild the message dataclass a tagged payload describes.

        Raises :class:`ProtocolError` on a missing/unknown ``type`` tag, an
        unexpected field, or a missing required field, so transport layers
        can turn any client mistake into a structured error reply.
        """
        if not isinstance(payload, Mapping):
            raise ProtocolError(f"expected a mapping, got {type(payload).__name__}")
        tag = payload.get("type")
        if not isinstance(tag, str) or tag not in self.types:
            raise ProtocolError(f"unknown message type {tag!r}")
        cls = self.types[tag]
        known = self._known_fields[cls]
        kwargs: "dict[str, Any]" = {}
        for name, value in payload.items():
            if name == "type":
                continue
            if name not in known:
                raise ProtocolError(f"unexpected field {name!r} for message {tag!r}")
            if name in self._tuple_fields and isinstance(value, (list, tuple)):
                value = tuple(value)
            kwargs[name] = value
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ProtocolError(f"invalid {tag!r} message: {exc}") from None

    def encode_line(self, message: object) -> bytes:
        """:meth:`encode` as one compact newline-terminated JSON line."""
        return json.dumps(self.encode(message), separators=(",", ":")).encode("utf-8") + b"\n"

    def decode_line(self, line: bytes, max_bytes: int) -> object:
        """:meth:`decode` one JSON line; oversize and invalid JSON are ProtocolErrors too."""
        if len(line) > max_bytes:
            raise ProtocolError(f"message exceeds {max_bytes} bytes")
        try:
            payload = json.loads(line)
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"invalid JSON: {exc}") from None
        return self.decode(payload)


# --------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class SubmitTask:
    """Submit one malleable task to the live system.

    ``volume`` is the total work, ``weight`` the priority in the
    ``sum w_i C_i`` objective, ``delta`` the cap on simultaneous processors
    (clamped to the platform size by the server).  ``task_id`` is optional —
    the server assigns ``t<N>`` when omitted.  ``now`` is the event's
    virtual time; servers running a wall clock ignore it.

    ``idempotency_key`` makes retries safe: the first accepted submission
    under a key is remembered (journaled and snapshotted on durable
    servers), and any later submit carrying the same key — including after
    a reconnect or a server crash-restart — returns the stored reply with
    ``deduplicated=True`` instead of creating a second task.  Keys are
    scoped per ``client`` id, so distinct clients reusing a key never see
    each other's replies; clients sending no ``client`` id share one
    anonymous namespace and must keep keys globally unique.
    """

    volume: float
    weight: float = 1.0
    delta: float = 1.0
    task_id: "str | None" = None
    client: str = ""
    now: "float | None" = None
    idempotency_key: "str | None" = None


@dataclass(frozen=True)
class CancelTask:
    """Cancel a previously submitted task (a no-op once it completed).

    ``idempotency_key`` has the same retry-exactly-once semantics as on
    :class:`SubmitTask`.
    """

    task_id: str
    client: str = ""
    now: "float | None" = None
    idempotency_key: "str | None" = None


@dataclass(frozen=True)
class QueryShare:
    """Ask what processor share a task receives right now.

    With ``project=True`` the reply also carries the *projected* completion
    time: the server clones the live state and runs it to completion under
    the current policy — a what-if simulation that leaves the live system
    untouched.
    """

    task_id: str
    project: bool = False
    client: str = ""
    now: "float | None" = None


@dataclass(frozen=True)
class QueryState:
    """Ask for the aggregate counters of the live system."""

    now: "float | None" = None


@dataclass(frozen=True)
class MetricsRequest:
    """Ask for the full metrics snapshot (also served as HTTP ``/metrics``)."""


@dataclass(frozen=True)
class HealthRequest:
    """Liveness/readiness probe (also served as HTTP ``/health``)."""


@dataclass(frozen=True)
class SimulateRequest:
    """One-shot offline simulation of a complete instance.

    The request-level mirror of :func:`repro.batch.sim_kernels.simulate_batch`
    for a single instance: ``volumes`` / ``weights`` / ``deltas`` describe
    the tasks, ``policy`` names a batched policy (``wdeq``, ``deq``,
    ``fair-share``), and ``release_times`` optionally staggers the arrivals.
    """

    P: float
    volumes: "tuple[float, ...]"
    weights: "tuple[float, ...]"
    deltas: "tuple[float, ...]"
    policy: str = "wdeq"
    release_times: "tuple[float, ...] | None" = None


# --------------------------------------------------------------------- #
# Replies
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class SubmitReply:
    """Acknowledges an accepted submission (rejections are ErrorReply).

    ``deduplicated=True`` marks a retry that was absorbed by the server's
    idempotency table: the reply is the stored acknowledgement of the
    first submission and no new task was created.
    """

    task_id: str
    now: float
    share: float
    live_tasks: int
    deduplicated: bool = False


@dataclass(frozen=True)
class CancelReply:
    """Outcome of a cancellation; ``cancelled`` is False when already done."""

    task_id: str
    cancelled: bool
    now: float
    status: str = ""


@dataclass(frozen=True)
class ShareReply:
    """Current share (and optionally projected completion) of one task."""

    task_id: str
    status: str
    share: float
    remaining: float
    now: float
    completion_time: "float | None" = None
    projected_completion: "float | None" = None


@dataclass(frozen=True)
class StateReply:
    """Aggregate counters of the live system."""

    now: float
    live_tasks: int
    submitted: int
    completed: int
    cancelled: int
    rejected: int


@dataclass(frozen=True)
class MetricsReply:
    """The metrics snapshot as one nested JSON-representable mapping."""

    metrics: "Mapping[str, Any]"


@dataclass(frozen=True)
class HealthReply:
    """Service liveness: ``status`` is ``ok`` or ``draining``.

    The recovery-status fields describe the startup of a *durable* server
    (one configured with a journal directory): ``durable`` says whether a
    write-ahead journal is active, ``recovered_events`` how many journal
    records were replayed on top of the latest snapshot at startup, and
    ``recovery_seconds`` how long snapshot load + suffix replay took.  On
    an in-memory server all three keep their zero defaults.
    """

    status: str
    now: float
    live_tasks: int
    draining: bool
    durable: bool = False
    recovered_events: int = 0
    recovery_seconds: float = 0.0


@dataclass(frozen=True)
class SimulateReply:
    """Result of a one-shot :class:`SimulateRequest`."""

    completion_times: "tuple[float, ...]"
    weighted_completion_time: float
    makespan: float
    num_events: int


@dataclass(frozen=True)
class ErrorReply:
    """Structured failure; ``code`` is machine-readable.

    Codes used by the service: ``protocol`` (malformed message),
    ``rate_limited`` (per-client token bucket empty), ``admission_rejected``
    (live-task ceiling reached), ``draining`` (server shutting down),
    ``unknown_task``, ``duplicate_task``, ``invalid`` (bad field values)
    and ``internal``.
    """

    code: str
    message: str


# --------------------------------------------------------------------- #
# Wire registry
# --------------------------------------------------------------------- #

#: Wire tag ↔ dataclass, for every message in the protocol.
MESSAGE_TYPES: "dict[str, type]" = {
    "submit_task": SubmitTask,
    "cancel_task": CancelTask,
    "query_share": QueryShare,
    "query_state": QueryState,
    "metrics": MetricsRequest,
    "health": HealthRequest,
    "simulate": SimulateRequest,
    "submit_reply": SubmitReply,
    "cancel_reply": CancelReply,
    "share_reply": ShareReply,
    "state_reply": StateReply,
    "metrics_reply": MetricsReply,
    "health_reply": HealthReply,
    "simulate_reply": SimulateReply,
    "error": ErrorReply,
}

#: The client→server half of the protocol.
REQUEST_TYPES = (
    SubmitTask,
    CancelTask,
    QueryShare,
    QueryState,
    MetricsRequest,
    HealthRequest,
    SimulateRequest,
)

#: The server→client half of the protocol.
REPLY_TYPES = (
    SubmitReply,
    CancelReply,
    ShareReply,
    StateReply,
    MetricsReply,
    HealthReply,
    SimulateReply,
    ErrorReply,
)

#: Fields that decode back to tuples (dataclass equality + hashability).
_TUPLE_FIELDS = frozenset(
    {"volumes", "weights", "deltas", "release_times", "completion_times"}
)

#: The registry instance behind the module-level encode/decode functions.
REGISTRY = MessageRegistry(MESSAGE_TYPES, _TUPLE_FIELDS, label="repro.api")


def message_type(message: object) -> str:
    """The wire tag of a message instance (raises ProtocolError if foreign)."""
    return REGISTRY.message_type(message)


def encode_message(message: object) -> "dict[str, Any]":
    """Flatten a message dataclass into a ``{'type': tag, ...fields}`` dict.

    Tuples are emitted as-is (JSON serialises them as arrays); ``None``
    optionals are included so the payload is self-describing.
    """
    return REGISTRY.encode(message)


def decode_message(payload: "Mapping[str, Any]") -> object:
    """Rebuild the message dataclass a tagged payload describes.

    Raises :class:`ProtocolError` on a missing/unknown ``type`` tag, an
    unexpected field, or a missing required field — never a bare
    ``TypeError`` — so transport layers can turn any client mistake into a
    structured :class:`ErrorReply`.
    """
    return REGISTRY.decode(payload)
