"""Durable service state: write-ahead journal, snapshots and recovery.

The online scheduling service keeps its entire world in one in-memory
:class:`~repro.service.state.LiveSystemState`; without this module a crash
or restart silently discards every live task.  Durability rides on the
invariant PR 6 proved differentially — *a from-scratch replay of the
submission history reproduces the live run event-for-event* — so recovery
can be cheap and exact:

* every **accepted state-mutating request** (submit / cancel) is appended
  to a CRC-framed NDJSON write-ahead log *before* the reply is sent
  (:class:`Journal`);
* periodically the full :class:`~repro.service.state.LiveSystemState` is
  serialised into an atomic **snapshot** (:class:`SnapshotStore`) and
  journal segments covered by *every retained snapshot* are compacted
  away (so falling back to an older snapshot never meets a compacted-away
  gap);
* **recovery** (:func:`recover_state`) loads the latest valid snapshot and
  replays only the journal suffix through the existing incremental engine
  — the same :meth:`~repro.service.state.LiveSystemState.submit` /
  :meth:`~repro.service.state.LiveSystemState.cancel` calls the live
  server makes, so the recovered trajectory is the live trajectory.

Framing
-------
One record per line::

    crc32-hex SP compact-json LF

where the CRC-32 is computed over the JSON body bytes.  A process killed
mid-``write`` leaves a *torn tail* — a partial last line, or one whose CRC
no longer matches; :meth:`Journal.open` truncates the file back to the
last intact record.  A torn record was by construction never acknowledged
(the reply is only sent after ``append`` returns), so truncation never
loses an acknowledged request: the client retries, and the **idempotency
table** (:class:`IdempotencyTable`, persisted via snapshot + journal
replay) makes the retry apply exactly once.

Fsync policy
------------
Segment files are opened unbuffered, so every ``append`` is a ``write(2)``
— once it returns, the record survives a *process* crash (SIGKILL) because
the page cache belongs to the kernel, not the process.  ``fsync`` guards
against *machine* crashes and is configurable:

* ``always`` — ``fsync(2)`` after every append (safest, slowest);
* ``interval`` — at most every ``fsync_interval`` seconds, opportunistic
  on append (bounded data-loss window on power failure);
* ``off`` — never (page-cache durability only).
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.api import (
    CancelReply,
    MessageRegistry,
    ProtocolError,
    SubmitReply,
    decode_message,
    encode_message,
)
from repro.service.protocol import crc_frame, crc_unframe
from repro.service.state import LiveSystemState

__all__ = [
    "FSYNC_POLICIES",
    "JournalCorruptError",
    "JournalSubmit",
    "JournalCancel",
    "JOURNAL_REGISTRY",
    "Journal",
    "SnapshotStore",
    "IdempotencyTable",
    "RecoveryResult",
    "recover_state",
    "ServiceDurability",
    "inspect_journal",
]

#: Accepted values of the ``fsync`` configuration knob.
FSYNC_POLICIES: "tuple[str, ...]" = ("always", "interval", "off")

_SEGMENT_PREFIX = "journal-"
_SEGMENT_SUFFIX = ".wal"
_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".json"


class JournalCorruptError(RuntimeError):
    """A non-tail journal record failed validation.

    Torn *tails* are normal operation (a crash mid-write) and are truncated
    silently; corruption anywhere else — a CRC mismatch inside a sealed
    segment, a sequence-number gap, a journal suffix that no longer reaches
    back to the snapshot it must extend — means the log can no longer be
    trusted and recovery must stop loudly rather than serve a half-replayed
    state.
    """


def _fsync_dir(directory: Path) -> None:
    """Persist directory-entry changes (renames, unlinks) across power loss.

    ``fsync`` on a file makes its *bytes* durable; the rename or unlink that
    made the file visible (or gone) lives in the directory and needs its own
    ``fsync``.  Best-effort: platforms that cannot ``open`` a directory
    (Windows) skip it.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# --------------------------------------------------------------------- #
# Journal records
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class JournalSubmit:
    """One accepted submission, with every field resolved by the server.

    ``now`` is the *virtual* time the submission was applied at (monotonic
    within the journal), ``task_id`` the id actually assigned — replaying
    the record through :meth:`LiveSystemState.submit` reproduces the live
    trajectory exactly.  ``idempotency_key`` rebuilds the deduplication
    table during recovery.
    """

    task_id: str
    volume: float
    weight: float
    delta: float
    now: float
    idempotency_key: "str | None" = None


@dataclass(frozen=True)
class JournalCancel:
    """One applied cancellation (no-op cancels are never journaled)."""

    task_id: str
    now: float
    idempotency_key: "str | None" = None


#: Wire tag <-> dataclass for journal records; reuses the strict codec of
#: :class:`repro.api.MessageRegistry` (unknown tag / field -> ProtocolError).
JOURNAL_REGISTRY = MessageRegistry(
    {"submit": JournalSubmit, "cancel": JournalCancel},
    label="repro.service.journal",
)


# --------------------------------------------------------------------- #
# The write-ahead log
# --------------------------------------------------------------------- #


def _segment_path(directory: Path, first_seq: int) -> Path:
    return directory / f"{_SEGMENT_PREFIX}{first_seq:016d}{_SEGMENT_SUFFIX}"


def _segment_first_seq(path: Path) -> "int | None":
    name = path.name
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    digits = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def _scan_segment(
    path: Path, *, truncate_tail: bool
) -> "tuple[list[tuple[int, object]], int]":
    """Parse one segment; returns ``(records, truncated_bytes)``.

    With ``truncate_tail`` (the *last* segment of a journal), the first
    invalid record and everything after it are dropped and the file is
    truncated back to the last intact record — the crash-recovery path.
    Without it (sealed segments), any invalid record raises
    :class:`JournalCorruptError`.
    """
    data = path.read_bytes()
    records: "list[tuple[int, object]]" = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            break  # partial last line: torn tail
        line = data[offset : newline + 1]
        body = crc_unframe(line)
        if body is None:
            break  # CRC mismatch / malformed frame
        try:
            payload = json.loads(body)
            seq = payload.pop("seq")
            record = JOURNAL_REGISTRY.decode(payload)
        except (ValueError, KeyError, TypeError, ProtocolError):
            break
        if not isinstance(seq, int):
            break
        records.append((seq, record))
        offset = newline + 1
    truncated = len(data) - offset
    if truncated:
        if not truncate_tail:
            raise JournalCorruptError(
                f"invalid record at byte {offset} of sealed segment {path.name}"
            )
        with open(path, "rb+") as handle:
            handle.truncate(offset)
    return records, truncated


class Journal:
    """An append-only, CRC-framed, segmented write-ahead log.

    Parameters
    ----------
    directory:
        Where segments live (created if missing).  One journal per
        directory; the directory is shared with the
        :class:`SnapshotStore`.
    fsync:
        One of :data:`FSYNC_POLICIES` — see the module docstring for the
        trade-offs.
    fsync_interval:
        Maximum seconds between ``fsync`` calls under ``fsync='interval'``.
    segment_bytes:
        Rotation threshold: a segment that reaches this size is sealed and
        a new one started (always at a record boundary).
    observe:
        Optional ``(name, seconds)`` callback — the server passes
        ``MetricsRegistry.observe`` so ``journal.append`` /
        ``journal.fsync`` latency histograms come for free.

    Opening an existing directory resumes the log: the last segment's torn
    tail (if any) is truncated, ``last_seq`` continues from the last intact
    record, and new appends go to the existing segment until it rotates.
    """

    def __init__(
        self,
        directory: "str | os.PathLike[str]",
        *,
        fsync: str = "interval",
        fsync_interval: float = 0.05,
        segment_bytes: int = 4 * 1024 * 1024,
        observe: "Callable[[str, float], None] | None" = None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        if fsync_interval <= 0:
            raise ValueError(f"fsync_interval must be positive, got {fsync_interval}")
        if segment_bytes <= 0:
            raise ValueError(f"segment_bytes must be positive, got {segment_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.fsync_interval = float(fsync_interval)
        self.segment_bytes = int(segment_bytes)
        self._observe = observe
        self._handle: "Any | None" = None
        self._segment_size = 0
        self._last_fsync = time.monotonic()
        self.last_seq = 0
        self.truncated_bytes = 0
        self.appended = 0
        self._open_tail()

    # -- lifecycle ----------------------------------------------------- #

    def segment_paths(self) -> "list[Path]":
        """Segment files in ascending first-sequence order."""
        paths = [
            path
            for path in self.directory.iterdir()
            if path.is_file() and _segment_first_seq(path) is not None
        ]
        return sorted(paths, key=lambda p: _segment_first_seq(p) or 0)

    def _open_tail(self) -> None:
        """Resume the newest segment: truncate its torn tail, find last_seq."""
        paths = self.segment_paths()
        if paths:
            tail = paths[-1]
            records, truncated = _scan_segment(tail, truncate_tail=True)
            self.truncated_bytes = truncated
            if records:
                self.last_seq = records[-1][0]
            else:
                first = _segment_first_seq(tail)
                assert first is not None
                self.last_seq = first - 1
            self._handle = open(tail, "ab", buffering=0)
            self._segment_size = tail.stat().st_size
        # An empty directory defers segment creation to the first append,
        # so inspecting a journal never creates files.

    def close(self) -> None:
        """Seal the active segment (flushes and fsyncs regardless of policy)."""
        if self._handle is not None:
            with contextlib.suppress(OSError):
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- writing ------------------------------------------------------- #

    @property
    def size_bytes(self) -> int:
        """Total bytes across every live segment."""
        return sum(path.stat().st_size for path in self.segment_paths())

    def append(self, record: object) -> int:
        """Durably append one record; returns its sequence number.

        The reply to the client must not be sent before this returns: that
        ordering is what makes torn tails safe to truncate (a dropped
        record was never acknowledged).
        """
        seq = self.last_seq + 1
        payload = {"seq": seq}
        payload.update(JOURNAL_REGISTRY.encode(record))
        line = crc_frame(json.dumps(payload, separators=(",", ":")).encode("utf-8"))
        start = time.perf_counter()
        if self._handle is None or self._segment_size >= self.segment_bytes:
            self._rotate(seq)
        assert self._handle is not None
        self._handle.write(line)
        self._segment_size += len(line)
        self._maybe_fsync()
        if self._observe is not None:
            self._observe("journal.append", time.perf_counter() - start)
        self.last_seq = seq
        self.appended += 1
        return seq

    def _rotate(self, first_seq: int) -> None:
        self.close()
        path = _segment_path(self.directory, first_seq)
        self._handle = open(path, "ab", buffering=0)
        if self.fsync != "off":
            # The new segment's directory entry must survive power loss, or
            # every record in it vanishes with the file.
            _fsync_dir(self.directory)
        self._segment_size = path.stat().st_size
        self._last_fsync = time.monotonic()

    def _maybe_fsync(self) -> None:
        if self.fsync == "off" or self._handle is None:
            return
        now = time.monotonic()
        if self.fsync == "interval" and now - self._last_fsync < self.fsync_interval:
            return
        start = time.perf_counter()
        os.fsync(self._handle.fileno())
        self._last_fsync = now
        if self._observe is not None:
            self._observe("journal.fsync", time.perf_counter() - start)

    # -- reading ------------------------------------------------------- #

    def replay(self, after_seq: int = 0) -> "Iterator[tuple[int, object]]":
        """Yield ``(seq, record)`` for every record with ``seq > after_seq``.

        Sequence numbers must increase by exactly one across segment
        boundaries; a gap or an invalid record in a sealed segment raises
        :class:`JournalCorruptError` (the tail segment's torn records were
        already truncated at open).
        """
        expected: "int | None" = None
        paths = self.segment_paths()
        for index, path in enumerate(paths):
            is_tail = index == len(paths) - 1
            records, _ = _scan_segment(path, truncate_tail=is_tail)
            for seq, record in records:
                if expected is not None and seq != expected:
                    raise JournalCorruptError(
                        f"sequence gap in {path.name}: expected {expected}, found {seq}"
                    )
                expected = seq + 1
                if seq > after_seq:
                    yield seq, record

    def compact(self, upto_seq: int) -> int:
        """Delete sealed segments fully covered by ``upto_seq``; returns count.

        A segment may be deleted when the *next* segment starts at or below
        ``upto_seq + 1`` — every record in it is then ≤ ``upto_seq`` and
        reachable from the snapshot instead.  The active (last) segment is
        never deleted.
        """
        paths = self.segment_paths()
        deleted = 0
        for path, successor in zip(paths, paths[1:]):
            next_first = _segment_first_seq(successor)
            assert next_first is not None
            if next_first <= upto_seq + 1:
                path.unlink()
                deleted += 1
            else:
                break
        if deleted:
            # Make the unlinks durable *now*: if they persisted while the
            # snapshot rename that justified them did not, recovery would
            # face an unfillable gap.  (write_snapshot fsyncs the snapshot's
            # rename before calling compact, giving the safe ordering.)
            _fsync_dir(self.directory)
        return deleted


# --------------------------------------------------------------------- #
# Snapshots
# --------------------------------------------------------------------- #


class SnapshotStore:
    """Atomic, CRC-checked snapshots of the full service state.

    A snapshot file is one CRC-framed line (the same framing as journal
    records) whose body is the JSON payload; it is written to a temporary
    file, fsynced and renamed into place, so a crash mid-snapshot leaves
    the previous snapshot intact.  :meth:`load_latest` walks snapshots
    newest-first and returns the first that validates — a corrupt latest
    snapshot silently falls back to its predecessor (the journal suffix
    replay covers the difference).
    """

    def __init__(self, directory: "str | os.PathLike[str]", keep: int = 2):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = int(keep)

    def paths(self) -> "list[Path]":
        """Snapshot files in ascending sequence order."""
        out = []
        for path in self.directory.iterdir():
            name = path.name
            if name.startswith(_SNAPSHOT_PREFIX) and name.endswith(_SNAPSHOT_SUFFIX):
                out.append(path)
        return sorted(out)

    def write(self, seq: int, payload: "dict[str, Any]") -> Path:
        """Atomically persist ``payload`` as the snapshot covering ``seq``."""
        body = json.dumps({"seq": seq, **payload}, separators=(",", ":")).encode("utf-8")
        path = self.directory / f"{_SNAPSHOT_PREFIX}{seq:016d}{_SNAPSHOT_SUFFIX}"
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            handle.write(crc_frame(body))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        # The rename itself must be durable before anything that *depends*
        # on this snapshot (journal compaction) persists, or power loss can
        # keep the compaction and lose the snapshot.
        _fsync_dir(self.directory)
        self._prune()
        return path

    def _prune(self) -> None:
        paths = self.paths()
        pruned = False
        for path in paths[: -self.keep]:
            with contextlib.suppress(OSError):
                path.unlink()
                pruned = True
        if pruned:
            _fsync_dir(self.directory)

    def oldest_seq(self) -> int:
        """Sequence covered by the oldest *retained* snapshot file (0 if none).

        Journal compaction keys off this, not the newest snapshot: every
        retained snapshot then has its complete journal suffix on disk, so
        falling back from a corrupt newer snapshot actually works instead of
        hitting a compacted-away gap.
        """
        paths = self.paths()
        if not paths:
            return 0
        digits = paths[0].name[len(_SNAPSHOT_PREFIX) : -len(_SNAPSHOT_SUFFIX)]
        return int(digits) if digits.isdigit() else 0

    @staticmethod
    def read(path: Path) -> "dict[str, Any] | None":
        """Decode one snapshot file; None when torn or CRC-invalid."""
        try:
            body = crc_unframe(path.read_bytes())
        except OSError:
            return None
        if body is None:
            return None
        try:
            payload = json.loads(body)
        except ValueError:
            return None
        return payload if isinstance(payload, dict) and "seq" in payload else None

    def load_latest(self) -> "dict[str, Any] | None":
        """The newest snapshot that validates, or None."""
        for path in reversed(self.paths()):
            payload = self.read(path)
            if payload is not None:
                return payload
        return None


# --------------------------------------------------------------------- #
# Idempotency
# --------------------------------------------------------------------- #


class IdempotencyTable:
    """Client-key → first-reply deduplication with LRU-bounded memory.

    A retried request carrying the same ``idempotency_key`` returns the
    stored reply instead of being applied again — the contract that makes
    client reconnect-and-retry safe across crashes.  The table is persisted
    implicitly: snapshots embed it whole, and journal replay re-derives the
    suffix entries (replies are a pure function of the replayed state).
    """

    def __init__(self, capacity: int = 100_000):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> "object | None":
        """The stored reply for ``key`` (refreshes its LRU position)."""
        reply = self._entries.get(key)
        if reply is not None:
            self._entries.move_to_end(key)
        return reply

    def put(self, key: str, reply: object) -> None:
        """Remember the first reply for ``key``, evicting the LRU beyond capacity."""
        self._entries[key] = reply
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def pop(self, key: str) -> None:
        """Forget ``key`` (used to back out an entry whose journal append failed)."""
        self._entries.pop(key, None)

    def encode(self) -> "dict[str, Any]":
        """JSON-representable form (insertion order preserves LRU order)."""
        return {key: encode_message(reply) for key, reply in self._entries.items()}

    def load(self, payload: "dict[str, Any]") -> None:
        """Restore entries produced by :meth:`encode` (additive)."""
        for key, encoded in payload.items():
            self.put(key, decode_message(encoded))


# --------------------------------------------------------------------- #
# Recovery
# --------------------------------------------------------------------- #


@dataclass
class RecoveryResult:
    """What :func:`recover_state` rebuilt, plus how it went."""

    state: LiveSystemState
    idempotency: "dict[str, Any]" = field(default_factory=dict)
    rejected: int = 0
    last_seq: int = 0
    snapshot_seq: int = 0
    recovered_events: int = 0
    truncated_bytes: int = 0
    seconds: float = 0.0


def _replayed_reply(state: LiveSystemState, record: object) -> object:
    """Recompute the reply a journaled request originally produced.

    Replies are deterministic functions of the (replayed) state, so the
    idempotency table can be rebuilt without persisting reply payloads in
    the journal.
    """
    if isinstance(record, JournalSubmit):
        return SubmitReply(
            task_id=record.task_id,
            now=state.now,
            share=state.share_of(record.task_id),
            live_tasks=state.live_count,
        )
    assert isinstance(record, JournalCancel)
    task = state.records[record.task_id]
    return CancelReply(
        task_id=record.task_id,
        cancelled=task.status == "cancelled",
        now=state.now,
        status=task.status,
    )


def recover_state(
    journal: Journal,
    snapshots: SnapshotStore,
    *,
    P: float,
    policy: str = "wdeq",
    atol: float = 1e-10,
) -> RecoveryResult:
    """Rebuild the live system: latest valid snapshot + journal-suffix replay.

    The snapshot pins the platform (``P``/``policy``/``atol``); a mismatch
    with the requested configuration raises ``ValueError`` — a journal
    written under one policy cannot be replayed under another.
    """
    start = time.perf_counter()
    payload = snapshots.load_latest()
    if payload is not None:
        snap_state = payload["state"]
        for name, want in (("P", float(P)), ("policy", policy), ("atol", float(atol))):
            have = snap_state[name]
            if have != want:
                raise ValueError(
                    f"snapshot was taken with {name}={have!r}; the service is "
                    f"configured with {name}={want!r} — refusing to replay"
                )
        state = LiveSystemState.from_snapshot(snap_state)
        snapshot_seq = int(payload["seq"])
        rejected = int(payload.get("rejected", 0))
        idempotency: "dict[str, Any]" = dict(payload.get("idempotency", {}))
    else:
        state = LiveSystemState(P=P, policy=policy, atol=atol)
        snapshot_seq = 0
        rejected = 0
        idempotency = {}

    recovered = 0
    last_seq = snapshot_seq
    for seq, record in journal.replay(after_seq=snapshot_seq):
        if recovered == 0 and seq != snapshot_seq + 1:
            # The suffix does not reach back to the snapshot it must extend:
            # the records in between were compacted against a *newer*
            # snapshot that no longer validates.  Replaying over the hole
            # would serve a silently diverged state — stop loudly instead.
            raise JournalCorruptError(
                f"recovery gap: snapshot covers seq {snapshot_seq} but the "
                f"journal suffix starts at seq {seq}; records "
                f"{snapshot_seq + 1}..{seq - 1} were compacted away"
            )
        if isinstance(record, JournalSubmit):
            state.submit(
                record.volume,
                record.weight,
                record.delta,
                now=record.now,
                task_id=record.task_id,
            )
        elif isinstance(record, JournalCancel):
            state.cancel(record.task_id, now=record.now)
        else:  # pragma: no cover - registry guarantees the two types above
            raise JournalCorruptError(f"unknown journal record {type(record).__name__}")
        if record.idempotency_key:
            idempotency[record.idempotency_key] = encode_message(
                _replayed_reply(state, record)
            )
        recovered += 1
        last_seq = seq

    return RecoveryResult(
        state=state,
        idempotency=idempotency,
        rejected=rejected,
        last_seq=last_seq,
        snapshot_seq=snapshot_seq,
        recovered_events=recovered,
        truncated_bytes=journal.truncated_bytes,
        seconds=time.perf_counter() - start,
    )


# --------------------------------------------------------------------- #
# The server-facing facade
# --------------------------------------------------------------------- #


class ServiceDurability:
    """Everything the server needs, behind four calls.

    ``recover()`` once at startup, ``record_submit()`` / ``record_cancel()``
    after each applied mutation (both return only after the record is in
    the log — the reply must wait for them), and the snapshot cadence is
    internal: every ``snapshot_every`` appended records a snapshot is
    written and covered segments are compacted.
    """

    def __init__(
        self,
        directory: "str | os.PathLike[str]",
        *,
        fsync: str = "interval",
        fsync_interval: float = 0.05,
        segment_bytes: int = 4 * 1024 * 1024,
        snapshot_every: int = 1000,
        keep_snapshots: int = 2,
        observe: "Callable[[str, float], None] | None" = None,
    ):
        if snapshot_every < 0:
            raise ValueError(f"snapshot_every must be >= 0, got {snapshot_every}")
        self.directory = Path(directory)
        self.journal = Journal(
            directory,
            fsync=fsync,
            fsync_interval=fsync_interval,
            segment_bytes=segment_bytes,
            observe=observe,
        )
        self.snapshots = SnapshotStore(directory, keep=keep_snapshots)
        self.snapshot_every = int(snapshot_every)
        self._observe = observe
        self._since_snapshot = 0
        self.snapshots_written = 0
        self.last_recovery: "RecoveryResult | None" = None

    def recover(self, *, P: float, policy: str, atol: float) -> RecoveryResult:
        """Run :func:`recover_state` and remember the result for metrics."""
        result = recover_state(self.journal, self.snapshots, P=P, policy=policy, atol=atol)
        self.last_recovery = result
        return result

    def record_submit(self, record: object, idempotency_key: "str | None") -> int:
        """Journal one applied submission (see :class:`JournalSubmit`)."""
        return self.journal.append(
            JournalSubmit(
                task_id=record.task_id,  # type: ignore[attr-defined]
                volume=record.volume,  # type: ignore[attr-defined]
                weight=record.weight,  # type: ignore[attr-defined]
                delta=record.delta,  # type: ignore[attr-defined]
                now=record.submit_time,  # type: ignore[attr-defined]
                idempotency_key=idempotency_key,
            )
        )

    def record_cancel(
        self, task_id: str, now: float, idempotency_key: "str | None"
    ) -> int:
        """Journal one applied cancellation."""
        return self.journal.append(
            JournalCancel(task_id=task_id, now=now, idempotency_key=idempotency_key)
        )

    def note_applied(
        self,
        state: LiveSystemState,
        idempotency: IdempotencyTable,
        rejected: int,
    ) -> None:
        """Advance the snapshot cadence; snapshot + compact when due."""
        if self.snapshot_every <= 0:
            return
        self._since_snapshot += 1
        if self._since_snapshot >= self.snapshot_every:
            self.write_snapshot(state, idempotency, rejected)

    def write_snapshot(
        self,
        state: LiveSystemState,
        idempotency: IdempotencyTable,
        rejected: int,
    ) -> Path:
        """Persist the full state now and compact covered segments.

        Compaction is keyed to the *oldest retained* snapshot, not the one
        just written: every snapshot still on disk keeps its complete
        journal suffix, so recovery's fallback from a corrupt newer
        snapshot replays a whole history rather than one with a hole.
        """
        start = time.perf_counter()
        seq = self.journal.last_seq
        path = self.snapshots.write(
            seq,
            {
                "state": state.to_snapshot(),
                "idempotency": idempotency.encode(),
                "rejected": int(rejected),
            },
        )
        self.journal.compact(self.snapshots.oldest_seq())
        self._since_snapshot = 0
        self.snapshots_written += 1
        if self._observe is not None:
            self._observe("journal.snapshot", time.perf_counter() - start)
        return path

    def close(self) -> None:
        """Seal the journal."""
        self.journal.close()


# --------------------------------------------------------------------- #
# Inspection (the `malleable-repro journal` CLI verb)
# --------------------------------------------------------------------- #


def inspect_journal(
    directory: "str | os.PathLike[str]", *, verify: bool = False, tail: int = 0
) -> "dict[str, Any]":
    """Describe a journal directory without mutating it.

    Returns a JSON-representable report: per-segment record counts and
    sequence ranges, snapshot validity, total size, and — with ``verify``
    — a full CRC scan of every segment.  ``tail`` includes the last N
    decoded records.  Torn tails are *reported*, never truncated (only a
    recovering server rewrites the log).
    """
    directory = Path(directory)
    report: "dict[str, Any]" = {
        "directory": str(directory),
        "segments": [],
        "snapshots": [],
        "records": 0,
        "bytes": 0,
        "torn_tail_bytes": 0,
        "last_seq": 0,
    }
    if not directory.is_dir():
        report["error"] = "not a directory"
        return report

    segment_paths = sorted(
        (p for p in directory.iterdir() if _segment_first_seq(p) is not None),
        key=lambda p: _segment_first_seq(p) or 0,
    )
    tail_records: "list[dict[str, Any]]" = []
    for index, path in enumerate(segment_paths):
        size = path.stat().st_size
        entry: "dict[str, Any]" = {
            "file": path.name,
            "bytes": size,
            "first_seq": _segment_first_seq(path),
        }
        is_tail = index == len(segment_paths) - 1
        if verify or is_tail or tail:
            data = path.read_bytes()
            records: "list[tuple[int, object]]" = []
            offset = 0
            while offset < len(data):
                newline = data.find(b"\n", offset)
                if newline < 0:
                    break
                body = crc_unframe(data[offset : newline + 1])
                if body is None:
                    break
                try:
                    payload = json.loads(body)
                    seq = payload.pop("seq")
                    record = JOURNAL_REGISTRY.decode(payload)
                except (ValueError, KeyError, TypeError, ProtocolError):
                    break
                records.append((seq, record))
                offset = newline + 1
            entry["records"] = len(records)
            if records:
                entry["seq_range"] = [records[0][0], records[-1][0]]
                report["last_seq"] = max(report["last_seq"], records[-1][0])
            invalid = len(data) - offset
            if invalid:
                if is_tail:
                    report["torn_tail_bytes"] = invalid
                    entry["torn_tail_bytes"] = invalid
                else:
                    entry["corrupt_bytes"] = invalid
            report["records"] += len(records)
            if tail:
                for seq, record in records:
                    tail_records.append({"seq": seq, **JOURNAL_REGISTRY.encode(record)})
        report["bytes"] += size
        report["segments"].append(entry)

    store = SnapshotStore(directory) if directory.is_dir() else None
    if store is not None:
        for path in store.paths():
            payload = SnapshotStore.read(path)
            report["snapshots"].append(
                {
                    "file": path.name,
                    "bytes": path.stat().st_size,
                    "seq": None if payload is None else payload["seq"],
                    "valid": payload is not None,
                }
            )
    if tail:
        report["tail"] = tail_records[-tail:]
    return report
