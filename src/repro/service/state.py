"""The live system behind the scheduling service.

:class:`LiveSystemState` holds one resumable
:class:`~repro.simulation.engine.SimulationState` and exposes the online
operations the service needs: submit a task *now*, cancel one, ask for its
current processor share, or project its completion.  Every operation first
advances the simulation **incrementally** —
:func:`~repro.simulation.engine.advance_simulation_state` runs from the
current virtual time up to ``now`` — instead of replaying the whole history
from ``t = 0``; at a thousand live tasks that is the difference between one
event step and thousands (see ``benchmarks/bench_service.py``).  The engine
is the one-instance core of :mod:`repro.simulation`, with 1-D NumPy arrays
and array policies: it follows the event rules of the batched lockstep
engine without paying for a batch axis of one.

Dynamic arrival rides entirely on the engine's release-time machinery: a
task submitted at ``now`` occupies a fresh slot with ``release = now``.
If the system was idle (the clock frozen at an earlier completion), the
task stays *pending* and the engine's idle-advance moves the clock to
``now`` before any work is granted — no phantom work can accrue over the
gap.  Because the built-in policies are memoryless, pausing at arbitrary
query times never changes the trajectory, and pauses at submit times align
with the oracle's release events, so a from-scratch
:func:`~repro.batch.sim_kernels.simulate_batch` over the full submission
history reproduces the live run event-for-event — the differential tests
in ``tests/test_service.py`` pin exactly that.

The task axis is append-only (capacity doubles like a vector) until the
dead-slot count dominates, at which point :meth:`LiveSystemState.compact`
drops completed/cancelled slots; dropping inert slots cannot change any
future allocation, so compaction is invisible to the trajectory.

Hot path.  A request runs the engine once: a submit advances to ``now``,
inserts its slot, and advances a second time only when the system was
idle and the frozen clock must be pulled forward to fire the release.  The
service policy is wrapped in a one-entry memo of its last allocation, keyed
on the active tasks' ids, weights and caps.  The built-in policies are
memoryless — a share depends only on the weights and caps of the tasks
active at that moment, never on ``work_done`` or ``elapsed`` — so a memo
hit returns bit-identical rates.  The engine's first step after a horizon
pause and every :meth:`LiveSystemState.share_of` reply at the same ``now``
are then hits; the engine still validates the rates every step.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.batch.sim_kernels import (
    BatchPolicy,
    DeqBatchPolicy,
    FairShareNoCapBatchPolicy,
    WdeqBatchPolicy,
)
from repro.simulation.engine import (
    SimulationState,
    advance_simulation_state,
    current_allocation,
)
from repro.simulation.policies import (
    DeqPolicy,
    FairShareNoCapPolicy,
    OnlinePolicy,
    WdeqPolicy,
)

__all__ = [
    "POLICY_NAMES",
    "make_policy",
    "make_batch_policy",
    "TaskRecord",
    "UnknownTaskError",
    "DuplicateTaskError",
    "LiveSystemState",
]

#: Wire names of the policies the service can run: the live engine's policy
#: and its batched counterpart for ``simulate`` requests.
_POLICY_FACTORIES: "dict[str, tuple[type[OnlinePolicy], type[BatchPolicy]]]" = {
    "wdeq": (WdeqPolicy, WdeqBatchPolicy),
    "deq": (DeqPolicy, DeqBatchPolicy),
    "fair-share": (FairShareNoCapPolicy, FairShareNoCapBatchPolicy),
}

POLICY_NAMES: "tuple[str, ...]" = tuple(_POLICY_FACTORIES)

#: Initial/minimum width of the task axis.
_MIN_CAPACITY = 64

#: Shape of auto-assigned task ids; explicit ids that match it advance the
#: auto counter so journal replays stay on the live run's id trajectory.
_AUTO_ID_PATTERN = re.compile(r"t(\d+)")


def _factories(name: str) -> "tuple[type[OnlinePolicy], type[BatchPolicy]]":
    try:
        return _POLICY_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {', '.join(POLICY_NAMES)}"
        ) from None


def make_policy(name: str) -> OnlinePolicy:
    """Instantiate the live engine's policy from its wire name (see POLICY_NAMES)."""
    return _factories(name)[0]()


def make_batch_policy(name: str) -> BatchPolicy:
    """Instantiate the batched policy of a wire name, for ``simulate`` requests."""
    return _factories(name)[1]()


class _LastAllocation(OnlinePolicy):
    """One-entry memo of a memoryless policy's most recent allocation.

    Returns the previous rates when the active task ids, weights and caps
    equal (by value) those of the last call; otherwise asks the wrapped
    policy and remembers the answer.  Exact for a fixed ``P`` and for
    policies whose shares ignore ``work_done`` and ``elapsed`` (all of
    :data:`POLICY_NAMES`).  A hit hands back the same array, so callers
    must treat the rates as read-only (the engine does).  The hits are a
    query's share reply and the engine's first step after a pause; at a
    thousand live tasks they cut a query's cost from ~350 to ~130 us
    (2-CPU x86_64 host).
    """

    def __init__(self, policy: OnlinePolicy):
        self.policy = policy
        self.name = policy.name
        self._key: "tuple[bytes, bytes, bytes] | None" = None
        self._rates = np.zeros(0)

    def allocate(self, P, task_ids, weights, deltas, work_done, elapsed):
        key = (task_ids.tobytes(), weights.tobytes(), deltas.tobytes())
        if key != self._key:
            self._rates = self.policy.allocate(P, task_ids, weights, deltas, work_done, elapsed)
            self._key = key
        return self._rates


class UnknownTaskError(KeyError):
    """The referenced task id was never submitted (or pre-dates a restart)."""


class DuplicateTaskError(ValueError):
    """A submission reused a task id that already exists."""


@dataclass
class TaskRecord:
    """Bookkeeping for one submitted task.

    ``status`` walks ``running -> completed | cancelled``; ``slot`` is the
    task's current index in the engine arrays (rewritten by compaction,
    ``-1`` once the slot was dropped).
    """

    task_id: str
    slot: int
    volume: float
    weight: float
    delta: float
    submit_time: float
    status: str = "running"
    completion_time: "float | None" = None


class LiveSystemState:
    """One malleable-task system evolving in virtual time.

    Parameters
    ----------
    P:
        Platform size (number of processors).
    policy:
        Wire name of the allocation policy (``wdeq``, ``deq``,
        ``fair-share``).
    atol:
        Completion-detection tolerance, forwarded to the engine.
    """

    def __init__(self, P: float, policy: str = "wdeq", atol: float = 1e-10):
        if P <= 0:
            raise ValueError(f"P must be positive, got {P}")
        self.P = float(P)
        self.policy_name = policy
        self._policy = make_policy(policy)
        self.policy: OnlinePolicy = _LastAllocation(self._policy)
        self.atol = float(atol)
        self.records: "dict[str, TaskRecord]" = {}
        self._running: "set[str]" = set()
        self._slot_task: "list[str]" = []  # task id per used slot, in order
        # Live-by-slot bitmap: completion detection diffs this against the
        # engine's `completed` in one vector op instead of a Python loop
        # over every running task (the difference between O(1) and O(live)
        # per request at a thousand live tasks).
        self._live_slots = np.zeros(_MIN_CAPACITY, dtype=bool)
        self.submitted = 0
        self.completed = 0
        self.cancelled = 0
        self._auto_id = 0
        self.state = self._blank_state(_MIN_CAPACITY)

    # ----------------------------------------------------------------- #
    # Array plumbing
    # ----------------------------------------------------------------- #

    def _blank_state(self, capacity: int) -> SimulationState:
        """A state of ``capacity`` inert (completed, released) slots."""
        return SimulationState(
            P=self.P,
            volumes=np.zeros(capacity),
            weights=np.zeros(capacity),
            deltas=np.ones(capacity),
            releases=np.zeros(capacity),
            atol=self.atol,
            t=0.0,
            remaining=np.zeros(capacity),
            work_done=np.zeros(capacity),
            completed=np.ones(capacity, dtype=bool),
            released=np.ones(capacity, dtype=bool),
            completion_times=np.zeros(capacity),
            finish_tol=np.full(capacity, self.atol),
        )

    @property
    def capacity(self) -> int:
        """Current width of the task axis."""
        return int(self.state.remaining.size)

    @property
    def used_slots(self) -> int:
        """Number of occupied slots (live or dead, pre-compaction)."""
        return len(self._slot_task)

    @property
    def live_count(self) -> int:
        """Number of tasks currently running (submitted, not finished)."""
        return len(self._running)

    @property
    def now(self) -> float:
        """The current virtual time of the system."""
        return self.state.t

    @property
    def total_events(self) -> int:
        """Engine events processed since the service started."""
        return self.state.num_events

    #: Per-slot engine arrays, in the order :meth:`to_snapshot` writes them
    #: after the task parameters.
    _TASK_ARRAYS = ("volumes", "weights", "deltas")
    _SNAPSHOT_ARRAYS = (
        "releases",
        "remaining",
        "work_done",
        "completed",
        "released",
        "completion_times",
        "finish_tol",
    )

    def _copy_columns(self, capacity: int, keep: "np.ndarray | None" = None) -> None:
        """Re-home the state into fresh arrays of width ``capacity``.

        ``keep`` selects the slots to carry over (default: all used slots);
        dropped slots must already be inert (completed).
        """
        old = self.state
        if keep is None:
            keep = np.arange(self.used_slots)
        n = len(keep)
        new = self._blank_state(capacity)
        for name in self._TASK_ARRAYS + self._SNAPSHOT_ARRAYS:
            getattr(new, name)[:n] = getattr(old, name)[keep]
        new.t = old.t
        new.num_events = old.num_events
        self.state = new
        live = np.zeros(capacity, dtype=bool)
        live[:n] = self._live_slots[keep]
        self._live_slots = live
        kept_ids = [self._slot_task[int(s)] for s in keep]
        self._slot_task = kept_ids
        for slot, task_id in enumerate(kept_ids):
            self.records[task_id].slot = slot

    def compact(self) -> int:
        """Drop dead (completed/cancelled) slots; returns how many.

        Inert slots receive no processors and trigger no events, so the
        trajectory is unchanged; the dropped tasks' records keep their
        completion times with ``slot = -1``.
        """
        used = self.used_slots
        dead = self.state.completed[:used]
        keep = np.flatnonzero(~dead)
        dropped = used - len(keep)
        if dropped == 0:
            return 0
        for slot in np.flatnonzero(dead).tolist():
            self.records[self._slot_task[slot]].slot = -1
        self._copy_columns(max(_MIN_CAPACITY, 2 * len(keep)), keep)
        return dropped

    def _next_slot(self) -> int:
        used = self.used_slots
        dead = used - self.live_count
        if dead > _MIN_CAPACITY and dead > 2 * self.live_count:
            self.compact()
            used = self.used_slots
        if used == self.capacity:
            self._copy_columns(2 * self.capacity)
        return used

    # ----------------------------------------------------------------- #
    # Time
    # ----------------------------------------------------------------- #

    def advance_to(self, now: float) -> float:
        """Advance the simulation up to ``now`` (clamped monotonic).

        Returns the effective time: ``max(now, current clock)``.  The clock
        itself may stay behind ``now`` when the system is idle — the next
        release will pull it forward, which is what prevents phantom work.
        """
        now = max(float(now), self.state.t)
        advance_simulation_state(self.state, self.policy, until=now)
        self._sync_completions()
        return now

    def _sync_completions(self) -> None:
        newly = self._live_slots & self.state.completed
        if not newly.any():
            return
        times = self.state.completion_times
        for slot in np.flatnonzero(newly).tolist():
            record = self.records[self._slot_task[slot]]
            record.status = "completed"
            record.completion_time = float(times[slot])
            self._running.discard(record.task_id)
            self.completed += 1
        self._live_slots[newly] = False

    # ----------------------------------------------------------------- #
    # Operations
    # ----------------------------------------------------------------- #

    def submit(
        self,
        volume: float,
        weight: float = 1.0,
        delta: float = 1.0,
        now: float = 0.0,
        task_id: "str | None" = None,
    ) -> TaskRecord:
        """Add a task at virtual time ``now`` and return its record.

        ``delta`` is clamped to the platform size.  Raises ``ValueError``
        on non-positive parameters and :class:`DuplicateTaskError` on a
        reused id.
        """
        volume, weight, delta = float(volume), float(weight), float(delta)
        if volume <= 0:
            raise ValueError(f"volume must be positive, got {volume}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        delta = min(delta, self.P)
        if task_id is None:
            # Skip over ids already taken — auto ids must never collide with
            # explicitly-submitted "tN" ids.
            while f"t{self._auto_id}" in self.records:
                self._auto_id += 1
            task_id = f"t{self._auto_id}"
            self._auto_id += 1
        else:
            # Explicit canonical ids advance the counter exactly as the
            # auto-assigned path would have.  This keeps a journal replay
            # (which re-submits with the originally assigned ids) on the
            # same id trajectory as the live run it reconstructs.
            match = _AUTO_ID_PATTERN.fullmatch(task_id)
            if match is not None:
                self._auto_id = max(self._auto_id, int(match.group(1)) + 1)
        if task_id in self.records:
            raise DuplicateTaskError(f"task id {task_id!r} already exists")

        now = self.advance_to(now)
        slot = self._next_slot()
        state = self.state  # _next_slot may have re-homed the arrays
        state.volumes[slot] = volume
        state.weights[slot] = weight
        state.deltas[slot] = delta
        state.releases[slot] = now
        state.remaining[slot] = volume
        state.work_done[slot] = 0.0
        state.completion_times[slot] = 0.0
        state.completed[slot] = False
        state.finish_tol[slot] = self.atol * max(1.0, volume)
        # Matches the engine's release rule: due releases fire in the same
        # step that reaches their time, so a submit while the clock already
        # sits at ``now`` must not cost an extra zero-dt event.
        state.released[slot] = now <= state.t + self.atol

        record = TaskRecord(
            task_id=task_id,
            slot=slot,
            volume=volume,
            weight=weight,
            delta=delta,
            submit_time=now,
        )
        self.records[task_id] = record
        self._slot_task.append(task_id)
        self._running.add(task_id)
        self._live_slots[slot] = True
        self.submitted += 1
        # An idle system's frozen clock still trails ``now``: advance again
        # to fire the release.  A clock already at ``now`` has nothing left
        # to do, so a busy submit costs one engine call.
        if state.t < now:
            self.advance_to(now)
        return record

    def cancel(self, task_id: str, now: float = 0.0) -> bool:
        """Cancel a task at ``now``; False when it already finished."""
        record = self.records.get(task_id)
        if record is None:
            raise UnknownTaskError(task_id)
        self.advance_to(now)
        if record.status != "running":
            return False
        state = self.state
        state.completed[record.slot] = True
        state.remaining[record.slot] = 0.0
        state.completion_times[record.slot] = state.t
        record.status = "cancelled"
        record.completion_time = state.t
        self._running.discard(task_id)
        self._live_slots[record.slot] = False
        self.cancelled += 1
        return True

    def share_of(self, task_id: str, now: "float | None" = None) -> float:
        """The processor share ``task_id`` receives at ``now``."""
        record = self.records.get(task_id)
        if record is None:
            raise UnknownTaskError(task_id)
        if now is not None:
            self.advance_to(now)
        if record.status != "running":
            return 0.0
        ids, rates = current_allocation(self.state, self.policy)
        position = int(np.searchsorted(ids, record.slot))
        if position < ids.size and ids[position] == record.slot:
            return float(rates[position])
        return 0.0

    def remaining_of(self, task_id: str) -> float:
        """Work left on ``task_id`` (0.0 once finished)."""
        record = self.records.get(task_id)
        if record is None:
            raise UnknownTaskError(task_id)
        if record.status != "running":
            return 0.0
        return float(self.state.remaining[record.slot])

    def project_completion(self, task_id: str) -> "float | None":
        """What-if: when would ``task_id`` finish if no more tasks arrive?

        Clones the live state and runs the clone to completion under the
        current policy; the live system is untouched.  Returns the task's
        actual completion time when it already finished.
        """
        record = self.records.get(task_id)
        if record is None:
            raise UnknownTaskError(task_id)
        if record.status != "running":
            return record.completion_time
        ghost = self.state.clone()
        # Pending releases in the clone fire on their own; run to the end.
        # The unwrapped policy keeps the what-if run out of the live memo.
        advance_simulation_state(ghost, self._policy)
        return float(ghost.completion_times[record.slot])

    def snapshot(self) -> "dict[str, float | int]":
        """Aggregate counters for :class:`repro.api.StateReply`."""
        return {
            "now": self.now,
            "live_tasks": self.live_count,
            "submitted": self.submitted,
            "completed": self.completed,
            "cancelled": self.cancelled,
        }

    # ----------------------------------------------------------------- #
    # Durability (repro.service.journal)
    # ----------------------------------------------------------------- #

    def to_snapshot(self) -> "dict[str, Any]":
        """The full live system as one JSON-representable mapping.

        Everything needed to resume is captured — task records, counters,
        the engine arrays of every *used* slot, the virtual clock and the
        event count.  Floats survive the JSON round trip bit-exactly
        (``repr`` round-trips IEEE doubles), so a restored system is not
        merely tolerance-close but identical; the differential tests in
        ``tests/test_journal.py`` pin that.
        """
        used = self.used_slots
        state = self.state
        return {
            "P": self.P,
            "policy": self.policy_name,
            "atol": self.atol,
            "t": self.now,
            "num_events": self.total_events,
            "auto_id": self._auto_id,
            "submitted": self.submitted,
            "completed_count": self.completed,
            "cancelled_count": self.cancelled,
            "slot_task": list(self._slot_task),
            "live_slots": self._live_slots[:used].astype(int).tolist(),
            "batch": {name: getattr(state, name)[:used].tolist() for name in self._TASK_ARRAYS},
            "arrays": {
                name: getattr(state, name)[:used].astype(float).tolist()
                for name in self._SNAPSHOT_ARRAYS
            },
            "records": [dict(vars(record)) for record in self.records.values()],
        }

    @classmethod
    def from_snapshot(cls, payload: "dict[str, Any]") -> "LiveSystemState":
        """Rebuild a live system from :meth:`to_snapshot` output.

        The restored system continues exactly where the snapshot was taken:
        same virtual clock, same event count, same per-slot engine state —
        advancing it produces the same trajectory the original would have.
        """
        live = cls(
            P=float(payload["P"]),
            policy=str(payload["policy"]),
            atol=float(payload["atol"]),
        )
        slot_task = [str(task_id) for task_id in payload["slot_task"]]
        used = len(slot_task)
        capacity = _MIN_CAPACITY
        while capacity < used:
            capacity *= 2
        state = live._blank_state(capacity)
        for name in cls._TASK_ARRAYS:
            getattr(state, name)[:used] = payload["batch"][name]
        for name in cls._SNAPSHOT_ARRAYS:
            target = getattr(state, name)
            target[:used] = np.asarray(payload["arrays"][name], dtype=float).astype(target.dtype)
        state.t = float(payload["t"])
        state.num_events = int(payload["num_events"])
        live.state = state
        live._slot_task = slot_task
        live._live_slots = np.zeros(capacity, dtype=bool)
        live._live_slots[:used] = np.asarray(payload["live_slots"], dtype=bool)
        live.records = {}
        live._running = set()
        for fields in payload["records"]:
            record = TaskRecord(**fields)
            live.records[record.task_id] = record
            if record.status == "running":
                live._running.add(record.task_id)
        live._auto_id = int(payload["auto_id"])
        live.submitted = int(payload["submitted"])
        live.completed = int(payload["completed_count"])
        live.cancelled = int(payload["cancelled_count"])
        return live
