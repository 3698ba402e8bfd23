"""Discrete-event simulation engine for online malleable-task scheduling.

The engine owns the ground truth (task volumes, release times) and the
policy only sees the public columns of the active tasks (ids, weights,
caps, work done, elapsed time), so a policy implemented against this engine
is non-clairvoyant by construction.

Events are processed in chronological order; between events the allocation
is constant, so the whole execution is reconstructed exactly (no time
discretisation error) and returned as a
:class:`~repro.core.schedule.ContinuousSchedule`.

The loop lives in :func:`advance_simulation_state`, which mutates one
:class:`SimulationState` and can pause at a time horizon; :func:`simulate`
is :func:`init_simulation_state` plus one unbounded advance.  The online
scheduling service (:mod:`repro.service.state`) drives the same state
incrementally, advancing from the current virtual time on every request.
The event rules are those of the batched lockstep engine
(:func:`repro.batch.sim_kernels.advance_simulation_state`) for one row:
the same tolerances, release handling, forced-completion rescue and
validation, so the two engines agree event for event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.core.exceptions import SimulationError
from repro.core.instance import Instance
from repro.core.schedule import ContinuousSchedule
from repro.simulation.events import (
    CompletionEvent,
    ReleaseEvent,
    ReshareEvent,
    SimulationTrace,
)
from repro.simulation.policies import OnlinePolicy

__all__ = [
    "SimulationResult",
    "SimulationState",
    "init_simulation_state",
    "advance_simulation_state",
    "current_allocation",
    "simulate",
]


@dataclass
class SimulationResult:
    """Everything produced by one simulation run.

    Attributes
    ----------
    instance:
        The simulated instance.
    policy_name:
        Name of the policy that was run.
    schedule:
        Exact piecewise-constant schedule executed by the policy.
    completion_times:
        Completion times indexed by task.
    trace:
        Chronological event trace (reshares, releases, completions).
    """

    instance: Instance
    policy_name: str
    schedule: ContinuousSchedule
    completion_times: np.ndarray
    trace: SimulationTrace

    def weighted_completion_time(self) -> float:
        """The objective ``sum_i w_i C_i`` achieved by the policy."""
        return float(np.dot(self.instance.weights, self.completion_times))

    def makespan(self) -> float:
        """Latest completion time."""
        return float(self.completion_times.max()) if self.completion_times.size else 0.0


@dataclass
class SimulationState:
    """The full resumable state of one online execution.

    Every array has one entry per task slot.  A slot that is ``completed``
    and ``released`` is inert: it receives no processors and triggers no
    event, which is how :mod:`repro.service.state` keeps spare capacity at
    the end of its arrays.  The state is *mutable by design*: the service
    writes new tasks into free slots between advances, and :meth:`clone`
    provides the copy used for what-if projections.

    Invariant: pausing and resuming never changes the trajectory.  Between
    events the allocation is constant, and every built-in policy is
    memoryless (its decision depends only on the active set, weights and
    caps), so recomputing the allocation after a pause reproduces the same
    rates.

    ``trace`` and ``intervals`` record the run when set (as
    :func:`init_simulation_state` does; the service leaves them ``None``):
    the event trace, and one ``(end time, task ids, rates)`` entry per step
    for the schedule reconstruction.
    """

    P: float
    volumes: np.ndarray
    weights: np.ndarray
    deltas: np.ndarray
    releases: np.ndarray
    atol: float
    t: float
    remaining: np.ndarray
    work_done: np.ndarray
    completed: np.ndarray
    released: np.ndarray
    completion_times: np.ndarray
    finish_tol: np.ndarray
    num_events: int = 0
    trace: "SimulationTrace | None" = None
    intervals: "list[tuple[float, np.ndarray, np.ndarray]] | None" = None

    def clone(self) -> "SimulationState":
        """Deep copy of the arrays, without the recorders."""
        copy = replace(self, trace=None, intervals=None)
        for name in _SLOT_ARRAYS:
            setattr(copy, name, getattr(self, name).copy())
        return copy


#: The per-slot arrays of a :class:`SimulationState`.
_SLOT_ARRAYS = (
    "volumes",
    "weights",
    "deltas",
    "releases",
    "remaining",
    "work_done",
    "completed",
    "released",
    "completion_times",
    "finish_tol",
)


def init_simulation_state(
    instance: Instance,
    release_times: Sequence[float] | None = None,
    atol: float = 1e-10,
) -> SimulationState:
    """Build the ``t = 0`` state of ``instance`` for :func:`advance_simulation_state`.

    The state records its run: it carries a trace, with the time-zero
    release events already in it, and an empty interval log (see
    :class:`SimulationState`).
    """
    n = instance.n
    if release_times is None:
        releases = np.zeros(n)
    else:
        releases = np.array(release_times, dtype=float)
        if releases.shape != (n,):
            raise SimulationError(f"expected {n} release times, got shape {releases.shape}")
        if np.any(releases < 0):
            raise SimulationError("release times must be non-negative")
    volumes = instance.volumes.astype(float)
    released = releases <= atol
    trace = SimulationTrace()
    for task in np.flatnonzero(released).tolist():
        trace.record_release(ReleaseEvent(time=0.0, task=task))
    return SimulationState(
        P=float(instance.P),
        volumes=volumes,
        weights=instance.weights.astype(float),
        deltas=instance.deltas.astype(float),
        releases=releases,
        atol=atol,
        t=0.0,
        remaining=volumes.copy(),
        work_done=np.zeros(n),
        completed=np.zeros(n, dtype=bool),
        released=released,
        completion_times=np.zeros(n),
        finish_tol=atol * np.maximum(1.0, volumes),
        trace=trace,
        intervals=[],
    )


#: Read-only empty index and rate arrays for steps without pending or active tasks.
_NO_IDS = np.zeros(0, dtype=np.intp)
_NO_RATES = np.zeros(0)
_NO_IDS.setflags(write=False)
_NO_RATES.setflags(write=False)


def _rates(state: SimulationState, policy: OnlinePolicy, ids: np.ndarray, t: float) -> np.ndarray:
    """The validated rates ``policy`` grants the active tasks ``ids`` at ``t``."""
    deltas = state.deltas[ids]
    raw = np.asarray(
        policy.allocate(
            state.P, ids, state.weights[ids], deltas, state.work_done[ids], t - state.releases[ids]
        ),
        dtype=float,
    )
    if raw.shape != ids.shape:
        raise SimulationError(
            f"policy {policy.name!r} returned {raw.shape} rates for {ids.size} active tasks"
        )
    negative = raw < -state.atol
    if negative.any():
        raise SimulationError(
            f"policy {policy.name!r} returned a negative rate for task {int(ids[negative.argmax()])}"
        )
    rates = np.minimum(np.maximum(raw, 0.0), deltas)
    total = float(rates.sum())
    if total > state.P * (1 + 1e-9) + state.atol:
        raise SimulationError(
            f"policy {policy.name!r} over-subscribed the platform: {total} > P={state.P}"
        )
    return rates


def current_allocation(
    state: SimulationState, policy: OnlinePolicy
) -> "tuple[np.ndarray, np.ndarray]":
    """The ascending ids of the active tasks and their validated rates at ``state.t``."""
    ids = (state.released & ~state.completed).nonzero()[0]
    if not ids.size:
        return ids, _NO_RATES
    return ids, _rates(state, policy, ids, state.t)


def advance_simulation_state(
    state: SimulationState,
    policy: OnlinePolicy,
    until: "float | None" = None,
    max_events: int | None = None,
) -> SimulationState:
    """Advance ``state`` under ``policy``, in place.

    Parameters
    ----------
    state:
        The state to advance (mutated and returned).
    policy:
        The non-clairvoyant policy deciding the shares.
    until:
        Optional time horizon: the state advances through its events until
        every task completed *or* its clock reaches the horizon, whichever
        comes first, and a later call resumes from exactly there.  ``None``
        (the default) runs to completion.
    max_events:
        Safety bound on the number of events *of this call*; default
        ``8 n + 16`` for ``n`` task slots.

    Raises
    ------
    SimulationError
        If the policy over-subscribes the platform, returns a negative rate,
        stalls (an active task set makes no progress with no release pending
        and no finite horizon to pause at), or the event bound is hit.
    """
    if max_events is None:
        max_events = 8 * state.remaining.size + 16
    horizon = math.inf if until is None else float(until)
    atol = state.atol
    releases, remaining, work_done = state.releases, state.remaining, state.work_done
    completed, released = state.completed, state.released
    trace, intervals = state.trace, state.intervals
    t = state.t
    events = 0
    while t < horizon and not completed.all():
        events += 1
        if events > max_events:
            raise SimulationError(
                f"simulation exceeded {max_events} events; the policy is likely stalling"
            )
        ids = (released & ~completed).nonzero()[0]
        pending = _NO_IDS if released.all() else (~released).nonzero()[0]
        next_release = float(releases[pending].min()) if pending.size else math.inf
        dt_release = next_release - t
        if ids.size:
            rates = _rates(state, policy, ids, t)
            left = remaining[ids]
            finish_in = np.divide(
                left, rates, out=np.full(ids.size, math.inf), where=rates > atol
            )
            dt_completion = float(finish_in.min())
            if not math.isfinite(min(dt_completion, dt_release, horizon - t)):
                raise SimulationError(
                    f"policy {policy.name!r} stalled: no active task receives processors"
                )
            if trace is not None:
                trace.record_reshare(
                    ReshareEvent(time=t, allocation=dict(zip(ids.tolist(), rates.tolist())))
                )
        else:
            rates = _NO_RATES
            dt_completion = math.inf
        dt_event = min(dt_completion, dt_release)
        # The event and the horizon are compared as times, not durations: a
        # pause at an event time then takes that event's own step, so the
        # resumed run stays on the one-shot run's trajectory bit for bit.
        reaches_event = t + dt_event <= horizon
        dt = max(dt_event if reaches_event else horizon - t, 0.0)

        state.num_events += 1
        t += dt
        state.t = t
        if intervals is not None:
            intervals.append((t, ids, rates))
        if ids.size:
            progressed = rates * dt
            work_done[ids] += progressed
            left = np.maximum(left - progressed, 0.0)
            remaining[ids] = left
            done = left <= state.finish_tol[ids]
            if not done.any() and dt_completion <= dt_release and reaches_event:
                # Numerical corner case: the completion was due before the
                # next release and the horizon but no task crossed the
                # tolerance, so the task closest to completion is forced out.
                winner = int(finish_in.argmin())
                done[winner] = True
                remaining[ids[winner]] = 0.0
            finished = ids[done]
            state.completion_times[finished] = t
            completed[finished] = True
            if trace is not None:
                for task in finished.tolist():
                    trace.record_completion(CompletionEvent(time=t, task=task))
        if pending.size:
            due = pending[releases[pending] <= t + atol]
            released[due] = True
            if trace is not None:
                for task in due.tolist():
                    trace.record_release(ReleaseEvent(time=float(releases[task]), task=task))
    return state


def simulate(
    instance: Instance,
    policy: OnlinePolicy,
    release_times: Sequence[float] | None = None,
    atol: float = 1e-10,
    max_events: int | None = None,
) -> SimulationResult:
    """Run an online policy on an instance.

    Parameters
    ----------
    instance:
        The instance to execute.
    policy:
        The non-clairvoyant policy deciding the shares.
    release_times:
        Optional release time per task (default: all zero, the setting of the
        paper).  Tasks are revealed to the policy only once released.
    atol:
        Numerical tolerance for completion detection.
    max_events:
        Safety bound on the number of processed events (default ``8 n + 16``).

    Raises
    ------
    SimulationError
        If the policy over-subscribes the platform, stalls (no active task
        makes progress and no release is pending), or the event bound is hit.
    """
    state = init_simulation_state(instance, release_times, atol=atol)
    advance_simulation_state(state, policy, max_events=max_events)
    assert state.trace is not None and state.intervals is not None
    return SimulationResult(
        instance=instance,
        policy_name=policy.name,
        schedule=_build_schedule(instance, state.intervals),
        completion_times=state.completion_times,
        trace=state.trace,
    )


def _build_schedule(
    instance: Instance, intervals: "list[tuple[float, np.ndarray, np.ndarray]]"
) -> ContinuousSchedule:
    """Assemble the recorded intervals into a ContinuousSchedule."""
    # Drop zero-length intervals created by simultaneous events.
    clean_bp = [0.0]
    clean_rates: list[np.ndarray] = []
    for end, ids, rates in intervals:
        if end - clean_bp[-1] > 1e-15:
            clean_bp.append(end)
            column = np.zeros(instance.n)
            column[ids] = rates
            clean_rates.append(column)
    if not clean_rates:
        return ContinuousSchedule(instance, [0.0, 1.0], np.zeros((instance.n, 1)))
    return ContinuousSchedule(instance, clean_bp, np.column_stack(clean_rates))
