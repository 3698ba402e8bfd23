"""Vectorized discrete-event simulation over padded instance batches.

This is the batched counterpart of :func:`repro.simulation.engine.simulate`:
``B`` independent online executions advance *in lockstep* — every iteration
of the kernel processes the next chronological event of every still-running
row (a completion, a release, or an idle gap before the first release), with
all per-row arithmetic expressed as ``(B, n_max)`` NumPy operations.  Rows
finish independently; finished rows simply stop changing while the rest of
the batch continues, so the iteration count of the whole batch is the
maximum event count of any single row rather than the sum.

Semantics are kept identical to the scalar engine (same tolerances, same
completion-detection rescue path, same release handling), and the policies in
this module replicate the decisions of their scalar counterparts in
:mod:`repro.simulation.policies` up to float rounding; the
property tests in ``tests/test_sim_batch.py`` assert that completion times
*and* event traces agree with the scalar engine on random instances,
policies and release patterns.

What the batched kernel does **not** build is the piecewise-constant
:class:`~repro.core.schedule.ContinuousSchedule` object — callers that need
the full schedule reconstruction (Gantt charts, schedule validation) use the
scalar engine; the batch path is for sweeps where only completion times,
objectives and event counts matter.

Examples
--------
>>> import numpy as np
>>> from repro.batch.sim_kernels import WdeqBatchPolicy, simulate_batch
>>> from repro.core.batch import InstanceBatch
>>> from repro.workloads.generators import cluster_instances
>>> batch = InstanceBatch.from_instances(
...     cluster_instances(8, 16, rng=np.random.default_rng(0)))
>>> result = simulate_batch(batch, WdeqBatchPolicy())
>>> result.completion_times.shape
(16, 8)
>>> result.weighted_completion_times().shape
(16,)
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.batch.kernels import _row_sums, combined_lower_bound_batch
from repro.core.batch import InstanceBatch
from repro.core.exceptions import InvalidInstanceError, SimulationError
from repro.simulation.events import (
    CompletionEvent,
    ReleaseEvent,
    ReshareEvent,
    SimulationTrace,
)

__all__ = [
    "BatchPolicy",
    "WdeqBatchPolicy",
    "DeqBatchPolicy",
    "FairShareNoCapBatchPolicy",
    "PriorityBatchPolicy",
    "BatchSimulationState",
    "BatchSimulationResult",
    "init_simulation_state",
    "advance_simulation_state",
    "simulate_batch",
    "default_batch_policies",
    "policy_ratios_batch",
]


# --------------------------------------------------------------------- #
# Batched online policies
# --------------------------------------------------------------------- #


class BatchPolicy(abc.ABC):
    """A non-clairvoyant allocation policy over a whole batch of rows.

    The batched analogue of
    :class:`~repro.simulation.policies.OnlinePolicy`: instead of the active
    tasks' columns of one instance, the policy sees the public task
    parameters of every row as ``(B, n_max)`` arrays plus the ``active``
    mask, and returns the processor shares for every active task at once.
    Like the scalar policies it never sees the volumes, so it is
    non-clairvoyant by construction.
    """

    #: Human-readable name; matches the scalar policy it replicates.
    name: str = "policy"

    @abc.abstractmethod
    def allocate(
        self,
        P: np.ndarray,
        weights: np.ndarray,
        deltas: np.ndarray,
        work_done: np.ndarray,
        elapsed: np.ndarray,
        active: np.ndarray,
    ) -> np.ndarray:
        """Share ``P[b]`` processors among the active tasks of every row.

        Must return a ``(B, n_max)`` array with ``0 <= rate <= delta`` on
        active slots and anything (ignored) elsewhere; totals per row must
        not exceed ``P[b]``.  The engine validates this and raises
        :class:`~repro.core.exceptions.SimulationError` on violation.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def _wdeq_allocation_batch(
    P: np.ndarray,
    weights: np.ndarray,
    deltas: np.ndarray,
    active: np.ndarray,
    atol: float,
) -> np.ndarray:
    """Algorithm 1 (the WDEQ sharing rule) applied to every row at once.

    Computes the fixed point of the closed-form
    :func:`repro.algorithms.wdeq.wdeq_allocation` by rounds, as Algorithm 1
    is written: repeatedly clamp every active task whose proportional share
    exceeds its cap, then share the remaining capacity proportionally.  The
    two agree to rounding, except where several tasks weigh about ``atol``
    (see there).  Each pass either settles a row
    (no task capped: the proportional shares are final) or clamps at least
    one task in every unsettled row, so ``n_max + 1`` passes suffice for the
    whole batch.
    """
    B, N = weights.shape
    alloc = np.zeros((B, N))
    act = active.copy()
    rem_P = np.asarray(P, dtype=float).copy()
    rem_W = _row_sums(np.where(act, weights, 0.0))
    for _ in range(N + 1):
        # A row that stops being live never becomes live again (the
        # remaining weight and capacity only shrink), so its tasks leave
        # ``act`` for good.
        act &= ((rem_W > atol) & (rem_P > atol))[:, None]
        live = act.any(axis=1)
        if not live.any():
            break
        shares = weights * (rem_P / np.where(live, rem_W, 1.0))[:, None]
        capped = act & (deltas < shares - atol)
        capped_rows = capped.any(axis=1)
        # Rows without a capped task settle: their proportional shares are final.
        np.copyto(alloc, shares, where=act & ~capped_rows[:, None])
        if not capped_rows.any():
            break
        np.copyto(alloc, deltas, where=capped)
        rem_P -= _row_sums(np.where(capped, deltas, 0.0))
        rem_W -= _row_sums(np.where(capped, weights, 0.0))
        np.maximum(rem_P, 0.0, out=rem_P)
        act &= ~capped & capped_rows[:, None]
    return alloc


class WdeqBatchPolicy(BatchPolicy):
    """Batched Weighted Dynamic EQuipartition (Algorithm 1 of the paper)."""

    name = "WDEQ"

    def __init__(self, atol: float = 1e-12):
        self.atol = atol

    def allocate(self, P, weights, deltas, work_done, elapsed, active):
        if np.any(active & (weights <= 0)):
            raise InvalidInstanceError("WDEQ requires strictly positive weights")
        return _wdeq_allocation_batch(P, weights, deltas, active, self.atol)


class DeqBatchPolicy(BatchPolicy):
    """Batched Dynamic EQuipartition: WDEQ with the weights ignored."""

    name = "DEQ"

    def __init__(self, atol: float = 1e-12):
        self.atol = atol

    def allocate(self, P, weights, deltas, work_done, elapsed, active):
        return _wdeq_allocation_batch(P, np.ones_like(weights), deltas, active, self.atol)


class FairShareNoCapBatchPolicy(BatchPolicy):
    """Batched weighted fair sharing that ignores the per-task caps.

    As in the scalar policy, shares that exceed a cap are clamped by the
    engine and the excess capacity stays idle — the degradation the caps
    model.
    """

    name = "WRR (no cap)"

    def allocate(self, P, weights, deltas, work_done, elapsed, active):
        total = _row_sums(np.where(active, weights, 0.0))
        if np.any(active.any(axis=1) & (total <= 0)):
            raise SimulationError("FairShareNoCapBatchPolicy requires positive weights")
        shares = weights * np.where(total > 0, P / np.where(total > 0, total, 1.0), 0.0)[:, None]
        return np.minimum(deltas, shares)


class PriorityBatchPolicy(BatchPolicy):
    """Serve tasks of every row in a fixed priority order, each at its cap.

    Replicates :class:`~repro.simulation.policies.PriorityPolicy` including
    its tie-break (equal priorities are served by ascending task index): the
    highest-priority active task gets ``min(delta, P)``, the next one what is
    left, and so on.
    """

    def __init__(self, priorities: np.ndarray | Sequence[Sequence[float]], name: str = "priority"):
        #: priorities[b, task] — larger value is served first within row b.
        self.priorities = np.asarray(priorities, dtype=float)
        self.name = name

    def allocate(self, P, weights, deltas, work_done, elapsed, active):
        B, N = weights.shape
        prio = np.broadcast_to(self.priorities, (B, N))
        # Inactive tasks sort last; ties by ascending task index (stable sort
        # on the negated priority), exactly as the scalar policy's sorted().
        key = np.where(active, -prio, np.inf)
        order = np.argsort(key, axis=1, kind="stable")
        deltas_sorted = np.take_along_axis(np.where(active, deltas, 0.0), order, axis=1)
        before = np.cumsum(deltas_sorted, axis=1) - deltas_sorted
        shares_sorted = np.clip(P[:, None] - before, 0.0, deltas_sorted)
        rates = np.zeros((B, N))
        np.put_along_axis(rates, order, shares_sorted, axis=1)
        return rates


def default_batch_policies(batch: InstanceBatch) -> list[BatchPolicy]:
    """The standard policy line-up, batched.

    Mirrors :func:`repro.simulation.nonclairvoyant.default_policies`: WDEQ,
    DEQ, the cap-less weighted fair share, and a Smith-priority policy whose
    per-row priorities are derived from the (clairvoyant) Smith ratios
    exactly as in the scalar helper.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(batch.weights > 0, batch.volumes / np.where(batch.weights > 0, batch.weights, 1.0), np.inf)
    finite = batch.mask & np.isfinite(ratios)
    row_max = np.where(finite, ratios, -np.inf).max(axis=1)
    priorities = np.where(finite & (row_max[:, None] > -np.inf), row_max[:, None] - ratios, 0.0)
    return [
        WdeqBatchPolicy(),
        DeqBatchPolicy(),
        FairShareNoCapBatchPolicy(),
        PriorityBatchPolicy(priorities=priorities, name="Smith priority"),
    ]


# --------------------------------------------------------------------- #
# The lockstep engine
# --------------------------------------------------------------------- #


@dataclass
class BatchSimulationResult:
    """Everything the batched simulation produces.

    Attributes
    ----------
    batch:
        The simulated batch.
    policy_name:
        Name of the policy that was run.
    completion_times:
        ``(B, n_max)`` completion time of every task (zero on padding slots).
    num_events:
        ``(B,)`` number of events each row processed (reshare decisions plus
        idle advances), matching the scalar engine's event count.
    traces:
        One :class:`~repro.simulation.events.SimulationTrace` per row when
        the simulation ran with ``record_trace=True``, else ``None``.
    """

    batch: InstanceBatch
    policy_name: str
    completion_times: np.ndarray
    num_events: np.ndarray
    traces: list[SimulationTrace] | None = None

    def weighted_completion_times(self) -> np.ndarray:
        """The objective ``sum_i w_i C_i`` of every row, shape ``(B,)``."""
        return _row_sums(np.where(self.batch.mask, self.batch.weights * self.completion_times, 0.0))

    def makespans(self) -> np.ndarray:
        """Latest completion time of every row, shape ``(B,)``."""
        return np.where(self.batch.mask, self.completion_times, 0.0).max(axis=1, initial=0.0)


@dataclass
class BatchSimulationState:
    """The full resumable state of a lockstep batched simulation.

    The loop body of :func:`simulate_batch` lives in
    :func:`advance_simulation_state`, which mutates one of these state
    objects and can *pause at a time horizon*, so a batch can be advanced
    in stages.  The online scheduling service runs one instance on the
    one-instance counterpart,
    :class:`repro.simulation.engine.SimulationState`, which follows the
    same event rules without a batch axis.

    All arrays follow the padded-batch convention of
    :class:`~repro.core.batch.InstanceBatch`.  The state is *mutable by
    design*, and :meth:`clone` provides a deep copy for what-if runs that
    must not disturb the original.

    Invariant: pausing and resuming never changes the trajectory.  Between
    events the allocation is constant, and every built-in policy is
    *memoryless* (its decision depends only on the active set, weights and
    caps), so recomputing the allocation after a pause reproduces the same
    rates — the differential tests in ``tests/test_sim_batch.py`` pin
    completion times (and, for pauses aligned with event boundaries, the
    full event trace) against the one-shot run.
    """

    batch: InstanceBatch
    releases: np.ndarray
    atol: float
    t: np.ndarray
    remaining: np.ndarray
    work_done: np.ndarray
    completed: np.ndarray
    released: np.ndarray
    completion_times: np.ndarray
    num_events: np.ndarray
    finish_tol: np.ndarray
    traces: list[SimulationTrace] | None = None

    def done_rows(self) -> np.ndarray:
        """Boolean ``(B,)``: rows whose every real task has completed."""
        return (self.completed | ~self.batch.mask).all(axis=1)

    def all_done(self) -> bool:
        """True when no row has outstanding work."""
        return bool(self.done_rows().all())

    def clone(self) -> "BatchSimulationState":
        """Deep copy (the batch itself is shared — kernels never mutate it)."""
        return BatchSimulationState(
            batch=self.batch,
            releases=self.releases.copy(),
            atol=self.atol,
            t=self.t.copy(),
            remaining=self.remaining.copy(),
            work_done=self.work_done.copy(),
            completed=self.completed.copy(),
            released=self.released.copy(),
            completion_times=self.completion_times.copy(),
            num_events=self.num_events.copy(),
            finish_tol=self.finish_tol.copy(),
            traces=None,
        )

    def result(self, policy_name: str) -> BatchSimulationResult:
        """Package the current state as a :class:`BatchSimulationResult`."""
        return BatchSimulationResult(
            batch=self.batch,
            policy_name=policy_name,
            completion_times=self.completion_times,
            num_events=self.num_events,
            traces=self.traces,
        )


def init_simulation_state(
    batch: InstanceBatch,
    release_times: np.ndarray | None = None,
    atol: float = 1e-10,
    record_trace: bool = False,
) -> BatchSimulationState:
    """Build the ``t = 0`` state for :func:`advance_simulation_state`.

    Validates the release times exactly as :func:`simulate_batch` always
    did and records the time-zero release events when tracing.
    """
    volumes, mask = batch.volumes, batch.mask
    B, N = volumes.shape
    if release_times is None:
        releases = np.zeros((B, N))
    else:
        releases = np.asarray(release_times, dtype=float)
        if releases.shape != (B, N):
            raise SimulationError(
                f"expected release times of shape {(B, N)}, got {releases.shape}"
            )
        if np.any(mask & (releases < 0)):
            raise SimulationError("release times must be non-negative")
        releases = np.where(mask, releases, 0.0)

    released = ~mask | (releases <= atol)
    traces: list[SimulationTrace] | None = None
    if record_trace:
        traces = [SimulationTrace() for _ in range(B)]
        for b, i in zip(*np.nonzero(mask & released)):
            traces[b].record_release(ReleaseEvent(time=0.0, task=int(i)))
    return BatchSimulationState(
        batch=batch,
        releases=releases,
        atol=atol,
        t=np.zeros(B),
        remaining=np.where(mask, volumes, 0.0),
        work_done=np.zeros((B, N), dtype=volumes.dtype),
        completed=~mask,  # padding slots never participate
        released=released,
        completion_times=np.zeros((B, N), dtype=volumes.dtype),
        num_events=np.zeros(B, dtype=int),
        finish_tol=atol * np.maximum(1.0, volumes),
        traces=traces,
    )


def advance_simulation_state(
    state: BatchSimulationState,
    policy: BatchPolicy,
    until: "np.ndarray | float | None" = None,
    max_events: int | None = None,
) -> BatchSimulationState:
    """Advance every live row of ``state`` under ``policy``, in place.

    Parameters
    ----------
    state:
        The state to advance (mutated and returned).
    policy:
        The batched non-clairvoyant policy deciding the shares.
    until:
        Optional time horizon — a scalar or ``(B,)`` array.  Rows advance
        through their events until completion *or* until their clock reaches
        the horizon, whichever comes first; a later call resumes from
        exactly where this one paused.  ``None`` (the default) runs every
        row to completion, which is the one-shot :func:`simulate_batch`
        behaviour.
    max_events:
        Safety bound on the number of lockstep iterations *of this call*
        (each iteration is one event of every live row); default
        ``8 n_max + 16``, the scalar per-instance bound.

    Raises
    ------
    SimulationError
        If the policy over-subscribes a row, returns a negative rate, stalls
        (an active task set makes no progress with no release pending and no
        finite horizon to pause at), or the event bound is hit.
    """
    batch = state.batch
    volumes, weights, deltas, mask = batch.volumes, batch.weights, batch.deltas, batch.mask
    B, N = volumes.shape
    atol = state.atol
    releases = state.releases
    remaining = state.remaining
    work_done = state.work_done
    completed = state.completed
    released = state.released
    completion_times = state.completion_times
    finish_tol = state.finish_tol
    t = state.t
    traces = state.traces
    record_trace = traces is not None
    if max_events is None:
        max_events = 8 * N + 16
    # Without a horizon, or once every task is released, the horizon and
    # release terms are infinite: they are skipped rather than computed.
    no_release = np.full(B, np.inf)
    if until is not None:
        horizon = np.broadcast_to(np.asarray(until, dtype=float), (B,))

    iterations = 0
    while True:
        live = ~(completed | ~mask).all(axis=1)
        if until is not None:
            live &= t < horizon
        if not live.any():
            break
        iterations += 1
        if iterations > max_events:
            raise SimulationError(
                f"batched simulation exceeded {max_events} events per row; "
                "the policy is likely stalling"
            )
        active = released & ~completed & mask & live[:, None]
        has_active = active.any(axis=1)
        releasing = not released.all()
        if releasing:
            pending = mask & ~released
            next_release = np.where(pending, releases, np.inf).min(axis=1)
            dt_release = np.where(np.isfinite(next_release), next_release - t, np.inf)
        else:
            dt_release = no_release

        raw = policy.allocate(batch.P, weights, deltas, work_done, t[:, None] - releases, active)
        if np.any(active & (raw < -atol)):
            b = int(np.nonzero((active & (raw < -atol)).any(axis=1))[0][0])
            raise SimulationError(
                f"policy {policy.name!r} returned a negative rate in batch row {b}"
            )
        rates = np.where(active, np.clip(raw, 0.0, deltas), 0.0)
        totals = _row_sums(rates)
        over = totals > batch.P * (1 + 1e-9) + atol
        if over.any():
            b = int(np.nonzero(over)[0][0])
            raise SimulationError(
                f"policy {policy.name!r} over-subscribed the platform in batch "
                f"row {b}: {totals[b]} > P={batch.P[b]}"
            )

        with np.errstate(divide="ignore", invalid="ignore"):
            finish_in = np.where(
                active & (rates > atol), remaining / np.maximum(rates, atol), np.inf
            )
        dt_completion = finish_in.min(axis=1)
        dt = np.minimum(dt_completion, dt_release)
        # Events and the horizon are compared as times, not durations: a
        # pause at an event time then takes that event's own step, so the
        # resumed run stays on the one-shot trajectory bit for bit.
        reaches_event = True
        if until is not None:
            reaches_event = t + dt <= horizon
            dt = np.where(reaches_event, dt, horizon - t)
        stalled = live & has_active & ~np.isfinite(dt)
        if stalled.any():
            b = int(np.nonzero(stalled)[0][0])
            raise SimulationError(
                f"policy {policy.name!r} stalled in batch row {b}: "
                "no active task receives processors"
            )
        dt = np.where(live, np.maximum(dt, 0.0), 0.0)

        if record_trace and traces is not None:
            # One nonzero over the whole batch instead of one per row: the
            # (row, task) pairs come out row-major, so slicing the flat
            # arrays at the row boundaries yields each advancing row's
            # allocation map without any per-row array scans.
            advancing = live & has_active
            rows, cols = np.nonzero(active & advancing[:, None])
            if rows.size:
                flat_rates = rates[rows, cols].tolist()
                flat_cols = cols.tolist()
                boundaries = np.flatnonzero(np.diff(rows)) + 1
                for lo, hi in zip(
                    np.concatenate(([0], boundaries)).tolist(),
                    np.concatenate((boundaries, [rows.size])).tolist(),
                ):
                    b = int(rows[lo])
                    alloc = dict(zip(flat_cols[lo:hi], flat_rates[lo:hi]))
                    traces[b].record_reshare(ReshareEvent(time=float(t[b]), allocation=alloc))

        state.num_events += live.astype(int)
        t += dt
        progressed = rates * dt[:, None]
        work_done += progressed
        np.maximum(remaining - progressed, 0.0, out=remaining)

        finished = active & (remaining <= finish_tol)
        # Numerical corner case (as in the scalar engine): when a completion
        # was due before the next release (and before the horizon) but no
        # task crossed the tolerance, force the task closest to completion
        # out of the active set.
        none_done = (
            live
            & has_active
            & ~finished.any(axis=1)
            & (dt_completion <= dt_release)
            & reaches_event
        )
        if none_done.any():
            winner = np.where(active, finish_in, np.inf).argmin(axis=1)
            forced = np.nonzero(none_done)[0]
            finished[forced, winner[forced]] = True
            remaining[forced, winner[forced]] = 0.0
        np.copyto(completion_times, np.broadcast_to(t[:, None], (B, N)), where=finished)
        completed |= finished

        if releasing:
            newly_released = pending & (releases <= t[:, None] + atol)
            released |= newly_released

        if record_trace and traces is not None:
            for b, i in zip(*np.nonzero(finished)):
                traces[b].record_completion(CompletionEvent(time=float(t[b]), task=int(i)))
            if releasing:
                for b, i in zip(*np.nonzero(newly_released)):
                    traces[b].record_release(
                        ReleaseEvent(time=float(releases[b, i]), task=int(i))
                    )

    return state


def simulate_batch(
    batch: InstanceBatch,
    policy: BatchPolicy,
    release_times: np.ndarray | None = None,
    atol: float = 1e-10,
    max_events: int | None = None,
    record_trace: bool = False,
) -> BatchSimulationResult:
    """Run an online policy on every instance of the batch in lockstep.

    A thin wrapper over :func:`init_simulation_state` +
    :func:`advance_simulation_state` with no time horizon — the historical
    one-shot entry point, semantics unchanged.

    Parameters
    ----------
    batch:
        The padded instance batch to execute.
    policy:
        The batched non-clairvoyant policy deciding the shares.
    release_times:
        Optional ``(B, n_max)`` release time per task (default: all zero,
        the setting of the paper).  Padding slots are ignored.
    atol:
        Numerical tolerance for completion detection; the default matches
        the scalar engine's.
    max_events:
        Safety bound on the number of lockstep iterations (each iteration is
        one event of every live row); default ``8 n_max + 16``, the scalar
        per-instance bound.
    record_trace:
        When true, build a per-row
        :class:`~repro.simulation.events.SimulationTrace` identical to the
        scalar engine's (used by the equivalence tests; costs a Python loop
        over rows per iteration, so leave it off in benchmarks).

    Raises
    ------
    SimulationError
        If the policy over-subscribes a row, returns a negative rate, stalls
        (an active task set makes no progress with no release pending), or
        the event bound is hit.
    """
    state = init_simulation_state(
        batch, release_times=release_times, atol=atol, record_trace=record_trace
    )
    advance_simulation_state(state, policy, until=None, max_events=max_events)
    return state.result(policy.name)


# --------------------------------------------------------------------- #
# Policy comparisons (the vectorized back end of experiment E5)
# --------------------------------------------------------------------- #


def policy_ratios_batch(
    batch: InstanceBatch,
    policies: Sequence[BatchPolicy] | None = None,
    num_fractions: int = 5,
) -> dict[str, np.ndarray]:
    """Objective ratio of every policy against the Lemma 1 lower bound.

    The vectorized counterpart of
    :func:`repro.analysis.ratios.policy_ratios`: every
    default policy is executed by :func:`simulate_batch` on the whole batch
    and its ``sum w_i C_i`` is divided by the combined lower bound, giving a
    ``(B,)`` ratio vector per policy name.
    """
    if policies is None:
        policies = default_batch_policies(batch)
    reference = combined_lower_bound_batch(batch, num_fractions=num_fractions)
    safe = np.where(reference > 0, reference, 1.0)
    ratios: dict[str, np.ndarray] = {}
    for policy in policies:
        values = simulate_batch(batch, policy).weighted_completion_times()
        ratios[policy.name] = np.where(reference > 0, values / safe, 1.0)
    return ratios
