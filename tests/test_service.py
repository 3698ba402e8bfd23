"""Tests for the online scheduling service (repro.service).

Three layers, mirroring the package:

* :class:`repro.service.state.LiveSystemState` — the incremental
  simulation core, pinned **differentially** against a from-scratch
  :func:`repro.batch.sim_kernels.simulate_batch` over the full submission
  history: same completion times *and* the same event count, so the
  incremental path provably replays nothing and invents nothing;
* :meth:`repro.service.SchedulerService.handle` — the synchronous
  request/reply surface (admission control, rate limiting, error codes),
  exercised in-process without sockets;
* the asyncio TCP layer — NDJSON framing, concurrent clients, HTTP
  ``/metrics`` / ``/health`` on the same port, graceful drain, and the
  load generator.  Async tests run via ``asyncio.run`` inside plain pytest
  functions (no pytest-asyncio dependency).
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.api import (
    CancelReply,
    CancelTask,
    ErrorReply,
    HealthReply,
    HealthRequest,
    MetricsRequest,
    QueryShare,
    QueryState,
    ShareReply,
    SimulateRequest,
    StateReply,
    SubmitReply,
    SubmitTask,
)
from repro.batch.sim_kernels import simulate_batch
from repro.core.batch import InstanceBatch
from repro.service import (
    LiveSystemState,
    LoadgenConfig,
    SchedulerService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    run_loadgen_async,
)
from repro.service import state as state_module
from repro.service.metrics import LatencyHistogram, MetricsRegistry
from repro.service.ratelimit import ClientRateLimiter, TokenBucket
from repro.service.state import DuplicateTaskError, UnknownTaskError, make_batch_policy, make_policy
from repro.simulation.policies import WdeqPolicy


def run(coro):
    """Drive one async test body to completion on a fresh event loop."""
    return asyncio.run(asyncio.wait_for(coro, timeout=30.0))


# --------------------------------------------------------------------- #
# LiveSystemState: the incremental simulation core
# --------------------------------------------------------------------- #


class TestLiveSystemState:
    def test_single_task_runs_at_its_cap(self):
        live = LiveSystemState(P=4.0)
        record = live.submit(volume=6.0, weight=1.0, delta=3.0, now=0.0)
        assert live.share_of(record.task_id) == pytest.approx(3.0)
        live.advance_to(2.0)
        assert live.records[record.task_id].status == "completed"
        assert live.records[record.task_id].completion_time == pytest.approx(2.0)

    def test_delta_clamped_to_platform(self):
        live = LiveSystemState(P=2.0)
        record = live.submit(volume=2.0, delta=100.0, now=0.0)
        assert record.delta == pytest.approx(2.0)
        assert live.share_of(record.task_id) == pytest.approx(2.0)

    def test_cancel_frees_processors_for_the_survivor(self):
        live = LiveSystemState(P=4.0)
        a = live.submit(volume=4.0, delta=2.0, now=0.0)
        b = live.submit(volume=4.0, delta=2.0, now=0.0)
        assert live.cancel(a.task_id, now=0.5) is True
        live.advance_to(10.0)
        # b did 2 units by t=0.5 at rate 2... still rate 2 (delta caps it):
        # remaining 3 units at rate 2 -> completes at 0.5 + 3/2 = 2.0.
        assert live.records[b.task_id].completion_time == pytest.approx(2.0)
        assert live.records[a.task_id].status == "cancelled"
        assert live.cancel(b.task_id, now=11.0) is False  # already done

    def test_idle_gap_accrues_no_phantom_work(self):
        live = LiveSystemState(P=2.0)
        a = live.submit(volume=2.0, delta=2.0, now=0.0)  # completes at t=1
        live.advance_to(5.0)
        assert live.records[a.task_id].completion_time == pytest.approx(1.0)
        # System idle from t=1; submitting at t=9 must not backfill the gap.
        b = live.submit(volume=2.0, delta=2.0, now=9.0)
        live.advance_to(20.0)
        assert live.records[b.task_id].completion_time == pytest.approx(10.0)

    def test_time_is_clamped_monotonic(self):
        live = LiveSystemState(P=1.0)
        live.submit(volume=10.0, delta=1.0, now=2.0)
        live.advance_to(5.0)
        assert live.advance_to(1.0) == pytest.approx(5.0)  # no rewind
        assert live.now == pytest.approx(5.0)

    def test_errors(self):
        live = LiveSystemState(P=2.0)
        live.submit(volume=1.0, task_id="a", now=0.0)
        with pytest.raises(DuplicateTaskError):
            live.submit(volume=1.0, task_id="a", now=0.0)
        with pytest.raises(UnknownTaskError):
            live.cancel("nope", now=0.0)
        with pytest.raises(UnknownTaskError):
            live.share_of("nope")
        with pytest.raises(ValueError):
            live.submit(volume=-1.0, now=0.0)
        with pytest.raises(ValueError):
            LiveSystemState(P=0.0)
        with pytest.raises(ValueError):
            make_policy("bogus")

    def test_capacity_growth_and_compaction_preserve_the_trajectory(self):
        rng = np.random.default_rng(7)
        live = LiveSystemState(P=8.0)
        finished: "dict[str, float]" = {}
        # Enough churn to force several capacity doublings and compactions.
        for k in range(300):
            now = 0.05 * k
            live.submit(volume=rng.uniform(0.05, 0.3), delta=rng.uniform(0.5, 4.0), now=now)
            for task_id, record in live.records.items():
                if record.status == "completed" and task_id not in finished:
                    finished[task_id] = record.completion_time
        live.advance_to(1e9)
        compacted = live.compact()
        assert compacted > 0
        assert live.used_slots == live.live_count == 0
        # Completion times recorded before compaction survive it.
        for task_id, completion in finished.items():
            assert live.records[task_id].completion_time == pytest.approx(completion)
            assert live.records[task_id].slot == -1

    def test_project_completion_leaves_the_live_state_untouched(self):
        live = LiveSystemState(P=2.0)
        record = live.submit(volume=4.0, delta=2.0, now=0.0)
        events_before = live.total_events
        projected = live.project_completion(record.task_id)
        assert projected == pytest.approx(2.0)
        assert live.total_events == events_before
        assert live.records[record.task_id].status == "running"
        live.advance_to(10.0)
        assert live.records[record.task_id].completion_time == pytest.approx(projected)


class TestIncrementalMatchesFromScratch:
    """The headline differential: incremental == full re-simulation.

    A live system fed N submissions at increasing virtual times — with
    share queries interleaved at the submission boundaries — must
    reproduce the completion times *and the event count* of one
    from-scratch ``simulate_batch`` whose release times are the submit
    times.  Equal event counts prove the incremental path pauses exactly
    at the oracle's release events and nowhere else.  Queries at
    *arbitrary* intermediate times add one horizon-pause event each but
    may never change the trajectory — pinned separately below.
    """

    @staticmethod
    def _workload(seed: int, n: int = 60):
        rng = np.random.default_rng(seed)
        return (
            np.sort(rng.uniform(0.0, 5.0, n)),
            rng.uniform(0.2, 2.0, n),
            rng.uniform(0.5, 3.0, n),
            rng.uniform(0.5, 4.0, n),
        )

    @staticmethod
    def _oracle(policy, submit_times, volumes, weights, deltas):
        batch = InstanceBatch.from_arrays(
            P=np.array([6.0]),
            volumes=volumes[None, :],
            weights=weights[None, :],
            deltas=np.minimum(deltas, 6.0)[None, :],
        )
        return simulate_batch(
            batch, make_batch_policy(policy), release_times=submit_times[None, :]
        )

    @pytest.mark.parametrize("policy", ["wdeq", "deq", "fair-share"])
    def test_event_for_event(self, policy):
        submit_times, volumes, weights, deltas = self._workload(42)
        rng = np.random.default_rng(99)
        live = LiveSystemState(P=6.0, policy=policy)
        ids = []
        for k in range(len(submit_times)):
            record = live.submit(
                volumes[k], weights[k], deltas[k], now=float(submit_times[k])
            )
            ids.append(record.task_id)
            if k % 7 == 3:  # queries at the submission boundary are free
                live.share_of(ids[rng.integers(0, len(ids))],
                              now=float(submit_times[k]))
        live.advance_to(1e9)

        oracle = self._oracle(policy, submit_times, volumes, weights, deltas)
        incremental = np.array(
            [live.records[task_id].completion_time for task_id in ids]
        )
        np.testing.assert_allclose(
            incremental, oracle.completion_times[0], rtol=1e-9, atol=1e-9
        )
        assert live.total_events == int(oracle.num_events[0])

    def test_arbitrary_query_times_pause_but_never_perturb(self):
        submit_times, volumes, weights, deltas = self._workload(42)
        rng = np.random.default_rng(7)
        live = LiveSystemState(P=6.0, policy="wdeq")
        ids, queries = [], 0
        for k in range(len(submit_times)):
            record = live.submit(
                volumes[k], weights[k], deltas[k], now=float(submit_times[k])
            )
            ids.append(record.task_id)
            if k % 5 == 1:  # mid-interval pauses: extra events, same path
                live.share_of(ids[rng.integers(0, len(ids))],
                              now=float(submit_times[k]) + 1e-3)
                queries += 1
        live.advance_to(1e9)

        oracle = self._oracle("wdeq", submit_times, volumes, weights, deltas)
        incremental = np.array(
            [live.records[task_id].completion_time for task_id in ids]
        )
        np.testing.assert_allclose(
            incremental, oracle.completion_times[0], rtol=1e-9, atol=1e-9
        )
        # Each mid-interval pause splits one step in two, at most.
        assert int(oracle.num_events[0]) <= live.total_events
        assert live.total_events <= int(oracle.num_events[0]) + queries

    def test_cancellation_differential(self):
        # After a cancellation, the remaining live tasks must follow the
        # oracle that simulates the *surviving* workload with the cancelled
        # task replaced by the volume it actually received.
        live = LiveSystemState(P=4.0)
        a = live.submit(volume=8.0, weight=2.0, delta=2.0, now=0.0)
        b = live.submit(volume=6.0, weight=1.0, delta=3.0, now=0.0)
        live.cancel(a.task_id, now=1.0)
        live.advance_to(100.0)

        work_a = 2.0  # a ran at its cap 2.0 for 1s (P=4 fits both caps)
        batch = InstanceBatch.from_arrays(
            P=np.array([4.0]),
            volumes=np.array([[work_a, 6.0]]),
            weights=np.array([[2.0, 1.0]]),
            deltas=np.array([[2.0, 3.0]]),
        )
        oracle = simulate_batch(batch, make_batch_policy("wdeq"))
        assert live.records[b.task_id].completion_time == pytest.approx(
            float(oracle.completion_times[0, 1])
        )


class TestHotPath:
    """One engine call per busy request, one allocation per active set.

    The live system runs the one-instance engine and memoises its last
    allocation; these tests pin that the memo is bit-exact against the raw
    policy and that it actually saves the calls it is there to save.
    """

    @staticmethod
    def _drive(live: LiveSystemState, seed: int):
        """A seeded mix of submits, queries, cancels, projections and idle gaps."""
        rng = np.random.default_rng(seed)
        now, ids, replies = 0.0, [], []
        max_capacity, compactions = 0, 0
        for _ in range(500):
            # Mostly dense arrivals, with occasional gaps long enough to drain.
            now += rng.uniform(5.0, 20.0) if rng.random() < 0.04 else rng.exponential(0.04)
            op = rng.random()
            used_before = live.used_slots
            if op < 0.55 or not ids:
                record = live.submit(
                    rng.uniform(0.05, 1.0),
                    rng.uniform(0.5, 3.0),
                    rng.uniform(0.5, 4.0),
                    now=now,
                )
                ids.append(record.task_id)
                replies.append(live.share_of(record.task_id))
            elif op < 0.8:
                task_id = ids[rng.integers(len(ids))]
                replies.append(live.share_of(task_id, now=now + rng.uniform(0.0, 0.02)))
            elif op < 0.95:
                replies.append(live.cancel(ids[rng.integers(len(ids))], now=now))
            else:
                replies.append(live.project_completion(ids[rng.integers(len(ids))]))
            max_capacity = max(max_capacity, live.capacity)
            compactions += live.used_slots < used_before
        live.advance_to(now + 100.0)
        return replies, max_capacity, compactions

    @staticmethod
    def _count(monkeypatch) -> "dict[str, int]":
        calls = {"advance": 0, "allocate": 0}
        advance = state_module.advance_simulation_state
        allocate = WdeqPolicy.allocate

        def counting_advance(*args, **kwargs):
            calls["advance"] += 1
            return advance(*args, **kwargs)

        def counting_allocate(self, *args):
            calls["allocate"] += 1
            return allocate(self, *args)

        monkeypatch.setattr(state_module, "advance_simulation_state", counting_advance)
        monkeypatch.setattr(WdeqPolicy, "allocate", counting_allocate)
        return calls

    @pytest.mark.parametrize("policy", ["wdeq", "deq", "fair-share"])
    def test_memo_is_bit_exact(self, policy):
        live = LiveSystemState(P=8.0, policy=policy)
        twin = LiveSystemState(P=8.0, policy=policy)
        twin.policy = make_policy(policy)  # no memo: every call allocates
        replies, max_capacity, compactions = self._drive(live, seed=3)
        twin_replies, _, _ = self._drive(twin, seed=3)
        assert max_capacity > 64 and compactions > 0  # growth and compaction ran
        assert replies == twin_replies
        assert live.to_snapshot() == twin.to_snapshot()
        assert live.total_events == twin.total_events

    def test_memo_key_is_the_active_columns(self, monkeypatch):
        calls = self._count(monkeypatch)
        memo = state_module._LastAllocation(make_policy("wdeq"))
        ids, zeros = np.array([0, 2]), np.zeros(2)
        weights, deltas = np.array([1.0, 3.0]), np.full(2, 4.0)
        first = memo.allocate(4.0, ids, weights, deltas, zeros, zeros)
        # Progress and elapsed time are not part of the key, and equal
        # columns hit even when they are new arrays.
        again = memo.allocate(4.0, ids.copy(), weights.copy(), deltas.copy(), zeros + 1, zeros + 2)
        assert again is first
        assert calls["allocate"] == 1
        # A change of the task ids, a weight or a cap misses.
        memo.allocate(4.0, np.array([0, 1]), weights, deltas, zeros, zeros)
        memo.allocate(4.0, ids, np.array([1.0, 2.0]), deltas, zeros, zeros)
        memo.allocate(4.0, ids, np.array([1.0, 2.0]), np.array([4.0, 3.0]), zeros, zeros)
        assert calls["allocate"] == 4

    def test_busy_submit_costs_one_advance_and_queries_reuse_it(self, monkeypatch):
        live = LiveSystemState(P=4.0)
        a = live.submit(volume=20.0, weight=2.0, delta=3.0, now=0.0)
        b = live.submit(volume=20.0, weight=1.0, delta=3.0, now=1.0)
        calls = self._count(monkeypatch)
        c = live.submit(volume=20.0, weight=1.0, delta=2.0, now=2.0)
        assert calls["advance"] == 1
        share_c = live.share_of(c.task_id)  # the submit reply: a new active set
        allocations = calls["allocate"]
        shares = [live.share_of(task.task_id, now=2.0) for task in (a, b, c)]
        assert calls["allocate"] == allocations
        assert shares[2] == share_c
        # The engine's first step after the pause reuses the same allocation.
        live.advance_to(2.5)
        assert calls["allocate"] == allocations

    def test_idle_submit_pulls_the_clock_forward(self, monkeypatch):
        live = LiveSystemState(P=2.0)
        live.submit(volume=2.0, delta=2.0, now=0.0)
        live.advance_to(5.0)  # done at t=1; the clock stays frozen there
        calls = self._count(monkeypatch)
        record = live.submit(volume=2.0, delta=2.0, now=9.0)
        assert calls["advance"] == 2
        assert live.now == 9.0
        assert live.share_of(record.task_id) == 2.0

    def test_projection_stays_out_of_the_memo(self, monkeypatch):
        live = LiveSystemState(P=4.0)
        a = live.submit(volume=6.0, weight=2.0, delta=3.0, now=0.0)
        live.submit(volume=3.0, weight=1.0, delta=3.0, now=0.5)
        share = live.share_of(a.task_id, now=1.0)
        calls = self._count(monkeypatch)
        live.project_completion(a.task_id)
        allocations = calls["allocate"]
        assert allocations > 0  # the what-if run allocates on its own
        assert live.share_of(a.task_id, now=1.0) == share
        assert calls["allocate"] == allocations


# --------------------------------------------------------------------- #
# SchedulerService.handle: the in-process request surface
# --------------------------------------------------------------------- #


def virtual_service(**overrides) -> SchedulerService:
    config = ServiceConfig(virtual_time=True, **overrides)
    return SchedulerService(config)


class TestServiceHandle:
    def test_submit_share_cancel_state_flow(self):
        service = virtual_service(P=4.0)
        submit = service.handle(SubmitTask(volume=4.0, weight=2.0, delta=2.0, now=0.0))
        assert isinstance(submit, SubmitReply)
        assert submit.share == pytest.approx(2.0)

        share = service.handle(QueryShare(task_id=submit.task_id, project=True, now=0.5))
        assert isinstance(share, ShareReply)
        assert share.status == "running"
        assert share.remaining == pytest.approx(3.0)
        assert share.projected_completion == pytest.approx(2.0)

        cancel = service.handle(CancelTask(task_id=submit.task_id, now=1.0))
        assert isinstance(cancel, CancelReply)
        assert cancel.cancelled and cancel.status == "cancelled"

        state = service.handle(QueryState(now=2.0))
        assert isinstance(state, StateReply)
        assert (state.submitted, state.completed, state.cancelled) == (1, 0, 1)
        assert state.live_tasks == 0

    def test_error_codes_are_structured(self):
        service = virtual_service()
        unknown = service.handle(QueryShare(task_id="nope"))
        assert isinstance(unknown, ErrorReply) and unknown.code == "unknown_task"
        service.handle(SubmitTask(volume=1.0, task_id="a", now=0.0))
        duplicate = service.handle(SubmitTask(volume=1.0, task_id="a", now=0.0))
        assert isinstance(duplicate, ErrorReply) and duplicate.code == "duplicate_task"
        invalid = service.handle(SubmitTask(volume=-1.0, now=0.0))
        assert isinstance(invalid, ErrorReply) and invalid.code == "invalid"
        foreign = service.handle("not a message")
        assert isinstance(foreign, ErrorReply) and foreign.code == "protocol"

    def test_admission_control_rejects_above_the_ceiling(self):
        service = virtual_service(max_live_tasks=2)
        assert isinstance(service.handle(SubmitTask(volume=9.0, now=0.0)), SubmitReply)
        assert isinstance(service.handle(SubmitTask(volume=9.0, now=0.0)), SubmitReply)
        rejected = service.handle(SubmitTask(volume=9.0, now=0.0))
        assert isinstance(rejected, ErrorReply)
        assert rejected.code == "admission_rejected"
        state = service.handle(QueryState(now=0.0))
        assert isinstance(state, StateReply) and state.rejected == 1
        # Capacity frees up once tasks finish: 9/8 P=8 -> done by t=3.
        service.handle(QueryState(now=100.0))
        assert isinstance(service.handle(SubmitTask(volume=1.0, now=100.0)), SubmitReply)

    def test_rate_limit_applies_per_client_but_spares_probes(self):
        service = virtual_service(rate_limit=1.0, rate_burst=2.0)
        ok = [service.handle(QueryState(now=0.0), client="hog") for _ in range(2)]
        assert all(isinstance(reply, StateReply) for reply in ok)
        limited = service.handle(QueryState(now=0.0), client="hog")
        assert isinstance(limited, ErrorReply) and limited.code == "rate_limited"
        # A different client has its own bucket; probes are never limited.
        assert isinstance(service.handle(QueryState(now=0.0), client="other"), StateReply)
        assert isinstance(service.handle(HealthRequest(), client="hog"), HealthReply)
        assert not isinstance(service.handle(MetricsRequest(), client="hog"), ErrorReply)

    def test_simulate_request_matches_the_kernel(self):
        service = virtual_service()
        request = SimulateRequest(
            P=4.0,
            volumes=(2.0, 4.0, 1.0),
            weights=(1.0, 2.0, 1.0),
            deltas=(1.0, 2.0, 4.0),
            policy="wdeq",
        )
        reply = service.handle(request)
        batch = InstanceBatch.from_arrays(
            P=np.array([4.0]),
            volumes=np.array([[2.0, 4.0, 1.0]]),
            weights=np.array([[1.0, 2.0, 1.0]]),
            deltas=np.array([[1.0, 2.0, 4.0]]),
        )
        oracle = simulate_batch(batch, make_batch_policy("wdeq"))
        np.testing.assert_allclose(reply.completion_times, oracle.completion_times[0])
        assert reply.num_events == int(oracle.num_events[0])
        bad = service.handle(SimulateRequest(P=4.0, volumes=(), weights=(), deltas=()))
        assert isinstance(bad, ErrorReply) and bad.code == "invalid"

    def test_metrics_account_for_requests(self):
        service = virtual_service()
        service.handle(SubmitTask(volume=1.0, now=0.0))
        service.handle(QueryShare(task_id="nope"))
        reply = service.handle(MetricsRequest())
        metrics = reply.metrics
        # The snapshot is taken before the metrics request itself is counted.
        assert metrics["counters"]["requests_total"] == 2.0
        assert metrics["counters"]["errors.unknown_task"] == 1.0
        assert metrics["histograms"]["latency.submit_task"]["count"] == 1.0
        assert metrics["gauges"]["live_tasks"] == 1.0


# --------------------------------------------------------------------- #
# Metrics and rate-limiting primitives
# --------------------------------------------------------------------- #


class TestPrimitives:
    def test_token_bucket_refills_lazily(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: clock[0])
        assert bucket.allow() and bucket.allow() and not bucket.allow()
        clock[0] = 0.5  # +1 token
        assert bucket.allow() and not bucket.allow()
        clock[0] = 100.0  # refill is capped at burst
        assert bucket.allow() and bucket.allow() and not bucket.allow()

    def test_client_limiter_lru_eviction(self):
        clock = [0.0]
        limiter = ClientRateLimiter(rate=1.0, burst=1.0, max_clients=2, clock=lambda: clock[0])
        assert limiter.allow("a") and limiter.allow("b")
        assert not limiter.allow("a")  # a's bucket is empty; b is now LRU
        assert not limiter.allow("a")  # ... and stays empty while tracked
        limiter.allow("c")  # evicts the LRU entry ("b")
        assert limiter.allow("b")  # b returns with a fresh bucket
        disabled = ClientRateLimiter(rate=0.0)
        assert not disabled.enabled
        assert all(disabled.allow("x") for _ in range(1000))

    def test_latency_histogram_percentiles_are_conservative(self):
        hist = LatencyHistogram()
        for value in (0.001, 0.002, 0.004, 0.008, 0.1):
            hist.observe(value)
        assert hist.count == 5
        # rank(50%, 5 obs) = 2: the reported value is the *upper* bound of
        # the bucket holding the 2nd observation — never under-reporting.
        assert 0.002 <= hist.percentile(50) <= 0.002 * 1.1
        assert 0.008 <= hist.percentile(90) <= 0.008 * 1.1
        assert hist.percentile(100) >= hist.max * 0.999
        summary = hist.summary()
        assert summary["count"] == 5.0
        assert summary["mean"] == pytest.approx(hist.mean)
        with pytest.raises(ValueError):
            LatencyHistogram(bounds=(1.0, 1.0))

    def test_registry_snapshot_is_json_representable(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.observe("lat", 0.01)
        registry.register_gauge("depth", lambda: 3)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must not raise
        assert snapshot["counters"]["hits"] == 1.0
        assert snapshot["gauges"]["depth"] == 3.0


# --------------------------------------------------------------------- #
# The asyncio TCP layer
# --------------------------------------------------------------------- #


class _running_service:
    """Async context manager: a started service on an ephemeral port."""

    def __init__(self, **overrides):
        self.service = SchedulerService(ServiceConfig(port=0, **overrides))

    async def __aenter__(self) -> SchedulerService:
        await self.service.start()
        return self.service

    async def __aexit__(self, *exc_info: object) -> None:
        await self.service.shutdown()


class TestTcpService:
    def test_client_round_trip(self):
        async def body():
            async with _running_service(P=4.0, virtual_time=True) as service:
                host, port = service.address
                async with ServiceClient(host, port, client_id="t1") as client:
                    submit = await client.submit(volume=4.0, delta=2.0, now=0.0)
                    assert submit.share == pytest.approx(2.0)
                    share = await client.share(submit.task_id, project=True, now=0.0)
                    assert share.projected_completion == pytest.approx(2.0)
                    health = await client.health()
                    assert health.status == "ok"
                    with pytest.raises(ServiceError) as excinfo:
                        await client.share("missing")
                    assert excinfo.value.code == "unknown_task"
                    state = await client.state()
                    assert state.submitted == 1

        run(body())

    def test_concurrent_clients_share_one_live_system(self):
        async def body():
            async with _running_service(P=16.0, virtual_time=True) as service:
                host, port = service.address

                async def one_client(i: int) -> int:
                    async with ServiceClient(host, port, client_id=f"c{i}") as client:
                        for k in range(10):
                            await client.submit(volume=0.5, task_id=f"c{i}-{k}", now=0.0)
                        return (await client.state()).submitted

                totals = await asyncio.gather(*(one_client(i) for i in range(8)))
                assert max(totals) == 80  # every submission landed exactly once
                assert service.state.submitted == 80

        run(body())

    def test_malformed_lines_get_structured_errors_and_the_connection_lives(self):
        async def body():
            async with _running_service() as service:
                host, port = service.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"this is not json\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply["type"] == "error" and reply["code"] == "protocol"
                # The same connection still serves well-formed requests.
                writer.write(json.dumps({"type": "health"}).encode() + b"\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply["type"] == "health_reply" and reply["status"] == "ok"
                writer.close()
                await writer.wait_closed()
                assert service.metrics.counters["protocol_errors_total"] == 1.0

        run(body())

    def test_http_metrics_and_health_on_the_same_port(self):
        async def body():
            async with _running_service() as service:
                host, port = service.address

                async def http_get(path: str) -> "tuple[str, dict]":
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
                    await writer.drain()
                    raw = await reader.read()
                    writer.close()
                    await writer.wait_closed()
                    head, _, body_bytes = raw.partition(b"\r\n\r\n")
                    return head.split(b"\r\n")[0].decode(), json.loads(body_bytes)

                status, payload = await http_get("/health")
                assert status == "HTTP/1.0 200 OK"
                assert payload["status"] == "ok"
                status, payload = await http_get("/metrics")
                assert status == "HTTP/1.0 200 OK"
                assert "counters" in payload["metrics"]
                status, payload = await http_get("/bogus")
                assert status.startswith("HTTP/1.0 404")

        run(body())

    def test_graceful_drain_refuses_submits_then_stops(self):
        async def body():
            service = SchedulerService(ServiceConfig(port=0, drain_grace=0.2))
            await service.start()
            host, port = service.address
            serve_task = asyncio.create_task(service.serve_forever(install_signals=False))
            try:
                async with ServiceClient(host, port) as client:
                    await client.submit(volume=1.0)
                    service.request_drain()
                    with pytest.raises(ServiceError) as excinfo:
                        await client.submit(volume=1.0)
                    assert excinfo.value.code == "draining"
                    health = await client.health()
                    assert health.draining and health.status == "draining"
                    # Queries still work while draining.
                    assert (await client.state()).submitted == 1
                await asyncio.wait_for(serve_task, timeout=5.0)
            finally:
                serve_task.cancel()

        run(body())

    def test_loadgen_replays_cleanly(self):
        async def body():
            async with _running_service(P=32.0) as service:
                host, port = service.address
                config = LoadgenConfig(
                    host=host,
                    port=port,
                    clients=8,
                    tasks_per_client=6,
                    arrival="bursty-poisson",
                    rate=500.0,
                    query_ratio=0.5,
                    cancel_ratio=0.2,
                    seed=3,
                )
                report = await run_loadgen_async(config)
                assert report.protocol_errors == 0
                assert report.errors == 0
                assert report.submitted == 8 * 6
                assert report.replies == report.requests
                assert report.rps > 0
                assert 0.0 < report.latency["p50"] <= report.latency["p99"]
                assert service.state.submitted == 48
                json.dumps(report.to_dict())  # CI artefact must serialise

        run(body())

    def test_loadgen_config_validation(self):
        with pytest.raises(ValueError):
            LoadgenConfig(host="h", port=1, clients=0).validate()
        with pytest.raises(ValueError):
            LoadgenConfig(host="h", port=1, arrival="bogus").validate()
