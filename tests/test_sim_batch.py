"""Property tests: the batched discrete-event simulation equals the scalar one.

For random padded batches (mixed sizes, degenerate one-task rows), random
policies and random release patterns, the lockstep kernel of
:mod:`repro.batch.sim_kernels` must produce the same completion times and
the same event trace (releases, reshare decisions with their allocations,
completion order) as running :func:`repro.simulation.engine.simulate` on
every row separately.  The resumable one-instance engine
(:func:`repro.simulation.engine.advance_simulation_state`, which runs the
online service) is held to the batched engine with pauses at random
horizons.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ratios import policy_ratios
from repro.algorithms.greedy import greedy_completion_times_batch
from repro.batch.kernels import _row_sums, combined_lower_bound_batch, water_filling_batch
from repro.batch.sim_kernels import (
    BatchPolicy,
    DeqBatchPolicy,
    FairShareNoCapBatchPolicy,
    PriorityBatchPolicy,
    WdeqBatchPolicy,
    advance_simulation_state,
    default_batch_policies,
    init_simulation_state,
    policy_ratios_batch,
    simulate_batch,
)
from repro.core.batch import InstanceBatch
from repro.core.exceptions import InvalidInstanceError, SimulationError
from repro.core.instance import Instance, Task
from repro.simulation import engine
from repro.simulation.engine import simulate
from repro.simulation.nonclairvoyant import default_policies
from repro.workloads.generators import cluster_instances

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def instances(draw, min_tasks: int = 1, max_tasks: int = 6):
    """One random instance with well-conditioned parameters."""
    n = draw(st.integers(min_tasks, max_tasks))
    P = draw(st.floats(0.5, 4.0, **finite))
    tasks = []
    for _ in range(n):
        volume = draw(st.floats(0.05, 10.0, **finite))
        weight = draw(st.floats(0.05, 10.0, **finite))
        delta = draw(st.floats(0.05, 1.0, **finite)) * P
        tasks.append(Task(volume=volume, weight=weight, delta=delta))
    return Instance(P=P, tasks=tasks)


@st.composite
def instance_batches(draw, max_batch: int = 5):
    """A batch of random instances of *mixed* sizes (padding is exercised)."""
    return draw(st.lists(instances(), min_size=1, max_size=max_batch))


@st.composite
def batches_with_releases(draw, max_batch: int = 4):
    """Instances plus well-separated release times (multiples of 1/2)."""
    insts = draw(instance_batches(max_batch=max_batch))
    releases = [
        [draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5])) for _ in range(inst.n)]
        for inst in insts
    ]
    return insts, releases


@st.composite
def paused_runs(draw):
    """One instance, its release times, a policy name and sorted pause horizons."""
    inst = draw(instances())
    release = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]), st.floats(0.0, 4.0, **finite)
    )
    releases = [draw(release) for _ in range(inst.n)]
    name = draw(st.sampled_from(["WDEQ", "DEQ", "WRR (no cap)", "Smith priority"]))
    pauses = sorted(draw(st.lists(st.floats(0.0, 40.0, **finite), max_size=6)))
    return inst, releases, name, pauses


def _padded_releases(batch: InstanceBatch, releases: list[list[float]]) -> np.ndarray:
    padded = np.zeros((batch.batch_size, batch.n_max))
    for b, row in enumerate(releases):
        padded[b, : len(row)] = row
    return padded


def _scalar_policy(instance: Instance, name: str):
    matches = [p for p in default_policies(instance) if p.name == name]
    assert matches, f"no scalar policy named {name!r}"
    return matches[0]


def _assert_traces_match(batch_trace, scalar_trace) -> None:
    assert len(batch_trace.reshare_events) == len(scalar_trace.reshare_events)
    for batch_event, scalar_event in zip(
        batch_trace.reshare_events, scalar_trace.reshare_events
    ):
        assert batch_event.time == pytest.approx(scalar_event.time, rel=1e-7, abs=1e-9)
        assert set(batch_event.allocation) == set(scalar_event.allocation)
        for task, rate in batch_event.allocation.items():
            assert rate == pytest.approx(scalar_event.allocation[task], rel=1e-7, abs=1e-9)
    assert [(e.time, e.task) for e in batch_trace.release_events] == [
        (e.time, e.task) for e in scalar_trace.release_events
    ]
    assert batch_trace.completion_order() == scalar_trace.completion_order()
    for batch_event, scalar_event in zip(
        batch_trace.completion_events, scalar_trace.completion_events
    ):
        assert batch_event.time == pytest.approx(scalar_event.time, rel=1e-7, abs=1e-9)


# --------------------------------------------------------------------- #
# Equivalence with the scalar engine
# --------------------------------------------------------------------- #


class TestSimulateBatchEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(instance_batches())
    def test_all_policies_match_scalar_completions_and_traces(self, insts):
        batch = InstanceBatch.from_instances(insts)
        for batch_policy in default_batch_policies(batch):
            result = simulate_batch(batch, batch_policy, record_trace=True)
            assert result.completion_times.shape == (batch.batch_size, batch.n_max)
            for b, inst in enumerate(insts):
                scalar = simulate(inst, _scalar_policy(inst, batch_policy.name))
                np.testing.assert_allclose(
                    result.completion_times[b, : inst.n],
                    scalar.completion_times,
                    rtol=1e-7,
                    atol=1e-9,
                )
                assert np.all(result.completion_times[b, inst.n :] == 0.0)
                _assert_traces_match(result.traces[b], scalar.trace)

    @settings(max_examples=20, deadline=None)
    @given(batches_with_releases())
    def test_release_patterns_match_scalar(self, insts_and_releases):
        insts, releases = insts_and_releases
        batch = InstanceBatch.from_instances(insts)
        padded = _padded_releases(batch, releases)
        for batch_policy in default_batch_policies(batch):
            result = simulate_batch(
                batch, batch_policy, release_times=padded, record_trace=True
            )
            for b, inst in enumerate(insts):
                scalar = simulate(
                    inst, _scalar_policy(inst, batch_policy.name), release_times=releases[b]
                )
                np.testing.assert_allclose(
                    result.completion_times[b, : inst.n],
                    scalar.completion_times,
                    rtol=1e-7,
                    atol=1e-9,
                )
                _assert_traces_match(result.traces[b], scalar.trace)

    @settings(max_examples=15, deadline=None)
    @given(instance_batches(max_batch=4))
    def test_objective_helpers_match_scalar(self, insts):
        batch = InstanceBatch.from_instances(insts)
        result = simulate_batch(batch, WdeqBatchPolicy())
        values = result.weighted_completion_times()
        spans = result.makespans()
        for b, inst in enumerate(insts):
            scalar = simulate(inst, _scalar_policy(inst, "WDEQ"))
            assert values[b] == pytest.approx(scalar.weighted_completion_time(), rel=1e-7)
            assert spans[b] == pytest.approx(scalar.makespan(), rel=1e-7)

    @settings(max_examples=10, deadline=None)
    @given(instance_batches(max_batch=4))
    def test_policy_ratios_batch_matches_scalar(self, insts):
        batch = InstanceBatch.from_instances(insts)
        batched = policy_ratios_batch(batch)
        for b, inst in enumerate(insts):
            scalar = policy_ratios(inst)
            assert set(batched) == set(scalar)
            for name, ratios in batched.items():
                assert ratios[b] == pytest.approx(scalar[name], rel=1e-7)

    def test_event_counts_are_bounded(self):
        insts = list(cluster_instances(10, 6, rng=np.random.default_rng(0)))
        batch = InstanceBatch.from_instances(insts)
        result = simulate_batch(batch, DeqBatchPolicy(), record_trace=True)
        for b, trace in enumerate(result.traces):
            assert result.num_events[b] >= trace.num_reshares
            assert result.num_events[b] <= 8 * insts[b].n + 16

    def test_pause_resume_matches_one_shot(self):
        # Pausing at horizons and resuming must land on the one-shot result.
        insts = list(cluster_instances(5, 6, rng=np.random.default_rng(9)))
        batch = InstanceBatch.from_instances(insts)
        one_shot = simulate_batch(batch, WdeqBatchPolicy())
        state = init_simulation_state(batch)
        for until in (1.0, 2.5, None):
            advance_simulation_state(state, WdeqBatchPolicy(), until=until)
        np.testing.assert_allclose(state.completion_times, one_shot.completion_times, rtol=1e-12)


@st.composite
def padded_variants(draw):
    """Instances of at most 7 tasks, release times or none, a padding width
    of 8 or more, and a permuted, sliced row selection."""
    insts = draw(st.lists(instances(max_tasks=7), min_size=1, max_size=6))
    releases = None
    if draw(st.booleans()):
        releases = [
            [draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5])) for _ in range(inst.n)]
            for inst in insts
        ]
    width = draw(st.integers(8, 12))
    rows = draw(st.permutations(range(len(insts))))
    lo = draw(st.integers(0, len(rows) - 1))
    hi = draw(st.integers(lo + 1, len(rows)))
    return insts, releases, width, list(rows[lo:hi])


def _widen(batch: InstanceBatch, releases: np.ndarray, width: int):
    """``batch`` and its release matrix padded with inert columns to ``width``."""
    pad = ((0, 0), (0, width - batch.n_max))
    widened = InstanceBatch(
        P=batch.P,
        volumes=np.pad(batch.volumes, pad),
        weights=np.pad(batch.weights, pad),
        deltas=np.pad(batch.deltas, pad, constant_values=1.0),
        mask=np.pad(batch.mask, pad),
    )
    return widened, np.pad(releases, pad)


def _take(batch: InstanceBatch, releases: np.ndarray, rows: list[int]):
    taken = InstanceBatch(
        P=batch.P[rows],
        volumes=batch.volumes[rows],
        weights=batch.weights[rows],
        deltas=batch.deltas[rows],
        mask=batch.mask[rows],
    )
    return taken, releases[rows]


def _smith_greedy(batch: InstanceBatch) -> np.ndarray:
    """Algorithm 3 completion times of every row in Smith order, padding placed last.

    The zero-volume padding tasks complete at 0, without a floating-point
    warning.
    """
    ratios = np.where(batch.mask, batch.volumes / np.where(batch.mask, batch.weights, 1.0), np.inf)
    orders = np.argsort(ratios, axis=1, kind="stable")
    with np.errstate(all="raise"):
        return greedy_completion_times_batch(batch.P, batch.volumes, batch.deltas, orders)


class TestPaddingInvariance:
    """A row's results do not depend on its padding width or its batch-mates.

    Streamed replays trim each worker slice to its widest row, so these
    bits must not move when padding columns are added (across the width at
    which NumPy's row sums turn pairwise) or rows are permuted and sliced.
    """

    @settings(max_examples=40, deadline=None)
    @given(padded_variants())
    def test_widening_permuting_and_slicing_keep_every_row_bit_identical(self, case):
        insts, releases, width, rows = case
        batch = InstanceBatch.from_instances(insts)
        padded = np.zeros(batch.mask.shape) if releases is None else _padded_releases(batch, releases)
        wide_batch, wide_releases = _widen(batch, padded, width)
        variants = [
            (wide_batch, wide_releases, list(range(batch.batch_size))),
            (*_take(batch, padded, rows), rows),
            (*_take(wide_batch, wide_releases, rows), rows),
        ]
        for policy in default_batch_policies(batch):
            base = simulate_batch(batch, policy, release_times=padded)
            for other, other_releases, source in variants:
                (other_policy,) = [p for p in default_batch_policies(other) if p.name == policy.name]
                result = simulate_batch(other, other_policy, release_times=other_releases)
                n = batch.n_max
                assert np.array_equal(result.completion_times[:, :n], base.completion_times[source])
                assert not result.completion_times[:, n:].any()
                assert np.array_equal(result.num_events, base.num_events[source])
                assert np.array_equal(
                    result.weighted_completion_times(), base.weighted_completion_times()[source]
                )
                assert np.array_equal(result.makespans(), base.makespans()[source])

    @settings(max_examples=40, deadline=None)
    @given(padded_variants())
    def test_lower_bound_water_filling_and_greedy_keep_every_row_bit_identical(self, case):
        insts, _, width, rows = case
        batch = InstanceBatch.from_instances(insts)
        completions = simulate_batch(batch, WdeqBatchPolicy()).completion_times
        wide_batch, wide_completions = _widen(batch, completions, width)
        variants = [
            (wide_batch, wide_completions, list(range(batch.batch_size))),
            (*_take(batch, completions, rows), rows),
            (*_take(wide_batch, wide_completions, rows), rows),
        ]
        n = batch.n_max
        bound = combined_lower_bound_batch(batch)
        wf = water_filling_batch(batch, completions)
        greedy = _smith_greedy(batch)
        for other, other_completions, source in variants:
            assert np.array_equal(combined_lower_bound_batch(other), bound[source])
            other_wf = water_filling_batch(other, other_completions)
            # Real tasks fill the first columns: padding completes last.
            assert np.array_equal(other_wf.order[:, :n], wf.order[source])
            assert np.array_equal(other_wf.levels[:, :n], wf.levels[source])
            assert np.array_equal(other_wf.rates[:, :n, :n], wf.rates[source])
            assert np.array_equal(
                other_wf.sorted_completion_times[:, :n], wf.sorted_completion_times[source]
            )
            other_greedy = _smith_greedy(other)
            real = other.mask[:, :n]
            assert np.array_equal(other_greedy[:, :n][real], greedy[source][real])
            assert not other_greedy[~other.mask].any()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 80),
        st.integers(1, 12),
        st.integers(0, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_row_sums_add_left_to_right_at_every_padding_width(self, B, N, pad, seed):
        values = np.random.default_rng(seed).lognormal(0.0, 3.0, size=(B, N))
        left_to_right = values[:, 0].copy()
        for column in values.T[1:]:
            left_to_right += column
        assert np.array_equal(_row_sums(values), left_to_right)
        assert np.array_equal(_row_sums(np.pad(values, ((0, 0), (0, pad)))), left_to_right)
        assert np.array_equal(_row_sums(values[-1:]), left_to_right[-1:])


class TestScalarResumableEngine:
    """The one-instance engine, paused and resumed, against ``simulate_batch``."""

    @staticmethod
    def _oracle(inst, releases, name):
        batch = InstanceBatch.from_instances([inst])
        (policy,) = [p for p in default_batch_policies(batch) if p.name == name]
        return simulate_batch(batch, policy, release_times=np.array([releases]))

    @staticmethod
    def _paused(inst, releases, name, pauses):
        policy = _scalar_policy(inst, name)
        state = engine.init_simulation_state(inst, releases)
        for until in pauses:
            engine.advance_simulation_state(state, policy, until=until)
        return engine.advance_simulation_state(state, policy)

    @settings(max_examples=60, deadline=None)
    @given(paused_runs())
    def test_random_pauses_match_the_batched_engine(self, run):
        inst, releases, name, pauses = run
        oracle = self._oracle(inst, releases, name)
        state = self._paused(inst, releases, name, pauses)
        assert state.completed.all()
        np.testing.assert_allclose(
            state.completion_times, oracle.completion_times[0], rtol=1e-9, atol=1e-12
        )
        # A pause splits at most one step; the clock may land one ulp short
        # of the horizon, which costs one more (ulp-long) step.
        events = int(oracle.num_events[0])
        assert events <= state.num_events <= events + 2 * len(pauses)

    @settings(max_examples=60, deadline=None)
    @given(paused_runs(), st.data())
    def test_pauses_at_event_times_match_event_for_event(self, run, data):
        inst, releases, name, _ = run
        oracle = self._oracle(inst, releases, name)
        one_shot = engine.init_simulation_state(inst, releases)
        engine.advance_simulation_state(one_shot, _scalar_policy(inst, name))
        assert one_shot.num_events == int(oracle.num_events[0])
        trace = one_shot.trace
        times = sorted(
            {e.time for e in trace.reshare_events} | {e.time for e in trace.completion_events}
        )
        pauses = sorted(data.draw(st.lists(st.sampled_from(times), max_size=6)))
        state = self._paused(inst, releases, name, pauses)
        # A pause at an event time keeps every step, though the step that
        # ends there may run ``h - t`` instead of its own rounding of it.
        assert state.num_events == one_shot.num_events
        np.testing.assert_allclose(
            state.completion_times, oracle.completion_times[0], rtol=1e-9, atol=1e-12
        )


    def test_pause_at_an_event_time_after_an_earlier_pause_keeps_every_bit(self):
        # Found by the test above: the step ending at the first pause used
        # to run ``h - t`` instead of its own duration, which moved later
        # event times by an ulp, so the second pause split a step in two.
        P = 0.6482175178065115
        inst = Instance(
            P=P,
            tasks=[
                Task(3.0, 1.0, 0.08247314502676427),
                Task(0.1875, 1.0, P),
                Task(3.5, 1.0, P),
                Task(8.0, 1.0, P),
                Task(5.625, 1.0, P),
                Task(1.7501438851835347, 1.0, 0.05493308604865305),
            ],
        )
        releases = [2.803791773573431, 1.0, 0.0, 0.5, 3.5, 0.5]
        one_shot = engine.init_simulation_state(inst, releases)
        engine.advance_simulation_state(one_shot, _scalar_policy(inst, "WDEQ"))
        pauses = [one_shot.intervals[6][0], one_shot.intervals[8][0]]
        state = self._paused(inst, releases, "WDEQ", pauses)
        assert state.num_events == one_shot.num_events
        assert np.array_equal(state.completion_times, one_shot.completion_times)
        assert np.array_equal(state.remaining, one_shot.remaining)


# --------------------------------------------------------------------- #
# Engine validation / error paths
# --------------------------------------------------------------------- #


class _Oversubscribe(BatchPolicy):
    name = "greedy-all"

    def allocate(self, P, weights, deltas, work_done, elapsed, active):
        return np.where(active, P[:, None], 0.0)


class _Lazy(BatchPolicy):
    name = "lazy"

    def allocate(self, P, weights, deltas, work_done, elapsed, active):
        return np.zeros_like(weights)


class _Negative(BatchPolicy):
    name = "negative"

    def allocate(self, P, weights, deltas, work_done, elapsed, active):
        return np.where(active, -1.0, 0.0)


class TestSimulateBatchValidation:
    def _batch(self):
        inst = Instance(P=2.0, tasks=[Task(1, 1, 2), Task(1, 1, 2)])
        return InstanceBatch.from_instances([inst])

    def test_oversubscribing_policy_rejected(self):
        with pytest.raises(SimulationError, match="over-subscribed"):
            simulate_batch(self._batch(), _Oversubscribe())

    def test_stalling_policy_rejected(self):
        with pytest.raises(SimulationError, match="stalled"):
            simulate_batch(self._batch(), _Lazy())

    def test_negative_rate_rejected(self):
        with pytest.raises(SimulationError, match="negative rate"):
            simulate_batch(self._batch(), _Negative())

    def test_bad_release_shape_rejected(self):
        with pytest.raises(SimulationError, match="shape"):
            simulate_batch(self._batch(), WdeqBatchPolicy(), release_times=np.zeros(3))
        with pytest.raises(SimulationError, match="non-negative"):
            simulate_batch(
                self._batch(), WdeqBatchPolicy(), release_times=np.full((1, 2), -1.0)
            )

    def test_zero_weight_rejected_by_wdeq(self):
        inst = Instance(P=1.0, tasks=[Task(volume=1.0, weight=0.0, delta=0.5)])
        with pytest.raises(InvalidInstanceError):
            simulate_batch(
                InstanceBatch.from_instances([inst]), WdeqBatchPolicy()
            )

    def test_priority_policy_tie_break_matches_scalar(self):
        # Equal priorities: the scalar policy serves ascending task index.
        inst = Instance(P=1.0, tasks=[Task(2, 1, 0.8), Task(2, 1, 0.8), Task(2, 1, 0.8)])
        batch = InstanceBatch.from_instances([inst])
        result = simulate_batch(
            batch, PriorityBatchPolicy(priorities=np.zeros((1, 3))), record_trace=True
        )
        from repro.simulation.policies import PriorityPolicy

        scalar = simulate(inst, PriorityPolicy(priorities=[0.0, 0.0, 0.0]))
        np.testing.assert_allclose(
            result.completion_times[0], scalar.completion_times, rtol=1e-9
        )
        assert result.traces[0].completion_order() == scalar.trace.completion_order()

    def test_fair_share_requires_positive_weights(self):
        # Weight zero with the fair-share policy: the total weight is zero.
        inst = Instance(P=1.0, tasks=[Task(volume=1.0, weight=0.0, delta=0.5)])
        with pytest.raises(SimulationError, match="positive weights"):
            simulate_batch(
                InstanceBatch.from_instances([inst]), FairShareNoCapBatchPolicy()
            )

    def test_released_only_rows_finish_while_others_wait(self):
        # Row 0 has immediate work, row 1 waits for its release: both finish.
        a = Instance(P=1.0, tasks=[Task(1, 1, 1)])
        b = Instance(P=1.0, tasks=[Task(1, 1, 1)])
        batch = InstanceBatch.from_instances([a, b])
        releases = np.array([[0.0], [5.0]])
        result = simulate_batch(batch, DeqBatchPolicy(), release_times=releases)
        assert result.completion_times[0, 0] == pytest.approx(1.0)
        assert result.completion_times[1, 0] == pytest.approx(6.0)
