"""Tests for the multi-node cluster backend (repro.exec.cluster).

Four layers, mirroring how the backend can fail:

* **Protocol** — registry round trips for every coordinator/worker wire
  message, strict tagged decode, oversized-payload and garbage-line
  rejection (the ``tests/test_api.py`` pattern, pointed at
  :data:`~repro.exec.cluster.CLUSTER_REGISTRY`).
* **Sharding properties** — Hypothesis: :func:`assign_cells` is a
  deterministic, lossless partition, and a resumed sweep re-dispatches
  exactly the uncached remainder.
* **Cache invariance** — the differential guarantee that ``ResultCache``
  keys never mention the backend: a cluster-populated cache is served
  verbatim by serial/vectorized and vice versa.
* **Chaos** (``-m chaos``) — real localhost worker subprocesses via
  ``tests/chaos.py``: a node killed mid-sweep, a straggler past the cell
  timeout, a coordinator aborted and restarted — results must stay
  tolerance-identical to the serial backend throughout, and no cell may
  lose work twice.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ProtocolError
from repro.batch.cache import ResultCache
from repro.core.batch import InstanceBatch
from repro.exec import BACKENDS, ExecutionContext
from repro.exec.cluster import (
    CLUSTER_MESSAGE_TYPES,
    CLUSTER_REGISTRY,
    CLUSTER_REPLY_TYPES,
    CLUSTER_REQUEST_TYPES,
    MAX_CLUSTER_LINE_BYTES,
    MAX_NODE_BATCHES,
    PROTOCOL_VERSION,
    BatchAck,
    ClusterAborted,
    ClusterCoordinator,
    ClusterError,
    Drain,
    DrainAck,
    Handshake,
    HelloReply,
    JobFailed,
    Ping,
    Pong,
    PushBatch,
    RunChunk,
    RunTask,
    TaskDone,
    WorkerNode,
    assign_cells,
    batch_fingerprint,
    decode_cluster_line,
    encode_cluster_line,
    parse_hosts,
)
from repro.exec import cluster, shm
from repro.scenarios import ScenarioSpec, SweepRunner
from repro.scenarios.runner import run_cell
from repro.workloads import uniform_instances

from tests.chaos import WorkerFleet


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #


def tiny_spec(name: str = "cluster-tiny", cells: int = 4) -> ScenarioSpec:
    """A small but non-trivial sweep: `cells` cells, two policies each."""
    return ScenarioSpec(
        name=name,
        generator="uniform_instances",
        grid={"n": [3 + i for i in range(cells)]},
        count=2,
        policies=("WDEQ", "DEQ"),
    )


def run_serial(spec: ScenarioSpec, seed: int = 3):
    with ExecutionContext(seed=seed) as ctx:
        return SweepRunner(spec, ctx).run()


def assert_tables_close(a, b, rtol: float = 1e-6) -> None:
    """Tolerance comparison of two SweepResult summary tables."""
    assert a.headers == b.headers
    assert len(a.rows) == len(b.rows)
    for row_a, row_b in zip(a.rows, b.rows):
        for cell_a, cell_b in zip(row_a, row_b):
            try:
                fa, fb = float(cell_a), float(cell_b)
            except (TypeError, ValueError):
                assert cell_a == cell_b
                continue
            assert math.isclose(fa, fb, rel_tol=rtol, abs_tol=1e-9), (cell_a, cell_b)


def _row_volume(sub):
    """Module-level so it pickles into RunChunk jobs by reference."""
    return [float(v) for v in sub.volumes.sum(axis=1)]


def _explode(item):
    """Module-level job that raises (pickles by reference into the nodes)."""
    raise ValueError(f"boom {item}")


class LocalNodes:
    """In-process worker nodes for the non-chaos tests (fast, no subprocess)."""

    def __init__(self, count: int = 2):
        self.nodes = [WorkerNode() for _ in range(count)]
        self.hosts = [f"{host}:{port}" for host, port in (n.start() for n in self.nodes)]

    def __enter__(self) -> "LocalNodes":
        return self

    def __exit__(self, *exc_info: object) -> None:
        for node in self.nodes:
            node.stop()


# --------------------------------------------------------------------- #
# Protocol round trips (the tests/test_api.py registry pattern)
# --------------------------------------------------------------------- #

#: One representative instance per wire message type, non-default everywhere.
_EXAMPLES = [
    Handshake(coordinator="pid99", protocol=1),
    HelloReply(worker_id="w0", pid=42, protocol=1, draining=True),
    Ping(seq=7),
    Pong(seq=7, inflight=1, completed=12),
    RunTask(job_id=4, task="cGlja2xl"),
    TaskDone(job_id=4, result="cmVzdWx0"),
    PushBatch(
        batch_id="abc123",
        arrays=({"name": "P", "offset": 0, "shape": [2], "dtype": "float64"},),
        data="AAA=",
    ),
    BatchAck(batch_id="abc123", cached=True),
    RunChunk(job_id=5, batch_id="abc123", fn="Zm4=", lo=0, hi=4),
    JobFailed(job_id=6, error="ValueError: boom", retryable=False, unknown_batch=True),
    Drain(reason="shutdown"),
    DrainAck(worker_id="w0", completed=12),
]


class TestClusterProtocol:
    def test_every_message_type_has_an_example(self):
        assert {type(example) for example in _EXAMPLES} == set(
            CLUSTER_MESSAGE_TYPES.values()
        )

    def test_request_reply_split_covers_registry(self):
        assert set(CLUSTER_REQUEST_TYPES) | set(CLUSTER_REPLY_TYPES) == set(
            CLUSTER_MESSAGE_TYPES.values()
        )
        assert not set(CLUSTER_REQUEST_TYPES) & set(CLUSTER_REPLY_TYPES)

    @pytest.mark.parametrize("example", _EXAMPLES, ids=lambda m: type(m).__name__)
    def test_round_trip_is_lossless(self, example):
        payload = CLUSTER_REGISTRY.encode(example)
        assert payload["type"] == CLUSTER_REGISTRY.message_type(example)
        assert CLUSTER_REGISTRY.decode(payload) == example

    @pytest.mark.parametrize("example", _EXAMPLES, ids=lambda m: type(m).__name__)
    def test_line_round_trip_through_json(self, example):
        line = encode_cluster_line(example)
        assert line.endswith(b"\n")
        json.loads(line)  # the line is genuine JSON
        assert decode_cluster_line(line.rstrip(b"\n")) == example

    def test_tuple_fields_decode_back_to_tuples(self):
        push = CLUSTER_REGISTRY.decode(
            {"type": "push_batch", "batch_id": "b", "arrays": [{"name": "P"}, {"name": "mask"}]}
        )
        assert isinstance(push.arrays, tuple)

    def test_shared_memory_push_round_trips(self):
        push = PushBatch(
            batch_id="psm_1",
            arrays=({"name": "P", "offset": 0, "shape": [2], "dtype": "float64"},),
            segment="psm_1",
        )
        assert decode_cluster_line(encode_cluster_line(push).rstrip(b"\n")) == push

    def test_cell_messages_are_gone(self):
        for tag in ("run_cell", "cell_done"):
            with pytest.raises(ProtocolError, match="unknown message type"):
                CLUSTER_REGISTRY.decode({"type": tag, "job_id": 1})

    def test_unknown_tag_rejected(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            CLUSTER_REGISTRY.decode({"type": "no_such_message"})

    def test_unexpected_field_rejected(self):
        with pytest.raises(ProtocolError, match="unexpected field"):
            CLUSTER_REGISTRY.decode({"type": "ping", "seq": 1, "evil": True})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ProtocolError, match="invalid 'run_task' message"):
            CLUSTER_REGISTRY.decode({"type": "run_task", "job_id": 1})

    def test_foreign_message_rejected_with_registry_label(self):
        from repro.api import SubmitTask

        with pytest.raises(ProtocolError, match="repro.exec.cluster message type"):
            CLUSTER_REGISTRY.encode(SubmitTask(volume=1.0))

    def test_service_registry_does_not_know_cluster_messages(self):
        from repro.service.protocol import decode_line

        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_line(encode_cluster_line(Ping(seq=1)).rstrip(b"\n"))

    def test_garbage_line_rejected(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            decode_cluster_line(b"this is not json")

    def test_non_object_json_rejected(self):
        with pytest.raises(ProtocolError, match="expected a mapping"):
            decode_cluster_line(b"[1, 2, 3]")

    def test_oversized_line_rejected(self):
        line = encode_cluster_line(RunTask(job_id=1, task="x" * 128))
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_cluster_line(line, max_bytes=16)
        assert decode_cluster_line(line.rstrip(b"\n")) is not None

    def test_default_line_cap_is_larger_than_the_service_cap(self):
        from repro.service.protocol import MAX_LINE_BYTES

        assert MAX_CLUSTER_LINE_BYTES > MAX_LINE_BYTES

    def test_all_messages_are_frozen(self):
        for example in _EXAMPLES:
            field_name = dataclasses.fields(example)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(example, field_name, None)

    def test_array_codec_round_trip(self):
        arrays = {
            "P": np.array([2.0, 4.0]),
            "mask": np.array([[True, False], [True, True]]),
        }
        fields, buffer = shm.pack_arrays(arrays)
        # The wire form of a remote push: layout mappings + base64 bytes.
        push = PushBatch(
            batch_id="b",
            arrays=tuple(dataclasses.asdict(f) for f in fields),
            data=base64.b64encode(buffer).decode("ascii"),
        )
        push = decode_cluster_line(encode_cluster_line(push).rstrip(b"\n"))
        decoded = shm.array_views(
            base64.b64decode(push.data), [shm.SharedArrayField(**e) for e in push.arrays]
        )
        assert set(decoded) == {"P", "mask"}
        for name in arrays:
            assert decoded[name].dtype == arrays[name].dtype
            np.testing.assert_array_equal(decoded[name], arrays[name])

    def test_batch_fingerprint_tracks_content(self):
        a = {"x": np.arange(6, dtype=float)}
        b = {"x": np.arange(6, dtype=float)}
        assert batch_fingerprint(a) == batch_fingerprint(b)
        b["x"] = b["x"] + 1.0
        assert batch_fingerprint(a) != batch_fingerprint(b)

    def test_parse_hosts(self):
        assert parse_hosts("h1:1, h2:2") == (("h1", 1), ("h2", 2))
        assert parse_hosts(["h1:1"]) == (("h1", 1),)
        with pytest.raises(ValueError, match="host:port"):
            parse_hosts("nocolon")
        with pytest.raises(ValueError, match="invalid port"):
            parse_hosts("h1:notaport")
        with pytest.raises(ValueError, match="no worker hosts"):
            parse_hosts("")

    def test_live_worker_answers_garbage_with_structured_failure(self):
        """A garbage line on a live connection gets a JobFailed, not a hangup."""
        with LocalNodes(count=1) as local:
            host, port = parse_hosts(local.hosts)[0]
            with socket.create_connection((host, port), timeout=10.0) as sock:
                sock.sendall(b"utter garbage\n")
                reply = decode_cluster_line(
                    sock.makefile("rb").readline().rstrip(b"\n")
                )
        assert isinstance(reply, JobFailed)
        assert not reply.retryable
        assert "protocol" in reply.error


# --------------------------------------------------------------------- #
# Sharding properties (Hypothesis)
# --------------------------------------------------------------------- #


class TestShardingProperties:
    @given(num_cells=st.integers(0, 300), num_workers=st.integers(1, 48))
    def test_assignment_is_a_lossless_partition(self, num_cells, num_workers):
        shards = assign_cells(num_cells, num_workers)
        assert len(shards) == num_workers
        flat = [index for shard in shards for index in shard]
        # Union equals the grid and no duplicates (lossless partition).
        assert sorted(flat) == list(range(num_cells))
        assert len(flat) == len(set(flat))
        # Balanced: shard sizes differ by at most one.
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1
        # Deterministic: a pure function of the two counts.
        assert shards == assign_cells(num_cells, num_workers)

    @given(num_workers=st.integers(-3, 0))
    def test_nonpositive_worker_count_rejected(self, num_workers):
        with pytest.raises(ValueError):
            assign_cells(4, num_workers)

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_resumed_run_dispatches_exactly_the_uncached_remainder(self, data):
        """Evict a random subset of a completed sweep's cells, re-run, and
        assert the runner dispatches exactly the evicted cells — no cached
        cell is recomputed, no missing cell is skipped."""
        num_cells = data.draw(st.integers(1, 5), label="num_cells")
        spec = ScenarioSpec(
            name="resume-prop",
            generator="uniform_instances",
            grid={"n": [2 + i for i in range(num_cells)]},
            count=1,
            policies=("WDEQ",),
        )
        cache = ResultCache()
        ctx = ExecutionContext(seed=1, cache=cache)
        runner = SweepRunner(spec, ctx)
        reference = runner.run()
        keys = runner.cell_cache_keys()
        evicted = data.draw(
            st.sets(st.integers(0, num_cells - 1)), label="evicted"
        )
        for index in evicted:
            assert cache.discard(keys[index])

        dispatched: "list[int]" = []
        original = ctx.map_cells

        def recording_map_cells(payloads, on_result=None):
            dispatched.extend(p["cell"]["index"] for p in payloads)
            return original(payloads, on_result=on_result)

        ctx.map_cells = recording_map_cells  # type: ignore[method-assign]
        try:
            resumed = runner.run()
        finally:
            ctx.map_cells = original  # type: ignore[method-assign]
        assert sorted(dispatched) == sorted(evicted)
        assert resumed.rows == reference.rows


# --------------------------------------------------------------------- #
# Cache invariance: keys never mention the backend
# --------------------------------------------------------------------- #


class TestCacheBackendInvariance:
    def test_cache_key_never_mentions_a_backend(self):
        runner = SweepRunner(tiny_spec(), ExecutionContext(seed=3))
        for key in runner.cell_cache_keys():
            # Neither where a cell runs nor the LP solver joins the key: no
            # cached pipeline solves an LP.
            assert '"backend"' not in key and '"lp_backend"' not in key

    def test_serial_vectorized_and_cluster_share_cell_keys(self):
        spec = tiny_spec()
        keys = [
            SweepRunner(
                spec, ExecutionContext(seed=3, backend=backend, workers=workers, hosts=hosts)
            ).cell_cache_keys()
            for backend, workers, hosts in (
                ("serial", 0, ()),
                ("vectorized", 0, ()),
                ("process-pool", 2, ()),
                ("cluster", 0, ["127.0.0.1:1"]),
            )
        ]
        assert keys[0] == keys[1] == keys[2] == keys[3]

    def test_cluster_cache_served_verbatim_by_serial_and_vectorized(self):
        """A cache populated by a cluster sweep satisfies serial and
        vectorized reruns without a single recomputation, verbatim."""
        spec = tiny_spec("cluster-cache-diff")
        cache = ResultCache()
        with LocalNodes(count=2) as local:
            coordinator = ClusterCoordinator(local.hosts, cell_timeout=60.0)
            with ExecutionContext(
                seed=3, backend="cluster", coordinator=coordinator, cache=cache
            ) as ctx:
                cluster_result = SweepRunner(spec, ctx).run()
        assert coordinator.stats["completed"] == len(SweepRunner(spec, ExecutionContext(seed=3)).cells())

        for backend in ("serial", "vectorized"):
            hits_before = cache.hits
            with ExecutionContext(seed=3, backend=backend, cache=cache) as ctx:
                replayed = SweepRunner(spec, ctx).run()
            assert cache.hits - hits_before == len(SweepRunner(spec, ctx).cells())
            # Verbatim: identical records, not merely tolerance-close.
            assert replayed.records == cluster_result.records

    def test_serial_cache_served_verbatim_by_cluster(self):
        """The reverse direction: a serial-populated cache means the cluster
        coordinator dispatches nothing at all."""
        spec = tiny_spec("serial-cache-diff")
        cache = ResultCache()
        with ExecutionContext(seed=3, cache=cache) as ctx:
            serial_result = SweepRunner(spec, ctx).run()
        with LocalNodes(count=2) as local:
            coordinator = ClusterCoordinator(local.hosts, cell_timeout=60.0)
            with ExecutionContext(
                seed=3, backend="cluster", coordinator=coordinator, cache=cache
            ) as ctx:
                replayed = SweepRunner(spec, ctx).run()
            assert coordinator.stats["dispatched"] == 0
        assert replayed.records == serial_result.records


# --------------------------------------------------------------------- #
# Coordinator/worker behaviour with in-process nodes (no subprocesses)
# --------------------------------------------------------------------- #


class TestClusterExecution:
    def test_cluster_is_a_registered_backend(self):
        assert "cluster" in BACKENDS

    def test_cluster_backend_requires_hosts(self):
        with pytest.raises(ValueError, match="hosts"):
            ExecutionContext(backend="cluster")
        with pytest.raises(ValueError, match="--hosts"):
            ExecutionContext.from_options(backend="cluster")

    def test_from_options_builds_a_cluster_context(self):
        ctx = ExecutionContext.from_options(
            backend="cluster", hosts="127.0.0.1:1", cell_timeout=7.5, cluster_retries=5
        )
        assert ctx.backend == "cluster"
        assert ctx.cell_timeout == 7.5
        assert ctx.cluster_retries == 5
        assert ctx._local_nodes == 0  # no local nodes behind a cluster context

    def test_unreachable_hosts_raise_cluster_error(self):
        coordinator = ClusterCoordinator(["127.0.0.1:9"], connect_timeout=0.5)
        with pytest.raises(ClusterError, match="no cluster workers reachable"):
            coordinator.connect()

    def test_map_matches_in_process(self):
        with LocalNodes(count=2) as local:
            with ClusterCoordinator(local.hosts) as coordinator:
                assert coordinator.map(str.upper, list("abcdef")) == list("ABCDEF")

    def test_map_cells_preserves_payload_order(self):
        spec = tiny_spec("order-check")
        runner = SweepRunner(spec, ExecutionContext(seed=3))
        payloads = runner.payloads()
        with LocalNodes(count=3) as local:
            with ClusterCoordinator(local.hosts, cell_timeout=60.0) as coordinator:
                results = coordinator.map(run_cell, payloads)
        assert [records[0]["cell"] for records in results] == [
            p["cell"]["index"] for p in payloads
        ]

    def test_map_batch_matches_serial_and_reuses_pushes(self):
        batch = InstanceBatch.from_instances(list(uniform_instances(n=5, count=16, rng=0)))

        serial = ExecutionContext().map_batch(_row_volume, batch)
        with LocalNodes(count=2) as local:
            with ClusterCoordinator(local.hosts) as coordinator:
                ctx = ExecutionContext(backend="cluster", coordinator=coordinator)
                first = ctx.map_batch(_row_volume, batch)
                second = ctx.map_batch(_row_volume, batch)
                # The first map may reach one node or both; either way each
                # node that holds the batch received it exactly once.
                holders = sum(1 for node in local.nodes if node._batches)
                assert holders == sum(1 for worker in coordinator._workers if worker.batches)
                assert coordinator.stats["batches_pushed"] == holders <= 2
        assert np.allclose(first, serial)
        assert np.allclose(second, serial)

    def test_node_keeps_a_bounded_batch_store(self):
        batches = [
            InstanceBatch.from_instances(list(uniform_instances(n=4, count=8, rng=seed)))
            for seed in range(3 * MAX_NODE_BATCHES)
        ]
        with LocalNodes(count=1) as local:
            with ClusterCoordinator(local.hosts) as coordinator:
                ctx = ExecutionContext(backend="cluster", coordinator=coordinator)
                for batch in batches:
                    assert ctx.map_batch(_row_volume, batch) == _row_volume(batch)
                assert len(local.nodes[0]._batches) == MAX_NODE_BATCHES
                # The first batch was evicted on the node but the coordinator
                # still believes it is there: the node reports the unknown
                # batch and gets it pushed again, without burning a retry.
                pushed = coordinator.stats["batches_pushed"]
                assert ctx.map_batch(_row_volume, batches[0]) == _row_volume(batches[0])
                assert coordinator.stats["batches_pushed"] == pushed + 1
                assert coordinator.stats["retries"] == 0

    def test_oversized_push_is_refused_before_sending(self, monkeypatch):
        batch = InstanceBatch.from_instances(list(uniform_instances(n=8, count=64, rng=0)))
        with LocalNodes(count=2) as local:
            with ClusterCoordinator(local.hosts) as coordinator:
                monkeypatch.setattr(cluster, "MAX_CLUSTER_LINE_BYTES", 4096)
                with pytest.raises(ClusterError, match=r"PushBatch message of \d+ bytes exceeds the 4096-byte"):
                    coordinator.map_batch(_row_volume, batch)
                assert coordinator.stats["dispatched"] == 0
                assert coordinator.live_workers() == 2  # nobody was retired
                assert coordinator.map(str.upper, ["a", "b"]) == ["A", "B"]

    def test_previous_protocol_version_fails_the_handshake(self):
        """A coordinator of the previous protocol (with cell messages) is refused."""
        with LocalNodes(count=1) as local:
            host, port = parse_hosts(local.hosts)[0]
            with socket.create_connection((host, port), timeout=10.0) as sock:
                sock.sendall(encode_cluster_line(Handshake(protocol=PROTOCOL_VERSION - 1)))
                reply = decode_cluster_line(sock.makefile("rb").readline().rstrip(b"\n"))
        assert isinstance(reply, JobFailed) and not reply.retryable
        assert "protocol version mismatch" in reply.error

    def test_remote_exception_becomes_cluster_error(self):
        with LocalNodes(count=1) as local:
            with ClusterCoordinator(local.hosts, max_retries=1) as coordinator:
                with pytest.raises(ClusterError, match="boom"):
                    coordinator.map(_explode, [1])
                # The worker survives a failing job and keeps serving.
                assert coordinator.map(str.lower, ["OK"]) == ["ok"]

    def test_function_exception_fails_the_map_without_retries(self):
        """An exception raised by the mapped function is not a lost worker:
        the map fails on first sight, with the node's ``Type: message``."""
        with ExecutionContext(workers=2) as ctx:
            with pytest.raises(ClusterError, match=r"failed: ValueError: boom [12]$"):
                ctx.map(_explode, [1, 2])
            stats = ctx.coordinator.stats
            assert stats["retries"] == 0 and stats["reassigned"] == 0
            # Each of the two chunk jobs was sent at most once (the second
            # may not have left before the first failure ended the map).
            assert 1 <= stats["dispatched"] <= 2
            assert ctx.map(abs, [-1, -2]) == [1, 2]  # both nodes still serve

    def test_heartbeat_detects_dead_worker(self):
        with LocalNodes(count=2) as local:
            coordinator = ClusterCoordinator(local.hosts)
            assert coordinator.connect() == 2
            local.nodes[0].stop()
            assert coordinator.ping() == 1
            assert coordinator.stats["dead_workers"] == 1
            coordinator.close()

    def test_drain_message_stops_a_node(self):
        with LocalNodes(count=1) as local:
            coordinator = ClusterCoordinator(local.hosts)
            coordinator.connect()
            assert coordinator.drain_workers() == 1
            assert local.nodes[0].draining
            coordinator.close()

    def test_abort_after_raises_cluster_aborted(self):
        spec = tiny_spec("abort-check")
        payloads = SweepRunner(spec, ExecutionContext(seed=3)).payloads()
        with LocalNodes(count=2) as local:
            coordinator = ClusterCoordinator(
                local.hosts, cell_timeout=60.0, abort_after=2
            )
            with pytest.raises(ClusterAborted):
                coordinator.map(run_cell, payloads)
            assert coordinator.stats["completed"] >= 2
            coordinator.close()


# --------------------------------------------------------------------- #
# Chaos: real localhost worker subprocesses
# --------------------------------------------------------------------- #


@pytest.mark.chaos
class TestChaos:
    def test_sweep_matches_serial_across_three_workers(self):
        spec = tiny_spec("chaos-baseline")
        serial = run_serial(spec)
        with WorkerFleet(count=3) as fleet:
            with ExecutionContext(
                seed=3, backend="cluster", hosts=fleet.hosts, cell_timeout=120.0
            ) as ctx:
                clustered = SweepRunner(spec, ctx).run()
        assert_tables_close(clustered, serial)

    def test_worker_killed_mid_sweep_loses_no_work_twice(self):
        """One node dies on the first job of its own shard without replying
        (os._exit on job arrival — the deterministic kill -9).  The sweep
        must finish, match serial, and record every cell exactly once."""
        spec = tiny_spec("chaos-kill", cells=6)
        serial = run_serial(spec)
        with WorkerFleet(count=3, die_after={0: 1}) as fleet:
            coordinator = ClusterCoordinator(
                fleet.hosts, cell_timeout=120.0, max_retries=2
            )
            with ExecutionContext(
                seed=3, backend="cluster", coordinator=coordinator
            ) as ctx:
                clustered = SweepRunner(spec, ctx).run()
            stats = dict(coordinator.stats)
        assert_tables_close(clustered, serial)
        assert stats["dead_workers"] >= 1
        assert stats["reassigned"] >= 1
        # First completion wins and every cell is recorded exactly once: the
        # records of a 6-cell, 2-policy sweep are exactly 12, and the engine
        # observed no duplicate completions.
        assert len(clustered.records) == len(serial.records)
        assert stats["duplicates"] == 0
        # No cell ran its lost work twice: each reassigned cell completed on
        # its second home, so completions never exceed cells.
        assert stats["completed"] == len(SweepRunner(spec, ExecutionContext(seed=3)).cells())

    def test_straggler_past_cell_timeout_is_reassigned(self):
        """One node sleeps past the per-cell timeout on every job; the
        coordinator must declare it dead and reassign to live workers."""
        spec = tiny_spec("chaos-straggler")
        serial = run_serial(spec)
        with WorkerFleet(count=3, delays={2: 30.0}) as fleet:
            coordinator = ClusterCoordinator(
                fleet.hosts, cell_timeout=2.0, max_retries=2
            )
            with ExecutionContext(
                seed=3, backend="cluster", coordinator=coordinator
            ) as ctx:
                clustered = SweepRunner(spec, ctx).run()
            stats = dict(coordinator.stats)
        assert_tables_close(clustered, serial)
        assert stats["dead_workers"] >= 1
        assert stats["duplicates"] == 0

    def test_coordinator_restart_resumes_from_last_completed_cell(self, tmp_path):
        """Kill the coordinator mid-sweep (abort_after), restart with the
        same --cache-dir, and assert the resumed run dispatches exactly the
        uncached remainder and ends tolerance-identical to serial."""
        spec = tiny_spec("chaos-restart", cells=6)
        serial = run_serial(spec)
        cache_dir = str(tmp_path / "cache")
        with WorkerFleet(count=2) as fleet:
            # First coordinator: dies after 2 completed cells.
            ctx = ExecutionContext.from_options(
                seed=3, backend="cluster", hosts=",".join(fleet.hosts), cache_dir=cache_dir
            )
            ctx.coordinator = ClusterCoordinator(
                fleet.hosts, cell_timeout=120.0, abort_after=2
            )
            with pytest.raises(ClusterAborted):
                SweepRunner(spec, ctx).run()
            ctx.coordinator.close()
            # The incremental persistence wrote the completed cells through.
            resumed_cache = ResultCache(
                path=str(tmp_path / "cache" / "results-cache.json")
            )
            cached_cells = len(resumed_cache)
            assert cached_cells >= 2

            # Restarted coordinator, same cache dir: only the remainder runs.
            ctx2 = ExecutionContext.from_options(
                seed=3, backend="cluster", hosts=",".join(fleet.hosts), cache_dir=cache_dir
            )
            with ctx2:
                resumed = SweepRunner(spec, ctx2).run()
                total_cells = len(SweepRunner(spec, ctx2).cells())
                assert ctx2.coordinator.stats["dispatched"] == total_cells - cached_cells
        assert_tables_close(resumed, serial)

    def test_sigterm_drains_a_worker_cleanly(self):
        with WorkerFleet(count=2) as fleet:
            coordinator = ClusterCoordinator(fleet.hosts)
            assert coordinator.connect() == 2
            assert fleet.terminate(0) == 0  # graceful drain, clean exit
            assert coordinator.ping() == 1
            coordinator.close()

    def test_all_workers_dead_fails_loudly(self):
        with WorkerFleet(count=1) as fleet:
            coordinator = ClusterCoordinator(
                fleet.hosts, cell_timeout=5.0, max_retries=1
            )
            coordinator.connect()
            fleet.kill(0)
            with pytest.raises(ClusterError):
                coordinator.map(str.upper, list("abc"))
            coordinator.close()
