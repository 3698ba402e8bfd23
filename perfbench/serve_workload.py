"""``serve``: a seeded request stream through a durable ``SchedulerService``.

One closed-loop caller pushes every pre-encoded NDJSON request through
``decode_line -> SchedulerService.handle -> encode_line``: the full
request path of ``malleable-repro serve`` except the socket.  The service
runs in virtual time with its write-ahead journal on local disk and the
default ``fsync='interval'`` and ``snapshot_every``.

The stream is fixed in length.  Submissions arrive as a Poisson process
in virtual time at :data:`LOAD` of the platform's capacity; weights are
Pareto, caps are whole processors in 1..8.  A quarter of the requests
are share queries and one in twenty a cancel; two client ids send
idempotency keys, and some of their submissions are sent twice (a retry
that the idempotency table must absorb).
"""

from __future__ import annotations

import math
import os
import shutil
import time
from pathlib import Path

import numpy as np

from harness import Breakdown, Checks, Pass, Tracer, WorkloadBase

#: Platform size of the live system.
P = 64.0
#: Offered load: submitted work per unit virtual time over ``P``.
LOAD = 0.85
#: Mean task volume (exponential).
MEAN_VOLUME = 6.0
#: Request mix (the rest are submissions).
SHARE_FRACTION = 0.25
CANCEL_FRACTION = 0.05
#: Share of keyed submissions the client sends a second time.
RETRY_FRACTION = 0.05
#: Share queries and cancels target one of this many latest submissions.
RECENT = 32
#: Requests per second of ``--seconds``: fixed work, sized to take about
#: that long on a 2-vCPU host.
REQUESTS_PER_SECOND = 1400

_REL = 1e-9


def state_difference(live: object, recovered: object, path: str = "state") -> "str | None":
    """Where two ``to_snapshot()`` payloads differ, or None.

    Equality is exact except for floats, which may differ by rounding
    (``rel/abs 1e-9``), and for ``num_events``, which is not compared.
    Share queries and no-op cancels advance the live engine to their
    ``now`` but are not journaled, so replay takes fewer, longer steps
    and lands on the same trajectory only up to the last few bits.
    """
    if isinstance(live, dict) and isinstance(recovered, dict):
        if live.keys() != recovered.keys():
            return f"{path}: keys {sorted(live.keys() ^ recovered.keys())}"
        for key in live:
            if key == "num_events":
                continue
            found = state_difference(live[key], recovered[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(live, list) and isinstance(recovered, list):
        if len(live) != len(recovered):
            return f"{path}: length {len(live)} != {len(recovered)}"
        for index, (a, b) in enumerate(zip(live, recovered)):
            found = state_difference(a, b, f"{path}[{index}]")
            if found:
                return found
        return None
    if isinstance(live, float) and isinstance(recovered, float):
        if math.isclose(live, recovered, rel_tol=_REL, abs_tol=_REL):
            return None
    elif live == recovered:
        return None
    return f"{path}: {live!r} != {recovered!r}"


def make_stream(seed: "int | list[int]", count: int) -> "tuple[list[object], list[tuple[str, str, float]]]":
    """``count`` requests and, for each, what its reply must say.

    Expectations are ``(kind, task_id, cap)``; task ids are predictable
    because the service names the k-th new task ``t<k>``.
    """
    from repro.api import CancelTask, QueryShare, SubmitTask

    rng = np.random.default_rng(seed)
    submit_rate = LOAD * P / MEAN_VOLUME
    event_rate = submit_rate / (1.0 - SHARE_FRACTION - CANCEL_FRACTION)
    requests: "list[object]" = []
    expected: "list[tuple[str, str, float]]" = []
    caps: "list[float]" = []
    now = 0.0
    while len(requests) < count:
        now += float(rng.exponential(1.0 / event_rate))
        draw = rng.random()
        client = ("c0", "c1", "", "")[int(rng.integers(4))]
        if caps and draw < SHARE_FRACTION:
            target = len(caps) - 1 - int(rng.integers(min(RECENT, len(caps))))
            requests.append(QueryShare(task_id=f"t{target}", now=now))
            expected.append(("share", f"t{target}", caps[target]))
        elif caps and draw < SHARE_FRACTION + CANCEL_FRACTION:
            target = len(caps) - 1 - int(rng.integers(min(RECENT, len(caps))))
            key = f"x{len(requests)}" if client else None
            requests.append(CancelTask(task_id=f"t{target}", client=client, now=now, idempotency_key=key))
            expected.append(("cancel", f"t{target}", 0.0))
        else:
            volume = max(float(rng.exponential(MEAN_VOLUME)), 0.05)
            weight = 1.0 + float(rng.pareto(1.5))
            delta = float(rng.integers(1, 9))
            key = f"s{len(requests)}" if client else None
            task_id = f"t{len(caps)}"
            caps.append(min(delta, P))
            submit = SubmitTask(
                volume=volume, weight=weight, delta=delta, client=client, now=now, idempotency_key=key
            )
            requests.append(submit)
            expected.append(("submit", task_id, caps[-1]))
            if key and rng.random() < RETRY_FRACTION:
                requests.append(submit)
                expected.append(("retry", task_id, caps[-1]))
    return requests[:count], expected[:count]


class Workload(WorkloadBase):
    """The ``serve`` workload: one seeded stream per input set, one fresh service per repetition."""

    SETS = 6

    def __init__(self, work_dir: Path, seed: int, seconds: int, reps: int):
        self.work_dir = work_dir
        self.seed = seed
        self.count = max(1, REQUESTS_PER_SECOND * seconds // reps)
        self.service = None

    # -- set-up ----------------------------------------------------------- #

    def setup(self) -> None:
        """Imports, then a durable service constructed and recovered."""
        from repro.service import protocol, server

        self.protocol, self.server = protocol, server
        journal_dir = self.work_dir / f"journal-{os.getpid()}"
        config = server.ServiceConfig(P=P, virtual_time=True, journal_dir=str(journal_dir))
        self.service = server.SchedulerService(config)

    def prepare(self, input_set: int) -> None:
        """Build and pre-encode the request stream of ``input_set`` (untimed)."""
        requests, self.expected = make_stream([self.seed, input_set], self.count)
        self.lines = [self.protocol.encode_line(request) for request in requests]

    # -- timed passes ---------------------------------------------------- #

    def run(self, rep: int, tracer: "Tracer | None" = None) -> Pass:
        """Push the stream through the service set up for this repetition."""
        service, lines, expected = self.service, self.lines, self.expected
        decode, encode = self.protocol.decode_line, self.protocol.encode_line
        if tracer is None:
            return self._loop(service, lines, expected, decode, service.handle, encode)
        from repro.batch import sim_kernels
        from repro.service import journal, state

        def fsync_layer(parent: "str | None") -> str:
            return "journal.fsync" if parent == "journal.append" else "journal.snapshot_fsync"

        with tracer.patched(
            (state.LiveSystemState, "submit", "state.submit"),
            (state.LiveSystemState, "share_of", "state.share"),
            (state.LiveSystemState, "cancel", "state.cancel"),
            (state, "advance_simulation_state", "sim_kernels.advance"),
            (sim_kernels.WdeqBatchPolicy, "allocate", "policy.allocate"),
            (journal.Journal, "append", "journal.append"),
            (journal.ServiceDurability, "write_snapshot", "journal.snapshot"),
            (os, "fsync", fsync_layer),
        ):
            result = self._loop(
                service,
                lines,
                expected,
                tracer.wrap("protocol.decode", decode),
                tracer.wrap("server.handle", service.handle),
                tracer.wrap("protocol.encode", encode),
            )
        result.breakdown = Breakdown(result.seconds, tracer.stats())
        return result

    @staticmethod
    def _loop(service, lines, expected, decode, handle, encode) -> Pass:
        events_before = service.state.total_events
        latencies = [0.0] * len(lines)
        replies: "list[bytes]" = [b""] * len(lines)
        perf = time.perf_counter
        start = perf()
        for i, line in enumerate(lines):
            sent = perf()
            replies[i] = encode(handle(decode(line)))
            latencies[i] = perf() - sent
        seconds = perf() - start
        result = Pass(len(lines), seconds, latencies, output=(service, expected, replies))
        result.layers["sim_kernels.events"] = float(service.state.total_events - events_before)
        return result

    # -- output checks ---------------------------------------------------- #

    def finish(self, result: Pass) -> Checks:
        """Every reply is a well-formed non-error, and the journal recovers the live state."""
        from repro.api import CancelReply, ShareReply, SubmitReply

        service, expected, replies = result.output
        result.output = None
        checks = Checks()
        for (kind, task_id, cap), line in zip(expected, replies):
            reply = self.protocol.decode_line(line)
            if kind in ("submit", "retry"):
                ok = (
                    isinstance(reply, SubmitReply)
                    and reply.task_id == task_id
                    and reply.deduplicated == (kind == "retry")
                    and 0.0 <= reply.share <= cap * (1 + _REL)
                )
            elif kind == "share":
                ok = (
                    isinstance(reply, ShareReply)
                    and reply.task_id == task_id
                    and 0.0 <= reply.share <= cap * (1 + _REL)
                )
            else:
                ok = isinstance(reply, CancelReply) and reply.task_id == task_id
            checks.expect(ok, f"{kind} {task_id}: {reply!r}")
        recovered = self.server.SchedulerService(service.config)
        try:
            # Recovery restores the last journaled mutation; queries after it
            # moved only the live clock, so bring the copy to the same time.
            recovered.state.advance_to(service.state.now)
            difference = state_difference(service.state.to_snapshot(), recovered.state.to_snapshot())
            checks.expect(difference is None, f"recovered service differs at {difference}")
        finally:
            recovered.close()
        return checks

    # -- reporting -------------------------------------------------------- #

    def layer_metrics(self, traced: Pass) -> "dict[str, float]":
        breakdown = traced.breakdown
        n = traced.operations

        def mean_us(name: str) -> float:
            entry = breakdown.get(name)
            return entry.total_s / entry.calls * 1e6 if entry.calls else 0.0

        snapshots = breakdown.get("journal.snapshot")
        fsync = breakdown.get("journal.fsync")
        return {
            "protocol.decode_us": mean_us("protocol.decode"),
            "protocol.encode_us": mean_us("protocol.encode"),
            "server.self_us": breakdown.get("server.handle").self_s / n * 1e6,
            "state.submit_us": mean_us("state.submit"),
            "state.share_us": mean_us("state.share"),
            "state.cancel_us": mean_us("state.cancel"),
            "sim_kernels.advance_calls_per_req": breakdown.get("sim_kernels.advance").calls / n,
            "sim_kernels.advance_us": mean_us("sim_kernels.advance"),
            "sim_kernels.events": traced.layers["sim_kernels.events"],
            "policy.allocate_calls_per_req": breakdown.get("policy.allocate").calls / n,
            "journal.append_us": mean_us("journal.append"),
            "journal.fsyncs": float(fsync.calls),
            "journal.fsync_s": fsync.total_s,
            "journal.snapshots": float(snapshots.calls),
            "journal.snapshot_ms": mean_us("journal.snapshot") / 1e3,
        }

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            shutil.rmtree(self.service.config.journal_dir, ignore_errors=True)
            self.service = None
