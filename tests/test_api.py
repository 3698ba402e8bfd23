"""Tests for the stable facade: repro.api messages and the lazy repro exports.

The api module is the single schema shared by the wire protocol, the client
and in-process callers, so the encode/decode pair must be lossless for every
message type and *strict* on malformed payloads (structured
:class:`~repro.api.ProtocolError`, never a bare ``TypeError``).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import (
    MESSAGE_TYPES,
    REPLY_TYPES,
    REQUEST_TYPES,
    CancelReply,
    ErrorReply,
    HealthReply,
    MetricsReply,
    ProtocolError,
    QueryShare,
    ShareReply,
    SimulateReply,
    SimulateRequest,
    StateReply,
    SubmitReply,
    SubmitTask,
    decode_message,
    encode_message,
    message_type,
)
from repro.service.protocol import decode_line, encode_line

#: One representative instance per message type, non-default everywhere.
_EXAMPLES = [
    SubmitTask(
        volume=4.0,
        weight=2.0,
        delta=3.0,
        task_id="job-1",
        client="c1",
        now=1.5,
        idempotency_key="sub-1",
    ),
    MESSAGE_TYPES["cancel_task"](task_id="job-1", client="c1", now=2.0, idempotency_key="can-1"),
    QueryShare(task_id="job-1", project=True, client="c1", now=2.5),
    MESSAGE_TYPES["query_state"](now=3.0),
    MESSAGE_TYPES["metrics"](),
    MESSAGE_TYPES["health"](),
    SimulateRequest(
        P=4.0,
        volumes=(1.0, 2.0),
        weights=(1.0, 3.0),
        deltas=(2.0, 2.0),
        policy="deq",
        release_times=(0.0, 0.5),
    ),
    SubmitReply(task_id="job-1", now=1.5, share=2.0, live_tasks=3, deduplicated=True),
    CancelReply(task_id="job-1", cancelled=True, now=2.0, status="cancelled"),
    ShareReply(
        task_id="job-1",
        status="running",
        share=2.0,
        remaining=1.25,
        now=2.5,
        completion_time=None,
        projected_completion=3.125,
    ),
    StateReply(now=3.0, live_tasks=2, submitted=5, completed=2, cancelled=1, rejected=0),
    MetricsReply(metrics={"counters": {"requests_total": 7}}),
    HealthReply(
        status="ok",
        now=3.0,
        live_tasks=2,
        draining=False,
        durable=True,
        recovered_events=4,
        recovery_seconds=0.25,
    ),
    SimulateReply(
        completion_times=(1.0, 2.0), weighted_completion_time=7.0, makespan=2.0, num_events=2
    ),
    ErrorReply(code="rate_limited", message="slow down"),
]


class TestRoundTrips:
    @pytest.mark.parametrize("message", _EXAMPLES, ids=lambda m: type(m).__name__)
    def test_encode_decode_is_lossless(self, message):
        payload = encode_message(message)
        assert payload["type"] == message_type(message)
        assert decode_message(payload) == message

    @pytest.mark.parametrize("message", _EXAMPLES, ids=lambda m: type(m).__name__)
    def test_payload_survives_json(self, message):
        # The wire carries JSON: the dict must serialise, and the decoded
        # object (tuples becoming lists) must still rebuild the dataclass.
        wire = json.loads(json.dumps(encode_message(message)))
        assert decode_message(wire) == message

    @pytest.mark.parametrize("message", _EXAMPLES, ids=lambda m: type(m).__name__)
    def test_wire_bytes_are_stable(self, message):
        # The registry caches each type's field names; the line on the wire
        # must still be the one a fresh ``dataclasses.fields`` walk yields
        # (tag first, then fields in declaration order), and decoding it
        # must re-encode to the very same bytes.
        reference = {"type": message_type(message)}
        for f in dataclasses.fields(message):
            value = getattr(message, f.name)
            reference[f.name] = list(value) if isinstance(value, tuple) else value
        line = encode_line(message)
        assert line == json.dumps(reference, separators=(",", ":")).encode() + b"\n"
        assert encode_line(decode_line(line)) == line

    def test_wire_bytes_are_pinned(self):
        assert encode_line(_EXAMPLES[0]) == (
            b'{"type":"submit_task","volume":4.0,"weight":2.0,"delta":3.0,'
            b'"task_id":"job-1","client":"c1","now":1.5,"idempotency_key":"sub-1"}\n'
        )
        assert encode_line(_EXAMPLES[-2]) == (
            b'{"type":"simulate_reply","completion_times":[1.0,2.0],'
            b'"weighted_completion_time":7.0,"makespan":2.0,"num_events":2}\n'
        )

    def test_every_registered_type_is_covered(self):
        assert {type(m) for m in _EXAMPLES} == set(MESSAGE_TYPES.values())
        assert set(REQUEST_TYPES) | set(REPLY_TYPES) == set(MESSAGE_TYPES.values())

    def test_all_messages_are_frozen_dataclasses(self):
        for cls in MESSAGE_TYPES.values():
            assert dataclasses.is_dataclass(cls)
            assert cls.__dataclass_params__.frozen  # type: ignore[attr-defined]
        with pytest.raises(dataclasses.FrozenInstanceError):
            _EXAMPLES[0].volume = 1.0  # type: ignore[misc]

    def test_tuple_fields_decode_to_tuples(self):
        request = decode_message(
            {"type": "simulate", "P": 2.0, "volumes": [1.0], "weights": [1.0], "deltas": [1.0]}
        )
        assert isinstance(request, SimulateRequest)
        assert request.volumes == (1.0,)
        assert hash(request) == hash(request)  # tuples keep it hashable


class TestStrictDecoding:
    def test_unknown_type_tag(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_message({"type": "frobnicate"})
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_message({"volume": 1.0})

    def test_non_mapping_payload(self):
        with pytest.raises(ProtocolError, match="expected a mapping"):
            decode_message(["submit_task"])  # type: ignore[arg-type]

    def test_unexpected_field(self):
        with pytest.raises(ProtocolError, match="unexpected field 'priority'"):
            decode_message({"type": "submit_task", "volume": 1.0, "priority": 9})

    def test_missing_required_field(self):
        with pytest.raises(ProtocolError, match="invalid 'submit_task' message"):
            decode_message({"type": "submit_task"})

    def test_foreign_object_has_no_wire_tag(self):
        with pytest.raises(ProtocolError, match="not a repro.api message type"):
            message_type(object())
        with pytest.raises(ProtocolError):
            encode_message({"type": "submit_task"})  # dicts are not messages


class TestFacadeExports:
    def test_blessed_entrypoints_resolve_lazily(self):
        import repro

        from repro.exec import ExecutionContext
        from repro.lp.batch import optimal
        from repro.service import SchedulerService

        assert repro.ExecutionContext is ExecutionContext
        assert repro.optimal is optimal
        assert repro.SchedulerService is SchedulerService

    def test_dir_lists_the_facade(self):
        import repro

        listing = dir(repro)
        for name in ("ExecutionContext", "simulate_batch", "optimal", "SchedulerService"):
            assert name in listing

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError, match="no_such_symbol"):
            repro.no_such_symbol
