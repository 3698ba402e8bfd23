"""Tests for repro.service.journal: framing, WAL, snapshots, recovery.

The durability contract under test:

* CRC framing round-trips every newline-free body and rejects every
  single-bit mutation (property-based);
* a journal truncated at *any* byte offset inside its tail record recovers
  exactly the acknowledged prefix — no acked record lost, no torn record
  resurrected (exhaustive over offsets);
* snapshot + journal-suffix replay rebuilds the same
  :class:`~repro.service.state.LiveSystemState` as a full from-scratch
  replay, bit-for-bit (property-based over random op sequences);
* sealed-segment corruption fails loudly (:class:`JournalCorruptError`)
  instead of serving a half-replayed state.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import SubmitReply, decode_message
from repro.service.journal import (
    JOURNAL_REGISTRY,
    IdempotencyTable,
    Journal,
    JournalCancel,
    JournalCorruptError,
    JournalSubmit,
    ServiceDurability,
    SnapshotStore,
    inspect_journal,
    recover_state,
)
from repro.service.protocol import crc_frame, crc_unframe
from repro.service.state import LiveSystemState

# ---------------------------------------------------------------------------
# CRC framing (property-based)
# ---------------------------------------------------------------------------

_bodies = st.binary(min_size=0, max_size=200).filter(lambda b: b"\n" not in b)


class TestFraming:
    @given(_bodies)
    def test_round_trip(self, body):
        assert crc_unframe(crc_frame(body)) == body

    @given(_bodies, st.integers(min_value=0, max_value=10_000), st.integers(0, 7))
    def test_single_bit_flip_never_yields_a_different_body(self, body, pos, bit):
        line = bytearray(crc_frame(body))
        line[pos % len(line)] ^= 1 << bit
        # A mutation may be harmless (e.g. hex-case in the CRC prefix) but
        # must never validate into a *different* body.
        assert crc_unframe(bytes(line)) in (None, body)

    def test_newline_in_body_rejected(self):
        with pytest.raises(ValueError, match="newline"):
            crc_frame(b"two\nlines")

    @pytest.mark.parametrize(
        "line",
        [b"", b"\n", b"0123\n", b"0123456x payload\n", b"0123456789\n", b"00000000 body"],
    )
    def test_malformed_frames_return_none(self, line):
        assert crc_unframe(line) is None

    @given(
        st.floats(min_value=0.01, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.01, max_value=64.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.one_of(st.none(), st.text(min_size=1, max_size=20)),
    )
    def test_journal_record_codec_round_trips(self, volume, weight, delta, now, key):
        record = JournalSubmit(
            task_id="t1", volume=volume, weight=weight, delta=delta, now=now,
            idempotency_key=key,
        )
        # Through JSON, as the journal stores it: floats must survive exactly
        # (repr round-trips IEEE doubles).
        wire = json.loads(json.dumps(JOURNAL_REGISTRY.encode(record)))
        assert JOURNAL_REGISTRY.decode(wire) == record


# ---------------------------------------------------------------------------
# The write-ahead log
# ---------------------------------------------------------------------------


def _submit(i: int, key: "str | None" = None) -> JournalSubmit:
    return JournalSubmit(
        task_id=f"t{i}", volume=1.0 + i, weight=1.0, delta=2.0, now=float(i),
        idempotency_key=key,
    )


class TestJournal:
    def test_append_replay_round_trip(self, tmp_path):
        with Journal(tmp_path) as journal:
            for i in range(5):
                assert journal.append(_submit(i)) == i + 1
            journal.append(JournalCancel(task_id="t2", now=7.0))
        with Journal(tmp_path) as journal:
            replayed = list(journal.replay())
        assert [seq for seq, _ in replayed] == list(range(1, 7))
        assert replayed[0][1] == _submit(0)
        assert replayed[-1][1] == JournalCancel(task_id="t2", now=7.0)

    def test_replay_after_seq_skips_the_prefix(self, tmp_path):
        with Journal(tmp_path) as journal:
            for i in range(6):
                journal.append(_submit(i))
            assert [seq for seq, _ in journal.replay(after_seq=4)] == [5, 6]

    def test_reopen_resumes_sequence_numbers(self, tmp_path):
        with Journal(tmp_path) as journal:
            journal.append(_submit(0))
        with Journal(tmp_path) as journal:
            assert journal.last_seq == 1
            assert journal.append(_submit(1)) == 2

    def test_rotation_and_compaction(self, tmp_path):
        with Journal(tmp_path, segment_bytes=1) as journal:  # one record per segment
            for i in range(4):
                journal.append(_submit(i))
            assert len(journal.segment_paths()) == 4
            assert [seq for seq, _ in journal.replay()] == [1, 2, 3, 4]
            # Seqs 1-2 are covered: their segments go; 3 is covered but its
            # successor starts at 4 > 2+1, so it must stay.
            assert journal.compact(upto_seq=2) == 2
            assert [seq for seq, _ in journal.replay()] == [3, 4]
            # The active segment survives even when fully covered.
            assert journal.compact(upto_seq=10) == 1
            assert [seq for seq, _ in journal.replay()] == [4]

    def test_truncation_at_every_byte_offset_of_the_tail(self, tmp_path):
        """Crash-point sweep: cut the tail file at every offset.

        Whatever the cut point, reopening must recover exactly the records
        whose final newline made it to disk — acknowledged records survive,
        the torn one vanishes, and appends continue from the right seq.
        """
        reference = tmp_path / "ref"
        with Journal(reference) as journal:
            for i in range(3):
                journal.append(_submit(i, key=f"k{i}"))
        (segment,) = Journal(reference).segment_paths()
        data = segment.read_bytes()
        boundaries = [0]
        offset = 0
        while offset < len(data):
            offset = data.index(b"\n", offset) + 1
            boundaries.append(offset)
        assert len(boundaries) == 4  # 3 records
        for cut in range(len(data) + 1):
            work = tmp_path / f"cut{cut}"
            shutil.copytree(reference, work)
            (tail,) = [p for p in work.iterdir() if p.suffix == ".wal"]
            with open(tail, "rb+") as handle:
                handle.truncate(cut)
            with Journal(work) as journal:
                survivors = sum(1 for boundary in boundaries[1:] if boundary <= cut)
                assert journal.truncated_bytes == cut - boundaries[survivors]
                assert [s for s, _ in journal.replay()] == list(range(1, survivors + 1))
                assert journal.append(_submit(9)) == survivors + 1
            shutil.rmtree(work)

    def test_garbage_tail_is_truncated_and_overwritten(self, tmp_path):
        with Journal(tmp_path) as journal:
            journal.append(_submit(0))
        (segment,) = Journal(tmp_path).segment_paths()
        with open(segment, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef partial")
        with Journal(tmp_path) as journal:
            assert journal.truncated_bytes == len(b"\xde\xad\xbe\xef partial")
            assert journal.last_seq == 1
            journal.append(_submit(1))
            assert [s for s, _ in journal.replay()] == [1, 2]

    def test_corrupt_sealed_segment_raises(self, tmp_path):
        with Journal(tmp_path, segment_bytes=1) as journal:
            for i in range(3):
                journal.append(_submit(i))
        first = Journal(tmp_path).segment_paths()[0]
        data = bytearray(first.read_bytes())
        data[len(data) // 2] ^= 0xFF
        first.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError, match="sealed segment"):
            list(Journal(tmp_path).replay())

    def test_sequence_gap_raises(self, tmp_path):
        with Journal(tmp_path, segment_bytes=1) as journal:
            for i in range(3):
                journal.append(_submit(i))
        middle = Journal(tmp_path).segment_paths()[1]
        middle.unlink()
        with pytest.raises(JournalCorruptError, match="sequence gap"):
            list(Journal(tmp_path).replay())

    @pytest.mark.parametrize(
        "kwargs",
        [{"fsync": "sometimes"}, {"fsync_interval": 0.0}, {"segment_bytes": 0}],
    )
    def test_invalid_knobs_rejected(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            Journal(tmp_path, **kwargs)

    @pytest.mark.parametrize("fsync", ["always", "interval", "off"])
    def test_every_fsync_policy_writes_identical_bytes(self, tmp_path, fsync):
        directory = tmp_path / fsync
        with Journal(directory, fsync=fsync) as journal:
            for i in range(3):
                journal.append(_submit(i))
        (segment,) = Journal(directory).segment_paths()
        baseline = tmp_path / "baseline"
        with Journal(baseline, fsync="off") as journal:
            for i in range(3):
                journal.append(_submit(i))
        assert segment.read_bytes() == Journal(baseline).segment_paths()[0].read_bytes()


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


class TestSnapshotStore:
    def test_write_read_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        path = store.write(7, {"state": {"x": 1.5}, "rejected": 2})
        payload = SnapshotStore.read(path)
        assert payload == {"seq": 7, "state": {"x": 1.5}, "rejected": 2}

    def test_keeps_only_the_newest(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        for seq in (1, 2, 3):
            store.write(seq, {"state": {}})
        assert [SnapshotStore.read(p)["seq"] for p in store.paths()] == [2, 3]

    def test_corrupt_latest_falls_back_to_predecessor(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        store.write(1, {"state": {"good": True}})
        latest = store.write(2, {"state": {}})
        latest.write_bytes(b"00000000 not-the-right-checksum\n")
        payload = store.load_latest()
        assert payload is not None and payload["seq"] == 1

    def test_no_valid_snapshot_returns_none(self, tmp_path):
        store = SnapshotStore(tmp_path)
        assert store.load_latest() is None
        store.write(1, {"state": {}})
        for path in store.paths():
            path.write_bytes(b"torn")
        assert store.load_latest() is None


class TestIdempotencyTable:
    def test_lru_eviction(self):
        table = IdempotencyTable(capacity=2)
        table.put("a", 1)
        table.put("b", 2)
        assert table.get("a") == 1  # refreshes 'a'
        table.put("c", 3)  # evicts 'b', the least recently used
        assert table.get("b") is None
        assert table.get("a") == 1 and table.get("c") == 3
        assert len(table) == 2

    def test_encode_load_round_trip(self):
        table = IdempotencyTable()
        reply = SubmitReply(task_id="t1", now=2.0, share=4.0, live_tasks=1)
        table.put("key", reply)
        restored = IdempotencyTable()
        restored.load(json.loads(json.dumps(table.encode())))
        assert restored.get("key") == reply

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            IdempotencyTable(capacity=0)


# ---------------------------------------------------------------------------
# State snapshot round-trip + recovery equivalence
# ---------------------------------------------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
            st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
            st.floats(min_value=0.5, max_value=6.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=0.8, allow_nan=False),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
    ),
    min_size=1,
    max_size=30,
)


def _apply(state: LiveSystemState, ops, on_op=None) -> "list[tuple]":
    """Run an op list; returns the resolved (replayable) operations.

    ``on_op(state, resolved_op)`` fires after each applied operation — the
    hook the durability tests use to journal apply-by-apply, exactly as the
    live server interleaves them.
    """
    now = 0.0
    submitted: "list[str]" = []
    resolved = []
    for op in ops:
        if op[0] == "submit":
            _, volume, weight, delta, dt = op
            now += dt
            record = state.submit(volume, weight, delta, now=now)
            submitted.append(record.task_id)
            resolved.append(("submit", record.task_id, volume, weight, delta, now))
        else:
            _, index = op
            if not submitted:
                continue
            task_id = submitted[index % len(submitted)]
            now += 0.05
            state.cancel(task_id, now=now)
            resolved.append(("cancel", task_id, now))
        if on_op is not None:
            on_op(state, resolved[-1])
    return resolved


def _replay(resolved, P=8.0) -> LiveSystemState:
    state = LiveSystemState(P=P)
    for op in resolved:
        if op[0] == "submit":
            _, task_id, volume, weight, delta, now = op
            state.submit(volume, weight, delta, now=now, task_id=task_id)
        else:
            state.cancel(op[1], now=op[2])
    return state


class TestStateSnapshot:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_ops)
    def test_to_from_snapshot_is_bit_exact(self, ops):
        state = LiveSystemState(P=8.0)
        _apply(state, ops)
        restored = LiveSystemState.from_snapshot(json.loads(json.dumps(state.to_snapshot())))
        assert restored.to_snapshot() == state.to_snapshot()
        # And the restored state *continues* identically.
        for live in (state, restored):
            live.submit(2.5, 1.5, 2.0, now=live.now + 1.0)
        assert restored.to_snapshot() == state.to_snapshot()

    def test_snapshot_config_mismatch_refused(self, tmp_path):
        durability = ServiceDurability(tmp_path, snapshot_every=1)
        state = LiveSystemState(P=8.0)
        record = state.submit(1.0, 1.0, 1.0, now=0.0)
        durability.record_submit(record, None)
        durability.note_applied(state, IdempotencyTable(), 0)
        durability.close()
        fresh = ServiceDurability(tmp_path)
        with pytest.raises(ValueError, match="refusing to replay"):
            fresh.recover(P=16.0, policy="wdeq", atol=1e-10)


class TestRecovery:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_ops, st.integers(min_value=1, max_value=7))
    def test_snapshot_plus_suffix_equals_full_replay(self, tmp_path_factory, ops, every):
        tmp_path = tmp_path_factory.mktemp("recovery")
        durability = ServiceDurability(tmp_path, snapshot_every=every, fsync="off")

        def journal_op(live, op):
            if op[0] == "submit":
                durability.record_submit(live.records[op[1]], None)
            else:
                durability.record_cancel(op[1], op[2], None)
            durability.note_applied(live, IdempotencyTable(), 0)

        state = LiveSystemState(P=8.0)
        resolved = _apply(state, ops, on_op=journal_op)
        recovered = durability.recover(P=8.0, policy="wdeq", atol=1e-10)
        durability.close()
        assert recovered.state.to_snapshot() == state.to_snapshot()
        assert recovered.state.to_snapshot() == _replay(resolved).to_snapshot()

    def test_recovery_rebuilds_idempotency_from_the_suffix(self, tmp_path):
        journal = Journal(tmp_path)
        state = LiveSystemState(P=8.0)
        record = state.submit(2.0, 1.0, 1.0, now=0.5)
        journal.append(
            JournalSubmit(
                task_id=record.task_id, volume=2.0, weight=1.0, delta=1.0, now=0.5,
                idempotency_key="retry-me",
            )
        )
        journal.close()
        result = recover_state(Journal(tmp_path), SnapshotStore(tmp_path), P=8.0)
        assert result.recovered_events == 1
        reply = decode_message(result.idempotency["retry-me"])
        assert isinstance(reply, SubmitReply) and reply.task_id == record.task_id
        assert reply.share == pytest.approx(state.share_of(record.task_id))

    def test_empty_directory_recovers_fresh_state(self, tmp_path):
        result = recover_state(Journal(tmp_path), SnapshotStore(tmp_path), P=4.0)
        assert result.recovered_events == 0
        assert result.snapshot_seq == 0
        assert result.state.live_count == 0
        assert result.state.P == 4.0

    @staticmethod
    def _compacted_durability(tmp_path) -> "tuple[ServiceDurability, LiveSystemState]":
        """13 journaled submits, one record per segment, snapshots at 4/8/12.

        With ``keep=2`` the retained snapshots cover seqs 8 and 12, so
        compaction (keyed to the oldest retained snapshot) has removed the
        segments for seqs 1..8 — records 9..13 remain on disk.
        """
        durability = ServiceDurability(
            tmp_path, snapshot_every=4, segment_bytes=1, fsync="off"
        )
        state = LiveSystemState(P=8.0)
        for i in range(13):
            record = state.submit(1.0 + i, 1.0, 1.0, now=float(i))
            durability.record_submit(record, None)
            durability.note_applied(state, IdempotencyTable(), 0)
        durability.close()
        assert [s for s, _ in Journal(tmp_path).replay()] == list(range(9, 14))
        return durability, state

    def test_fallback_snapshot_still_has_its_complete_suffix(self, tmp_path):
        """Compaction must never orphan a *retained* snapshot.

        Corrupting the newest snapshot forces recovery onto the older one —
        whose longer journal suffix must still be on disk in full.
        """
        _, state = self._compacted_durability(tmp_path)
        store = SnapshotStore(tmp_path)
        newest = store.paths()[-1]
        newest.write_bytes(b"00000000 not-the-right-checksum\n")
        result = recover_state(Journal(tmp_path), store, P=8.0)
        assert result.snapshot_seq == 8
        assert result.recovered_events == 5  # seqs 9..13
        assert result.state.to_snapshot() == state.to_snapshot()

    def test_recovery_refuses_a_suffix_that_cannot_reach_its_snapshot(self, tmp_path):
        """Every snapshot gone + a compacted prefix = an unfillable hole.

        Replaying seqs 9..13 onto a fresh state would silently serve a
        diverged system; recovery must stop loudly instead.
        """
        self._compacted_durability(tmp_path)
        store = SnapshotStore(tmp_path)
        for path in store.paths():
            path.unlink()
        with pytest.raises(JournalCorruptError, match="recovery gap"):
            recover_state(Journal(tmp_path), store, P=8.0)


# ---------------------------------------------------------------------------
# Inspection
# ---------------------------------------------------------------------------


class TestInspect:
    def test_report_counts_segments_snapshots_and_torn_tail(self, tmp_path):
        durability = ServiceDurability(tmp_path, snapshot_every=2, fsync="off")
        state = LiveSystemState(P=8.0)
        for i in range(5):
            record = state.submit(1.0 + i, 1.0, 1.0, now=float(i))
            durability.record_submit(record, None)
            durability.note_applied(state, IdempotencyTable(), 0)
        durability.close()
        (tail,) = durability.journal.segment_paths()
        with open(tail, "ab") as handle:
            handle.write(b"halfway-through-a-rec")
        report = inspect_journal(tmp_path, verify=True, tail=2)
        assert report["records"] == 5
        assert report["last_seq"] == 5
        assert report["torn_tail_bytes"] == len(b"halfway-through-a-rec")
        assert [s["valid"] for s in report["snapshots"]] == [True, True]
        assert [r["seq"] for r in report["tail"]] == [4, 5]
        # Inspection never mutates: the torn bytes are still on disk.
        assert inspect_journal(tmp_path)["torn_tail_bytes"] == report["torn_tail_bytes"]

    def test_missing_directory_reports_error(self, tmp_path):
        report = inspect_journal(tmp_path / "nowhere")
        assert report["error"] == "not a directory"


# ---------------------------------------------------------------------------
# The on-disk format across engines
# ---------------------------------------------------------------------------


def _snapshot_difference(expected: object, actual: object, path: str = "state") -> "str | None":
    """Where two ``to_snapshot()`` payloads differ (floats within rel 1e-9), or None."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return f"{path}: keys {sorted(expected.keys() ^ actual.keys())}"
        for key in expected:
            found = _snapshot_difference(expected[key], actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(expected)} != {len(actual)}"
        for index, (a, b) in enumerate(zip(expected, actual)):
            found = _snapshot_difference(a, b, f"{path}[{index}]")
            if found:
                return found
        return None
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(expected, actual, rel_tol=1e-9, abs_tol=1e-12):
            return None
    elif type(expected) is type(actual) and expected == actual:
        return None
    return f"{path}: {expected!r} != {actual!r}"


class TestOnDiskFormat:
    """A journal and snapshots written by an earlier engine recover unchanged.

    ``tests/golden/service_journal`` holds 80 submit/cancel records
    (P = 8, WDEQ, snapshots every 30 records) written by the service while
    it ran on the batched engine at B = 1, its snapshots at seq 60 and at
    shutdown (seq 80), and the ``to_snapshot()`` of that live system after
    the last record.  Recovery must land on the same state — every key,
    id, status and event count, with floats within rel 1e-9 — both from the
    shutdown snapshot alone and from the seq 60 snapshot plus a replay of
    the 20 journal records after it on today's engine.
    """

    FIXTURE = Path(__file__).parent / "golden" / "service_journal"

    @pytest.mark.parametrize("snapshot_seq", [80, 60])
    def test_recovers_to_the_recorded_state(self, tmp_path, snapshot_seq):
        journal_dir = tmp_path / "journal"
        shutil.copytree(self.FIXTURE / "journal", journal_dir)
        if snapshot_seq < 80:
            (journal_dir / "snapshot-0000000000000080.json").unlink()
        expected = json.loads((self.FIXTURE / "expected_state.json").read_text())
        durability = ServiceDurability(journal_dir, fsync="off", snapshot_every=30)
        try:
            result = durability.recover(P=8.0, policy="wdeq", atol=1e-10)
        finally:
            durability.close()
        assert (result.snapshot_seq, result.last_seq) == (snapshot_seq, 80)
        assert result.recovered_events == 80 - snapshot_seq
        assert _snapshot_difference(expected, result.state.to_snapshot()) is None
