"""Streaming trace ingestion: validation, round trips, online aggregation.

Covers the four silent-corruption bugfixes of the trace loader (empty
``release`` cells, reappearing instance keys, silent ``delta`` clamping,
ignored arrival processes), the chunked reader's equivalence with one
whole-trace chunk (including a Hypothesis round-trip property over ragged
traces in both formats), the streamed ``policies`` pipeline
(:func:`repro.scenarios.stream.replay_stream`), and the append/merge
aggregation of :mod:`repro.scenarios.store`.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import InstanceBatch
from repro.core.exceptions import InvalidInstanceError
from repro.core.instance import Instance, Task
from repro.exec import ExecutionContext
from repro.exec.cluster import assign_cells
from repro.exec.context import CHUNKS_PER_WORKER, chunk_ranges
from repro.scenarios import ResultsStore, ScenarioSpec, SweepRunner, merge_records
from repro.scenarios.families import cell_chunks, draw_release_times, draw_weights
from repro.scenarios.store import summary_table
from repro.scenarios.stream import (
    DEFAULT_CHUNK_SIZE,
    StreamingMoments,
    iter_trace_rows,
    replay_stream,
    stream_trace,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"
SAMPLE_TRACE = SCENARIO_DIR / "traces" / "sample_trace.csv"

HEADER = "instance,volume,weight,delta,release"


def write_csv(path, rows, header=HEADER):
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


def _gen_trace(path, release_rate):
    """A ``tools/gen_trace.py`` trace: 120 instances of 1-12 tasks."""
    spec = importlib.util.spec_from_file_location("gen_trace", REPO_ROOT / "tools" / "gen_trace.py")
    gen_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_trace)
    gen_trace.generate(str(path), "csv", None, 120, (1, 12), 8.0, release_rate, 5)
    return path


@pytest.fixture(scope="module")
def ragged_trace(tmp_path_factory):
    """A generated trace of 120 ragged instances, with releases."""
    return _gen_trace(tmp_path_factory.mktemp("ragged") / "trace.csv", 1.0)


@pytest.fixture(scope="module")
def releaseless_trace(tmp_path_factory):
    """A generated trace of 120 ragged instances, without a release column."""
    return _gen_trace(tmp_path_factory.mktemp("releaseless") / "trace.csv", 0.0)


# --------------------------------------------------------------------- #
# Bugfix regressions: the four silent-corruption modes now raise/warn
# --------------------------------------------------------------------- #


class TestValidation:
    def test_empty_release_cell_raises_naming_row(self, tmp_path):
        """Bugfix 1: an empty release cell used to become a silent 0.0."""
        trace = write_csv(
            tmp_path / "t.csv",
            ["a,1.0,1.0,2.0,0.5", "a,1.0,1.0,2.0,", "b,1.0,1.0,2.0,0.7"],
        )
        with pytest.raises(InvalidInstanceError, match=r"data row 2.*release"):
            list(stream_trace(trace, P=8.0))

    def test_missing_jsonl_release_raises_naming_row(self, tmp_path):
        trace = write_jsonl(
            tmp_path / "t.jsonl",
            [
                {"instance": "a", "volume": 1.0, "weight": 1.0, "delta": 2.0, "release": 0.1},
                {"instance": "b", "volume": 1.0, "weight": 1.0, "delta": 2.0},
            ],
        )
        with pytest.raises(InvalidInstanceError, match=r"data row 2.*release"):
            list(stream_trace(trace, P=8.0))

    def test_reappearing_instance_key_raises(self, tmp_path):
        """Bugfix 2: non-consecutive rows of one key used to split silently."""
        trace = write_csv(
            tmp_path / "t.csv",
            [
                "a,1.0,1.0,2.0,0.1",
                "b,1.0,1.0,2.0,0.2",
                "a,2.0,1.0,2.0,0.3",  # 'a' reappears after its group closed
            ],
        )
        with pytest.raises(InvalidInstanceError, match=r"data row 3.*'a' reappears"):
            list(stream_trace(trace, P=8.0))

    def test_nonpositive_delta_raises(self, tmp_path):
        """Bugfix 3a: delta must be positive (0 used to clamp to min(0, P))."""
        trace = write_csv(tmp_path / "t.csv", ["a,1.0,1.0,0.0,0.1"])
        with pytest.raises(InvalidInstanceError, match=r"data row 1.*delta must be positive"):
            list(stream_trace(trace, P=8.0))

    def test_delta_clamp_warns_once_with_row_number(self, tmp_path):
        """Bugfix 3b: delta > P still clamps, but loudly (one warning/file)."""
        trace = write_csv(
            tmp_path / "t.csv",
            ["a,1.0,1.0,9.5,0.1", "a,1.0,1.0,12.0,0.2", "b,1.0,1.0,2.0,0.3"],
        )
        with pytest.warns(UserWarning, match=r"delta=9.5 exceeds P=8.0 first at data row 1"):
            [chunk] = stream_trace(trace, P=8.0)
        assert [t.delta for t in chunk.batch.instance(0).tasks] == [8.0, 8.0]

    def test_committed_sample_trace_is_clean(self):
        """The shipped trace must not trip any of the new validation."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [chunk] = stream_trace(SAMPLE_TRACE, P=8.0)
        assert chunk.batch.batch_size == 8 and chunk.releases is not None

    def test_arrival_conflicting_with_trace_releases_raises(self, tmp_path):
        """Bugfix 4: a synthetic arrival on a release-carrying trace used to
        be silently ignored — the trace's releases won unannounced."""
        params = {"trace": str(SAMPLE_TRACE), "P": 8.0}
        poisson = {"process": "poisson", "rate": 1.0}
        with pytest.raises(InvalidInstanceError, match="supplies release times.*conflicts"):
            list(cell_chunks("trace_replay", params, 4, poisson, {}, seed=0))

    def test_arrival_trace_process_accepted_with_releases(self):
        params = {"trace": str(SAMPLE_TRACE), "P": 8.0}
        [chunk] = cell_chunks("trace_replay", params, 4, {"process": "trace"}, {}, seed=0)
        assert chunk.releases is not None and chunk.batch.batch_size == 4

    def test_arrival_trace_process_without_release_column_raises(self, tmp_path):
        trace = write_csv(
            tmp_path / "t.csv", ["a,1.0,1.0,2.0"], header="instance,volume,weight,delta"
        )
        params = {"trace": str(trace), "P": 8.0}
        with pytest.raises(InvalidInstanceError, match="requires a 'release' column"):
            list(cell_chunks("trace_replay", params, 4, {"process": "trace"}, {}, seed=0))

    def test_synthetic_arrival_still_works_without_release_column(self, tmp_path):
        trace = write_csv(
            tmp_path / "t.csv",
            ["a,1.0,1.0,2.0", "b,2.0,1.0,2.0"],
            header="instance,volume,weight,delta",
        )
        params = {"trace": str(trace), "P": 8.0}
        poisson = {"process": "poisson", "rate": 2.0}
        [chunk] = cell_chunks("trace_replay", params, 2, poisson, {}, seed=0)
        assert chunk.releases is not None and chunk.releases.shape == (2, 1)

    @pytest.mark.parametrize(
        "arrival",
        [
            {"process": "poisson", "rate": 2.0},
            {"process": "bursty-poisson", "rate": 0.5, "burst_size": 2, "spread": 0.1},
        ],
    )
    def test_synthetic_arrivals_on_a_one_chunk_trace_are_one_draw(self, releaseless_trace, arrival):
        """A release-less trace that fits in one chunk gets the releases of
        one ``(count, n_max)`` draw, after the weight redraw, zero on padding."""
        weight = {"dist": "lognormal"}
        params = {"trace": str(releaseless_trace), "P": 8.0}
        [chunk] = cell_chunks("trace_replay", params, None, arrival, weight, seed=4)
        [raw] = stream_trace(releaseless_trace, 8.0)
        rng = np.random.default_rng(4)
        for b, n in enumerate(raw.batch.counts.tolist()):
            assert chunk.batch.weights[b, :n].tobytes() == draw_weights(weight, n, rng).tobytes()
        drawn = draw_release_times(arrival, raw.batch.batch_size, raw.batch.n_max, rng)
        assert chunk.releases.tobytes() == np.where(raw.batch.mask, drawn, 0.0).tobytes()

    @pytest.mark.parametrize("chunk_size", [1, 7, 50])
    def test_chunk_cuts_do_not_move_the_redrawn_weights(self, ragged_trace, chunk_size):
        def weights(size):
            params = {"trace": str(ragged_trace), "P": 8.0, "chunk_size": size}
            chunks = cell_chunks("trace_replay", params, None, {}, {"dist": "pareto"}, seed=2)
            return np.concatenate([c.batch.weights[c.batch.mask] for c in chunks])

        assert weights(chunk_size).tobytes() == weights(DEFAULT_CHUNK_SIZE).tobytes()


    @pytest.mark.parametrize(
        "row, message",
        [
            ("a,-1.0,1.0,2.0,0.1", "volume must be positive"),
            ("a,1.0,-0.5,2.0,0.1", "weight must be non-negative"),
            ("a,oops,1.0,2.0,0.1", "not a number"),
            ("a,inf,1.0,2.0,0.1", "must be finite"),
            (",1.0,1.0,2.0,0.1", "'instance' is empty"),
        ],
    )
    def test_bad_fields_raise_naming_row(self, tmp_path, row, message):
        trace = write_csv(tmp_path / "t.csv", ["ok,1.0,1.0,2.0,0.1", row])
        with pytest.raises(InvalidInstanceError, match=f"data row 2.*{message}"):
            list(iter_trace_rows(trace))

    def test_missing_columns_raise(self, tmp_path):
        trace = write_csv(tmp_path / "t.csv", ["a,1.0"], header="instance,volume")
        with pytest.raises(InvalidInstanceError, match="must have columns"):
            list(iter_trace_rows(trace))

    def test_empty_trace_raises(self, tmp_path):
        trace = write_csv(tmp_path / "t.csv", [])
        with pytest.raises(InvalidInstanceError, match="contains no tasks"):
            list(stream_trace(trace, P=8.0))

    def test_unknown_format_raises(self, tmp_path):
        with pytest.raises(InvalidInstanceError, match="unknown trace format"):
            list(iter_trace_rows(tmp_path / "t.csv", fmt="xml"))

    def test_jsonl_inconsistent_release_presence_raises(self, tmp_path):
        trace = write_jsonl(
            tmp_path / "t.jsonl",
            [
                {"instance": "a", "volume": 1.0, "weight": 1.0, "delta": 2.0},
                {"instance": "b", "volume": 1.0, "weight": 1.0, "delta": 2.0, "release": 0.5},
            ],
        )
        with pytest.raises(InvalidInstanceError, match=r"data row 2.*unexpected 'release'"):
            list(stream_trace(trace, P=8.0))

    def test_invalid_json_raises_naming_row(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"instance": "a", "volume": 1.0, "weight": 1, "delta": 1}\nnot json\n')
        with pytest.raises(InvalidInstanceError, match=r"data row 2"):
            list(stream_trace(path, P=8.0))

    def test_max_instances_stops_reading_before_bad_rows(self, tmp_path):
        """Early stop is real: corruption after the cut is never parsed."""
        trace = write_csv(
            tmp_path / "t.csv",
            ["a,1.0,1.0,2.0,0.1", "b,1.0,1.0,2.0,0.2", "c,bad,1.0,2.0,0.3"],
        )
        [chunk] = stream_trace(trace, P=8.0, max_instances=1)
        assert chunk.batch.batch_size == 1
        with pytest.raises(InvalidInstanceError, match="data row 3"):
            list(stream_trace(trace, P=8.0))


# --------------------------------------------------------------------- #
# The single-pass CSV reader, and the input checks of stream_trace
# --------------------------------------------------------------------- #


class TestReader:
    def test_blank_lines_do_not_advance_row_numbers(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text(
            HEADER + "\n\na,1.0,1.0,2.0,0.1\n\n\nb,2.0,1.0,2.0,0.2\n\nc,oops,1.0,2.0,0.3\n",
            encoding="utf-8",
        )
        rows = []
        with pytest.raises(InvalidInstanceError, match="data row 3: column 'volume' is not a number"):
            rows.extend(iter_trace_rows(trace))
        assert rows == [(1, "a", 1.0, 1.0, 2.0, 0.1), (2, "b", 2.0, 1.0, 2.0, 0.2)]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("a", "column 'volume' is not a number: None"),
            ("a,1.0", "column 'weight' is not a number: None"),
            ("a,1.0,1.0", "column 'delta' is not a number: None"),
            ("a,1.0,1.0,2.0", "empty 'release' cell in a trace with release times"),
        ],
    )
    def test_short_rows_read_missing_cells_as_none(self, tmp_path, row, message):
        trace = write_csv(tmp_path / "t.csv", ["ok,1.0,1.0,2.0,0.1", row])
        with pytest.raises(InvalidInstanceError, match=f"data row 2: {re.escape(message)}"):
            list(iter_trace_rows(trace))

    def test_reordered_and_extra_columns(self, tmp_path):
        trace = write_csv(
            tmp_path / "t.csv",
            ["2.0,x,0.5,1.5,a,3.0,y", "4.0,,0.7,2.5,a,1.0", "1.0,,0.9,0.5,b,2.0,z,surplus"],
            header="delta,note,release,weight,instance,volume,other",
        )
        assert list(iter_trace_rows(trace)) == [
            (1, "a", 3.0, 1.5, 2.0, 0.5),
            (2, "a", 1.0, 2.5, 4.0, 0.7),
            (3, "b", 2.0, 0.5, 1.0, 0.9),
        ]

    def test_quoted_cells(self, tmp_path):
        trace = write_csv(tmp_path / "t.csv", ['"job, ""one""","1.5",2,"3e0",0.25'])
        assert list(iter_trace_rows(trace)) == [(1, 'job, "one"', 1.5, 2.0, 3.0, 0.25)]

    def test_duplicate_header_column_raises(self, tmp_path):
        """A repeated column used to resolve silently to its last copy."""
        trace = write_csv(
            tmp_path / "t.csv", ["a,1.0,1.0,2.0,3.0"], header="instance,volume,weight,delta,volume"
        )
        with pytest.raises(InvalidInstanceError, match="column 'volume' appears more than once"):
            list(iter_trace_rows(trace))
        # A repeated column the reader does not use is harmless.
        trace = write_csv(
            tmp_path / "t.csv", ["a,1.0,1.0,2.0,x,y"], header="instance,volume,weight,delta,note,note"
        )
        assert list(iter_trace_rows(trace)) == [(1, "a", 1.0, 1.0, 2.0, None)]

    @pytest.mark.parametrize("name", ["volume", "weight", "delta", "release"])
    def test_jsonl_boolean_is_not_a_number(self, tmp_path, name):
        """``float(True)`` used to turn a JSON boolean into 1.0."""
        good = {"instance": "a", "volume": 1.0, "weight": 1.0, "delta": 2.0, "release": 0.1}
        trace = write_jsonl(tmp_path / "t.jsonl", [good, {**good, "instance": "b", name: True}])
        with pytest.raises(InvalidInstanceError, match=f"data row 2: column '{name}' is not a number: True"):
            list(iter_trace_rows(trace))

    @pytest.mark.parametrize("P", [0.0, -1.0, float("nan"), float("inf")])
    def test_stream_trace_rejects_bad_platform_size(self, P):
        """``P=nan`` used to pass ``P <= 0`` and ``P=inf`` was accepted."""
        with pytest.raises(InvalidInstanceError, match="platform size P must be positive and finite"):
            list(stream_trace(SAMPLE_TRACE, P))

    @pytest.mark.parametrize("chunk_size", [None, 0, -2])
    def test_stream_trace_rejects_missing_or_nonpositive_chunk_size(self, chunk_size):
        """There is no whole-trace mode: every replay reads bounded chunks."""
        with pytest.raises(InvalidInstanceError, match="chunk_size must be positive"):
            list(stream_trace(SAMPLE_TRACE, 8.0, chunk_size=chunk_size))

    @pytest.mark.parametrize("max_instances", [0, -3])
    def test_stream_trace_rejects_nonpositive_max_instances(self, max_instances):
        """``max_instances=0`` used to fail with a misleading "contains no tasks"."""
        with pytest.raises(InvalidInstanceError, match="max_instances must be positive"):
            list(stream_trace(SAMPLE_TRACE, 8.0, max_instances=max_instances))


def _reference_chunks(path, P, chunk_size, max_instances=None):
    """``(start, batch, releases)`` per chunk, from ``csv.DictReader`` rows."""
    groups: dict[str, list[dict]] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            groups.setdefault(row["instance"], []).append(row)
    rows = list(groups.values())[:max_instances]
    for start in range(0, len(rows), chunk_size):
        part = rows[start : start + chunk_size]
        batch = InstanceBatch.from_instances(
            Instance(P, [Task(float(r["volume"]), float(r["weight"]), float(r["delta"])) for r in g])
            for g in part
        )
        releases = np.zeros(batch.volumes.shape)
        for b, g in enumerate(part):
            releases[b, : len(g)] = [float(r["release"]) for r in g]
        yield start, batch, releases


class TestChunkBuild:
    @pytest.mark.parametrize(
        "chunk_size, max_instances", [(1, None), (7, None), (4096, None), (7, 53)]
    )
    def test_chunks_bit_equal_dictreader_reference(self, ragged_trace, chunk_size, max_instances):
        """P=6 clamps some of the trace's deltas (drawn up to 8)."""
        with pytest.warns(UserWarning, match="clamping to P"):
            chunks = list(
                stream_trace(ragged_trace, 6.0, chunk_size=chunk_size, max_instances=max_instances)
            )
        reference = list(_reference_chunks(ragged_trace, 6.0, chunk_size, max_instances))
        assert len(chunks) == len(reference)
        for chunk, (start, batch, releases) in zip(chunks, reference):
            assert chunk.start == start
            for name in ("P", "volumes", "weights", "deltas", "mask"):
                got, want = getattr(chunk.batch, name), getattr(batch, name)
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name
            assert chunk.releases.shape == releases.shape
            assert chunk.releases.tobytes() == releases.tobytes()


# --------------------------------------------------------------------- #
# Streamed chunks == one whole-trace chunk (including the Hypothesis property)
# --------------------------------------------------------------------- #


@st.composite
def trace_instances(draw):
    """Ragged instance groups with finite positive parameters."""
    count = draw(st.integers(min_value=1, max_value=6))
    value = st.floats(min_value=0.001, max_value=100.0, allow_nan=False)
    groups = []
    for i in range(count):
        n = draw(st.integers(min_value=1, max_value=4))
        groups.append(
            {
                "key": f"inst{i:03d}",
                "volumes": [draw(value) for _ in range(n)],
                "weights": [draw(value) for _ in range(n)],
                "deltas": [draw(st.floats(min_value=0.1, max_value=8.0, allow_nan=False))
                           for _ in range(n)],
                "releases": [draw(value) for _ in range(n)],
            }
        )
    return groups


def _groups_to_rows(groups, with_release):
    csv_rows, jsonl_rows = [], []
    for g in groups:
        for v, w, d, r in zip(g["volumes"], g["weights"], g["deltas"], g["releases"]):
            row = {"instance": g["key"], "volume": v, "weight": w, "delta": d}
            text = f"{g['key']},{v!r},{w!r},{d!r}"
            if with_release:
                row["release"] = r
                text += f",{r!r}"
            csv_rows.append(text)
            jsonl_rows.append(row)
    return csv_rows, jsonl_rows


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(groups=trace_instances(), with_release=st.booleans(),
           chunk_size=st.sampled_from([1, 2, 3, 1000]))
    def test_streamed_chunks_equal_inmemory_load(self, groups, with_release, chunk_size):
        """Synthesized trace -> streamed chunks -> to_instances equals one
        whole-trace chunk, for ragged rows, both formats, any chunk size."""
        import tempfile

        csv_rows, jsonl_rows = _groups_to_rows(groups, with_release)
        header = HEADER if with_release else "instance,volume,weight,delta"
        with tempfile.TemporaryDirectory(prefix="stream_rt_") as tmp:
            tmp = pathlib.Path(tmp)
            write_csv(tmp / "t.csv", csv_rows, header=header)
            write_jsonl(tmp / "t.jsonl", jsonl_rows)
            [whole] = stream_trace(tmp / "t.csv", P=8.0, chunk_size=DEFAULT_CHUNK_SIZE)
            expected_instances, expected_releases = whole.batch.to_instances(), whole.releases
            for name in ("t.csv", "t.jsonl"):
                chunks = list(stream_trace(tmp / name, P=8.0, chunk_size=chunk_size))
                instances = [i for c in chunks for i in c.batch.to_instances()]
                assert instances == expected_instances
                starts = [c.start for c in chunks]
                assert starts == sorted(starts) and starts[0] == 0
                if not with_release:
                    assert all(c.releases is None for c in chunks)
                    continue
                assert expected_releases is not None
                for chunk in chunks:
                    B, n_max = chunk.releases.shape
                    for b in range(B):
                        n = int(chunk.batch.counts[b])
                        row = expected_releases[chunk.start + b]
                        assert np.array_equal(chunk.releases[b, :n], row[:n])
                        assert np.all(chunk.releases[b, n:] == 0.0)

    def test_jsonl_and_csv_load_identically(self, tmp_path):
        groups = [
            {"key": "a", "volumes": [1.5, 2.0], "weights": [1.0, 0.5],
             "deltas": [2.0, 4.0], "releases": [0.1, 0.4]},
            {"key": "b", "volumes": [3.0], "weights": [2.0], "deltas": [1.0],
             "releases": [0.8]},
        ]
        csv_rows, jsonl_rows = _groups_to_rows(groups, with_release=True)
        write_csv(tmp_path / "t.csv", csv_rows)
        write_jsonl(tmp_path / "t.jsonl", jsonl_rows)
        [from_csv] = stream_trace(tmp_path / "t.csv", P=8.0)
        [from_jsonl] = stream_trace(tmp_path / "t.jsonl", P=8.0)
        assert from_csv.batch.to_instances() == from_jsonl.batch.to_instances()
        assert np.array_equal(from_csv.releases, from_jsonl.releases)

    def test_format_sniffing_without_extension(self, tmp_path):
        _, jsonl_rows = _groups_to_rows(
            [{"key": "a", "volumes": [1.0], "weights": [1.0], "deltas": [2.0],
              "releases": [0.1]}],
            with_release=True,
        )
        trace = write_jsonl(tmp_path / "trace.dat", jsonl_rows)
        [chunk] = stream_trace(trace, P=8.0)
        assert chunk.batch.batch_size == 1


# --------------------------------------------------------------------- #
# Online accumulators
# --------------------------------------------------------------------- #


class TestStreamingMoments:
    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1, max_size=40,
        ),
        pieces=st.integers(min_value=1, max_value=5),
    )
    def test_chunked_equals_single_pass(self, values, pieces):
        array = np.array(values)
        chunked = StreamingMoments()
        for part in np.array_split(array, pieces):
            chunked.update(part)
        single = StreamingMoments()
        single.update(array)
        assert chunked.count == single.count == array.size
        assert math.isclose(chunked.mean, array.mean(), rel_tol=1e-9, abs_tol=1e-6)
        assert chunked.max == array.max() and chunked.min == array.min()
        assert math.isclose(chunked.std, float(array.std()), rel_tol=1e-6, abs_tol=1e-6)

    def test_first_update_takes_the_batch_moments_as_they_are(self):
        """One chunk folds to its own mean and m2 bit for bit, so a
        one-chunk cell records the plain mean of its values."""
        rng = np.random.default_rng(11)
        for n in range(1, 200):
            values = rng.lognormal(size=n)
            moments = StreamingMoments()
            moments.update(values)
            assert moments.mean == float(values.mean())
            assert moments.m2 == float(((values - values.mean()) ** 2).sum())
            assert moments.count == n

    def test_merge_matches_sequential_update(self):
        rng = np.random.default_rng(3)
        a_vals, b_vals = rng.normal(size=17), rng.normal(size=5)
        a, b = StreamingMoments(), StreamingMoments()
        a.update(a_vals)
        b.update(b_vals)
        merged = a.merge(b)
        both = StreamingMoments()
        both.update(np.concatenate([a_vals, b_vals]))
        assert merged.count == both.count
        assert math.isclose(merged.mean, both.mean, rel_tol=1e-12)
        assert math.isclose(merged.m2, both.m2, rel_tol=1e-9)
        # Merging with an empty accumulator is the identity.
        empty = StreamingMoments()
        assert a.merge(empty).mean == a.mean and empty.merge(a).count == a.count


# --------------------------------------------------------------------- #
# The streamed policies pipeline
# --------------------------------------------------------------------- #


def _records_close(a, b, rtol=1e-6):
    assert {r["label"] for r in a} == {r["label"] for r in b}
    by_label = {r["label"]: r for r in b}
    for record in a:
        other = by_label[record["label"]]
        assert record["count"] == other["count"]
        for name, value in record["metrics"].items():
            assert math.isclose(value, other["metrics"][name], rel_tol=rtol), (
                record["label"], name, value, other["metrics"][name],
            )


class TestReplayStream:
    def test_matches_inmemory_sweep_on_truncated_prefix(self):
        """A chunked sweep's summary table is tolerance-identical to the
        one-chunk sweep on the same prefix (the fold only reassociates)."""
        spec = ScenarioSpec.from_toml(SCENARIO_DIR / "trace_replay.toml").with_overrides(count=5)
        streamed_spec = spec.with_overrides(params={"chunk_size": 2})
        with ExecutionContext(seed=3, backend="vectorized") as ctx:
            one_chunk = SweepRunner(spec, ctx).run()
        with ExecutionContext(seed=3, backend="vectorized") as ctx:
            streamed = SweepRunner(streamed_spec, ctx).run()
        assert summary_table(one_chunk.records, spec.metrics)[0] == \
            summary_table(streamed.records, spec.metrics)[0]
        _records_close(streamed.records, one_chunk.records)

    def test_streamed_spec_serial_equals_vectorized(self):
        spec = ScenarioSpec.from_toml(SCENARIO_DIR / "trace_stream.toml").with_overrides(count=6)
        with ExecutionContext(seed=1) as ctx:
            serial = SweepRunner(spec, ctx).run()
        with ExecutionContext(seed=1, backend="vectorized") as ctx:
            vectorized = SweepRunner(spec, ctx).run()
        _records_close(serial.records, vectorized.records, rtol=1e-9)

    def test_weight_redistribution_matches_inmemory(self):
        spec = ScenarioSpec.from_toml(SCENARIO_DIR / "trace_replay.toml").with_overrides(
            count=8, weights={"dist": "pareto", "alpha": 1.4},
        )
        streamed_spec = spec.with_overrides(params={"chunk_size": 3})
        with ExecutionContext(seed=9, backend="vectorized") as ctx:
            one_chunk = SweepRunner(spec, ctx).run()
        with ExecutionContext(seed=9, backend="vectorized") as ctx:
            streamed = SweepRunner(streamed_spec, ctx).run()
        # The chunk-by-chunk redraw threads one rng through the chunks, so
        # the drawn weights (not just their statistics) are identical.
        _records_close(streamed.records, one_chunk.records)

    def test_synthetic_arrival_rejected_in_streaming_mode(self, tmp_path, monkeypatch):
        """Synthetic arrivals are one draw over the whole workload, so a
        release-less trace that spans two chunks raises instead of drawing
        releases that depend on where the chunks are cut — before the first
        chunk is simulated."""
        from repro.batch import sim_kernels

        trace = write_csv(
            tmp_path / "t.csv",
            ["a,1.0,1.0,2.0", "b,2.0,1.0,2.0", "c,1.5,1.0,4.0"],
            header="instance,volume,weight,delta",
        )
        simulated = []
        original = sim_kernels.simulate_batch

        def counting(*args, **kwargs):
            simulated.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(sim_kernels, "simulate_batch", counting)
        folded = []
        arrival = {"process": "poisson", "rate": 1.0}
        with pytest.raises(InvalidInstanceError, match="synthetic arrivals.*chunk_size"):
            replay_stream(
                trace, 8.0, chunk_size=2, arrival=arrival,
                on_chunk=lambda chunk, metrics: folded.append(chunk),
            )
        assert folded == [] and simulated == []
        _, total = replay_stream(trace, 8.0, chunk_size=3, arrival=arrival)
        assert total == 3 and simulated

    def test_map_batch_context_path_matches_inprocess(self):
        direct, total_direct = replay_stream(SAMPLE_TRACE, 8.0, chunk_size=3)
        with ExecutionContext(seed=0, workers=2) as ctx:
            pooled, total_pooled = replay_stream(SAMPLE_TRACE, 8.0, chunk_size=3, ctx=ctx)
        assert total_direct == total_pooled == 8
        assert direct == pooled  # bit-identical: same kernels, same inputs

    def test_shm_pool_matches_inprocess_on_generated_trace(self, ragged_trace):
        direct = replay_stream(ragged_trace, 8.0, chunk_size=64)
        with ExecutionContext(backend="vectorized", workers=2) as ctx:
            pooled = replay_stream(ragged_trace, 8.0, chunk_size=64, ctx=ctx)
        assert pooled == direct

    @pytest.mark.parametrize("workers", [2, 3])
    def test_slices_run_at_their_own_width_paired_light_with_heavy(
        self, ragged_trace, monkeypatch, workers
    ):
        """Rows go out width-sorted: each slice is simulated at its own
        widest row, round-robin dealing gives every worker a narrow and a
        wide slice, and the folded metrics keep every bit."""
        from repro.batch import sim_kernels

        simulated_widths = []
        original = sim_kernels.simulate_batch

        def recording(batch, *args, **kwargs):
            simulated_widths.append(batch.n_max)
            return original(batch, *args, **kwargs)

        class SlicingContext:
            """``map_batch`` stand-in: the off-process slicing, run in process."""

            def __init__(self):
                self.slice_counts = []

            def map_batch(self, fn, batch, extra=None):
                ranges = chunk_ranges(batch.batch_size, workers)
                self.slice_counts.append([batch.counts[lo:hi] for lo, hi in ranges])
                triples = []
                for lo, hi in ranges:
                    rows = InstanceBatch(
                        P=batch.P[lo:hi], volumes=batch.volumes[lo:hi], weights=batch.weights[lo:hi],
                        deltas=batch.deltas[lo:hi], mask=batch.mask[lo:hi],
                    )
                    triples += fn(rows, {name: value[lo:hi] for name, value in extra.items()})
                return triples

        direct = replay_stream(ragged_trace, 8.0, chunk_size=64)
        ctx = SlicingContext()
        monkeypatch.setattr(sim_kernels, "simulate_batch", recording)
        sliced = replay_stream(ragged_trace, 8.0, chunk_size=64, ctx=ctx)
        assert sliced == direct
        assert len(ctx.slice_counts) == 2 * 4  # two chunks, four policies
        assert simulated_widths == [int(c.max()) for call in ctx.slice_counts for c in call]
        for call in ctx.slice_counts:
            # chunk_ranges cuts CHUNKS_PER_WORKER rounds of `workers` slices,
            # and assign_cells deals worker k the k-th slice of every round.
            shards = assign_cells(len(call), workers)
            assert shards == [
                [k + r * workers for r in range(CHUNKS_PER_WORKER)] for k in range(workers)
            ]
            # The rounds alternate ascending and descending widths ...
            means = [c.mean() for c in call]
            for r in range(CHUNKS_PER_WORKER):
                widths = means[r * workers:(r + 1) * workers]
                assert widths == sorted(widths, reverse=bool(r % 2))
            # ... so the workers' task totals are closer than under a plain ascending sort.
            ascending = np.sort(np.concatenate(call))
            plain = [ascending[lo:hi] for lo, hi in chunk_ranges(ascending.size, workers)]
            loads = [sum(int(call[i].sum()) for i in shard) for shard in shards]
            plain_loads = [sum(int(plain[i].sum()) for i in shard) for shard in shards]
            assert max(loads) - min(loads) < max(plain_loads) - min(plain_loads)

    def test_one_lower_bound_per_chunk(self, ragged_trace, monkeypatch):
        """The Lemma 1 bound is computed once per chunk, not once per policy."""
        from repro.batch import kernels

        sizes = []
        original = kernels.combined_lower_bound_batch

        def counting(batch, *args, **kwargs):
            sizes.append(batch.batch_size)
            return original(batch, *args, **kwargs)

        monkeypatch.setattr(kernels, "combined_lower_bound_batch", counting)
        per_policy, total = replay_stream(ragged_trace, 8.0, chunk_size=50)
        assert len(per_policy) == 4 and total == 120
        assert sizes == [50, 50, 20]

    def test_on_chunk_sees_every_chunk(self):
        seen = []
        replay_stream(
            SAMPLE_TRACE, 8.0, chunk_size=3, policies=("WDEQ",),
            on_chunk=lambda chunk, metrics: seen.append(
                (chunk.start, chunk.batch.batch_size, set(metrics))
            ),
        )
        assert [s[:2] for s in seen] == [(0, 3), (3, 3), (6, 2)]
        assert all(s[2] == {"WDEQ"} for s in seen)


# --------------------------------------------------------------------- #
# Append/merge aggregation in the store
# --------------------------------------------------------------------- #


class TestMergeRecords:
    def _partial_records(self, tmp_path):
        """Partial per-chunk records via on_chunk, appended to a store."""
        store = ResultsStore(tmp_path / "store")
        totals = {}

        def on_chunk(chunk, chunk_metrics):
            store.append_records(
                {
                    "scenario": "trace-stream", "cell": 0, "params": {},
                    "label": label, "count": chunk.batch.batch_size, "seed": 0,
                    "metrics": metrics,
                }
                for label, metrics in chunk_metrics.items()
            )

        totals["per_policy"], totals["total"] = replay_stream(
            SAMPLE_TRACE, 8.0, chunk_size=3, on_chunk=on_chunk
        )
        return store, totals

    def test_merged_partials_equal_stream_totals(self, tmp_path):
        store, totals = self._partial_records(tmp_path)
        merged = merge_records(store.load())
        assert len(merged) == len(totals["per_policy"])
        for record in merged:
            assert record["count"] == totals["total"]
            expected = totals["per_policy"][record["label"]]
            for name, value in record["metrics"].items():
                assert math.isclose(value, expected[name], rel_tol=1e-9), (
                    record["label"], name,
                )

    def test_write_merged_summary_equals_single_pass_summary(self, tmp_path):
        store, totals = self._partial_records(tmp_path)
        merged_text = store.write_merged_summary(title="Sweep: trace-stream")
        single_records = [
            {
                "scenario": "trace-stream", "cell": 0, "params": {}, "label": label,
                "count": totals["total"], "seed": 0, "metrics": metrics,
            }
            for label, metrics in totals["per_policy"].items()
        ]
        single_store = ResultsStore(tmp_path / "single")
        single_text = single_store.write_summary(
            single_records, title="Sweep: trace-stream"
        )
        assert merged_text == single_text

    def test_merge_is_identity_on_unique_keys_and_idempotent(self):
        records = [
            {"scenario": "s", "cell": 0, "params": {}, "label": "A", "count": 2,
             "seed": 0, "metrics": {"mean_ratio": 1.5, "max_ratio": 2.0}},
            {"scenario": "s", "cell": 1, "params": {}, "label": "A", "count": 4,
             "seed": 1, "metrics": {"mean_ratio": 1.1, "max_ratio": 1.2}},
        ]
        merged = merge_records(records)
        assert [r["metrics"] for r in merged] == [r["metrics"] for r in records]
        assert merge_records(merged) == merged

    def test_merge_weights_means_and_maxes_extrema(self):
        merged = merge_records(
            [
                {"scenario": "s", "cell": 0, "params": {}, "label": "A", "count": 1,
                 "seed": 0, "metrics": {"mean_ratio": 1.0, "max_ratio": 3.0,
                                        "min_gap": 0.5}},
                {"scenario": "s", "cell": 0, "params": {}, "label": "A", "count": 3,
                 "seed": 0, "metrics": {"mean_ratio": 2.0, "max_ratio": 1.0,
                                        "min_gap": 0.25}},
            ]
        )
        assert len(merged) == 1
        record = merged[0]
        assert record["count"] == 4
        assert record["metrics"]["mean_ratio"] == pytest.approx((1.0 + 3 * 2.0) / 4)
        assert record["metrics"]["max_ratio"] == 3.0
        assert record["metrics"]["min_gap"] == 0.25


# --------------------------------------------------------------------- #
# Spec validation and the CLI streaming knobs
# --------------------------------------------------------------------- #


class TestSpecAndCli:
    def test_chunk_size_param_validated(self):
        with pytest.raises(ValueError, match="chunk_size must be a positive integer"):
            ScenarioSpec(
                name="bad", generator="trace_replay",
                params={"trace": str(SAMPLE_TRACE), "chunk_size": -4},
            )
        with pytest.raises(ValueError, match="format must be one of"):
            ScenarioSpec(
                name="bad", generator="trace_replay",
                params={"trace": str(SAMPLE_TRACE), "format": "xml"},
            )

    def test_unknown_trace_param_rejected_by_both_paths(self):
        from repro.scenarios.runner import run_cell

        for params in ({"bogus": 1}, {"bogus": 1, "chunk_size": 2}):
            spec = ScenarioSpec(
                name="bad", generator="trace_replay",
                params={"trace": str(SAMPLE_TRACE), "P": 8.0, **params},
            )
            payload = {
                "spec": spec.to_dict(),
                "cell": {"scenario": "bad", "index": 0, "params": {}, "seed": 0},
            }
            with pytest.raises(InvalidInstanceError, match="accepts only"):
                run_cell(payload)

    def test_cli_stream_chunk_and_trace_flags(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "results"
        code = main(
            [
                "sweep", str(SCENARIO_DIR / "trace_replay.toml"),
                "--trace", str(SAMPLE_TRACE), "--stream-chunk", "3",
                "--output-dir", str(out),
            ]
        )
        assert code == 0
        assert "record(s)" in capsys.readouterr().out
        assert (out / "results.jsonl").is_file() and (out / "summary.md").is_file()

    def test_cli_stream_flags_rejected_for_synthetic_specs(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["sweep", "e5-policy-comparison", "--stream-chunk", "64"])
        assert exc.value.code == 2
        assert "apply only to trace_replay specs" in capsys.readouterr().err
