"""Golden-file regression suite for the E1–E9 experiment harness.

Canonical paper-scale-down summary tables live in ``tests/golden/E*.json``;
every test run re-executes the experiments with the same reduced parameters
and the same seed on each execution backend and compares the fresh tables
against the committed ones — headers exactly, numeric cells within loose
tolerances (the values chain LP solves and water-filling level searches, so
the last digits legitimately move across BLAS builds and backends).

The suite doubles as a backend-conformance harness: serial runs and (for a
representative experiment) process-pool runs are pinned against *one*
golden file, and so are contexts built with the deprecated ``"vectorized"``
backend alias until it is removed.

Regenerate after an intentional change with::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden
"""

from __future__ import annotations

import json
import math
import pathlib

import pytest

from repro.exec import ExecutionContext
from repro.experiments.registry import run_experiment

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Reduced parameters of the canonical runs — small enough for CI, large
#: enough to exercise every family/size branch of each experiment.
GOLDEN_PARAMS: dict[str, dict] = {
    "E1": dict(sizes=(2, 3), count=3, families=("uniform", "constant weight")),
    "E2": dict(sizes=(3, 4), count=3, max_orders=12, lp_sizes=(3,), lp_count=2, lp_orders=6),
    "E3": dict(sizes=(2, 3), count=3, five_task_count=1, lp_check_sizes=(2, 3), lp_check_count=3),
    "E4": dict(sizes=(2, 3), count=3),
    "E5": dict(small_sizes=(2, 3), small_count=3, large_sizes=(8,), large_count=2),
    "E6": dict(sizes=(5,), count=2),
    "E7": dict(sizes=(10,), lp_sizes=(5,), simplex_sizes=(), batch_sizes=()),
    "E8": dict(worker_counts=(5,), count=2),
    "E9": dict(small_sizes=(3,), large_sizes=(8,), count=2),
}

#: Experiments whose cells are wall-clock timings: only the table *structure*
#: (headers, row count, summary keys) is pinned, never the measured values.
VOLATILE = {"E7"}

EXPERIMENT_IDS = sorted(GOLDEN_PARAMS)


def run_golden(experiment_id: str, backend: str, workers: int = 0):
    """One canonical reduced run of ``experiment_id`` on ``backend``."""
    with ExecutionContext(seed=0, backend=backend, workers=workers) as ctx:
        return run_experiment(experiment_id, ctx=ctx, **GOLDEN_PARAMS[experiment_id])


def to_payload(result) -> dict:
    """The JSON-serialisable golden form of an :class:`ExperimentResult`."""
    return {
        "experiment_id": result.experiment_id,
        "headers": [str(h) for h in result.headers],
        "rows": [[cell for cell in row] for row in result.rows],
        "summary": dict(result.summary),
    }


def golden_path(experiment_id: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{experiment_id}.json"


def write_golden(result) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with open(golden_path(result.experiment_id), "w", encoding="utf-8") as handle:
        json.dump(to_payload(result), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_golden(experiment_id: str) -> dict:
    path = golden_path(experiment_id)
    if not path.is_file():
        pytest.fail(
            f"missing golden file {path}; regenerate with "
            "`pytest tests/test_golden.py --update-golden`"
        )
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def cells_equal(expected, actual) -> bool:
    """Compare one table/summary cell: numerically when both parse as floats.

    The absolute tolerance absorbs near-zero diagnostics (asymmetries and
    gaps of order 1e-9 whose exact value is BLAS noise); the relative one
    covers objectives and ratios of order one and up.
    """
    if isinstance(expected, bool) or isinstance(actual, bool):
        return bool(expected) == bool(actual)
    try:
        e, a = float(expected), float(actual)
    except (TypeError, ValueError):
        return str(expected) == str(actual)
    if math.isnan(e) or math.isnan(a):
        return math.isnan(e) and math.isnan(a)
    return math.isclose(e, a, rel_tol=1e-5, abs_tol=1e-6)


def assert_matches(result, golden: dict, experiment_id: str) -> None:
    fresh = to_payload(result)
    assert fresh["headers"] == golden["headers"], f"{experiment_id}: headers drifted"
    assert len(fresh["rows"]) == len(golden["rows"]), (
        f"{experiment_id}: expected {len(golden['rows'])} rows, got {len(fresh['rows'])}"
    )
    assert sorted(fresh["summary"]) == sorted(golden["summary"]), (
        f"{experiment_id}: summary keys drifted"
    )
    if experiment_id in VOLATILE:
        return  # timings: structure only
    for i, (expected_row, actual_row) in enumerate(zip(golden["rows"], fresh["rows"])):
        assert len(expected_row) == len(actual_row), f"{experiment_id} row {i}: shape drifted"
        for j, (expected, actual) in enumerate(zip(expected_row, actual_row)):
            assert cells_equal(expected, actual), (
                f"{experiment_id} row {i} col {j}: golden {expected!r} != fresh {actual!r}"
            )
    for key in golden["summary"]:
        assert cells_equal(golden["summary"][key], fresh["summary"][key]), (
            f"{experiment_id} summary[{key!r}]: golden {golden['summary'][key]!r} "
            f"!= fresh {fresh['summary'][key]!r}"
        )


@pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
def test_serial_matches_golden(experiment_id, update_golden):
    result = run_golden(experiment_id, "serial")
    if update_golden:
        write_golden(result)
        return
    assert_matches(result, load_golden(experiment_id), experiment_id)


@pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
def test_vectorized_matches_golden(experiment_id, update_golden):
    # The deprecated alias builds the serial context, so the serial golden
    # run above covers it; only the resolution itself is checked here.
    if update_golden:
        pytest.skip("golden files are regenerated from the serial runs")
    with ExecutionContext(seed=0, backend="vectorized") as ctx:
        assert ctx.backend == "serial"
    with ExecutionContext(seed=0, backend="vectorized", workers=2) as ctx:
        assert ctx.backend == "process-pool"


def test_process_pool_matches_golden(update_golden):
    # One representative experiment on the worker-pool backend keeps the
    # pickling + sharding path under the same golden pin without paying the
    # pool start-up cost nine times.
    if update_golden:
        pytest.skip("golden files are regenerated from the serial runs")
    result = run_golden("E3", "process-pool", workers=2)
    assert_matches(result, load_golden("E3"), "E3")
