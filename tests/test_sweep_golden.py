"""Bit-exact golden records of the committed scenario sweeps.

``tests/golden/sweeps/<name>.jsonl`` holds the records of
``SweepRunner(spec, ExecutionContext(seed=3)).run()`` for every committed
``scenarios/*.toml`` spec, plus the built-in ``trace-replay`` scenario with
Pareto-redrawn weights.  Each record must come back ``==`` to the file:
every float is compared bit for bit (JSON floats round-trip exactly), so a
change to the cell pipeline that moves the last digit of any metric fails
here.  The ``trace`` parameter is stored by file name, so the files do not
depend on where the checkout lives.

Regenerate after an intentional change with::

    PYTHONPATH=src python -m pytest tests/test_sweep_golden.py --update-golden
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.exec import ExecutionContext
from repro.scenarios import ScenarioSpec, SweepRunner, get_scenario

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "sweeps"
SCENARIO_DIR = pathlib.Path(__file__).resolve().parents[1] / "scenarios"

#: Golden file stem -> how to build its spec.
SPECS = {
    **{
        path.stem: (lambda path=path: ScenarioSpec.from_toml(path))
        for path in sorted(SCENARIO_DIR.glob("*.toml"))
    },
    "trace_replay_pareto": lambda: get_scenario("trace-replay").with_overrides(
        weights={"dist": "pareto", "alpha": 1.4}
    ),
}


def sweep_records(name: str) -> list[dict]:
    """The records of one golden sweep, with trace paths reduced to file names."""
    with ExecutionContext(seed=3) as ctx:
        records = SweepRunner(SPECS[name](), ctx).run().records
    for record in records:
        if "trace" in record["params"]:
            record["params"]["trace"] = os.path.basename(record["params"]["trace"])
    return records


@pytest.mark.parametrize("name", sorted(SPECS))
def test_sweep_records_match_golden_bit_for_bit(name, update_golden):
    records = sweep_records(name)
    path = GOLDEN_DIR / f"{name}.jsonl"
    if update_golden:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        return
    expected = [json.loads(line) for line in path.read_text().splitlines()]
    # Through JSON, so tuples compare as the lists the file holds.
    assert json.loads(json.dumps(records)) == expected
