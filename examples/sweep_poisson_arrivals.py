"""Scenario sweep walkthrough: bursty Poisson arrivals, programmatically.

The CLI equivalent is ``malleable-repro sweep scenarios/poisson_bursts.toml``;
this script builds the same kind of sweep in code to show the four moving
parts — spec, grid expansion, runner, results store — and then verifies the
backend-independence claim by re-running the sweep on two local worker
processes and comparing every record.

Run with ``PYTHONPATH=src python examples/sweep_poisson_arrivals.py``.
"""

from __future__ import annotations

import tempfile

from repro.exec import ExecutionContext
from repro.scenarios import ResultsStore, ScenarioSpec, SweepRunner

# A scenario is data: a generator name, a parameter grid, an arrival
# process and a policy line-up.  The same dict shape loads from TOML.
spec = ScenarioSpec(
    name="poisson-bursts-example",
    description="gangs of 4 tasks released at Poisson burst times",
    generator="cluster_instances",
    params={"P": 64.0},
    grid={"n": (8, 16), "arrivals.rate": (0.5, 2.0)},
    count=6,
    policies=("WDEQ", "DEQ"),
    arrivals={"process": "bursty-poisson", "burst_size": 4, "spread": 0.05},
    metrics=("mean_ratio", "mean_makespan"),
)

# The grid expands deterministically: axes sorted by name, row-major.
for cell in spec.expand(base_seed=7):
    print(f"cell {cell.index}: {cell.label()} (seed {cell.seed})")

# Run serially: each cell is one simulate_batch call per policy.
with tempfile.TemporaryDirectory() as tmp:
    store = ResultsStore(tmp)
    with ExecutionContext(seed=7) as ctx:
        serial = SweepRunner(spec, ctx).run(store=store)
    print()
    print(serial.to_text())
    print(f"\npersisted {len(store.load())} records to {store.records_path}")

# Two worker processes run the same cell pipeline on the same seeded
# workload, so the records are identical, not merely close.
with ExecutionContext(seed=7, workers=2) as ctx:
    pooled = SweepRunner(spec, ctx).run()
print(f"\nserial == 2 workers: {serial.records == pooled.records}")
