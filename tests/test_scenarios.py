"""Tests for the scenario/sweep subsystem (``repro.scenarios``).

Covers the full round trip the acceptance criteria name: TOML →
:class:`ScenarioSpec` → grid expansion → cell execution → results store →
report table, the Hypothesis property that grid expansion is lossless and
deterministic, and the backend-independence contract — the committed TOML
specs write identical records on every backend, and those records match a
per-instance recomputation with the scalar engine.
"""

from __future__ import annotations

import itertools
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import ExecutionContext
from repro.experiments.report import render_sweep_report
from repro.scenarios import (
    SCENARIOS,
    ResultsStore,
    ScenarioSpec,
    SweepRunner,
    expand_grid,
    get_scenario,
    load_records,
    summary_table,
)
from repro.scenarios.families import cell_chunks, draw_release_times
from repro.scenarios.grid import split_cell_params

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"


def tiny_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="tiny",
        generator="uniform_instances",
        params={"P": 1.0},
        grid={"n": (3, 4)},
        count=3,
        policies=("WDEQ", "DEQ"),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestSpec:
    def test_dict_round_trip_is_lossless(self):
        spec = get_scenario("bursty-poisson")
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_toml_round_trip(self, tmp_path):
        source = ScenarioSpec.from_toml(SCENARIO_DIR / "poisson_bursts.toml")
        assert source.name == "poisson-bursts"
        assert source.arrivals["process"] == "bursty-poisson"
        assert source.grid["arrivals.rate"] == (0.5, 2.0)
        # to_dict -> from_dict reproduces the TOML-loaded spec exactly.
        assert ScenarioSpec.from_dict(source.to_dict()) == source

    def test_toml_resolves_trace_relative_to_file(self):
        spec = ScenarioSpec.from_toml(SCENARIO_DIR / "trace_replay.toml")
        assert pathlib.Path(spec.params["trace"]).is_file()

    def test_missing_scenario_table(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text('[not_scenario]\nname = "x"\n')
        with pytest.raises(ValueError, match="scenario"):
            ScenarioSpec.from_toml(path)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(pipeline="nope"), "pipeline"),
            (dict(count=0), "count"),
            (dict(grid={"n": ()}), "grid axis"),
            (dict(policies=("NotAPolicy",)), "policies"),
            (dict(metrics=("nope",)), "metrics"),
            (dict(arrivals={"process": "weird"}), "arrival"),
            (dict(weights={"dist": "weird"}), "weight"),
            (dict(generator="nope"), "unknown workload generator"),
            # A public generator that yields caps, not instances.
            (dict(generator="homogeneous_halfdelta_deltas"), "unknown workload generator"),
        ],
    )
    def test_validation_rejects(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            tiny_spec(**overrides)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            ScenarioSpec.from_dict({"name": "x", "generator": "g", "typo": 1})

    def test_with_overrides_merges_grid_and_params(self):
        spec = tiny_spec().with_overrides(grid={"n": (9,)}, params={"P": 2.0}, count=5)
        assert spec.grid["n"] == (9,)
        assert spec.params["P"] == 2.0
        assert spec.count == 5

    def test_registry_lookup(self):
        assert get_scenario("e5-policy-comparison").pipeline == "policies"
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")
        assert {"e5-policy-comparison", "e7-solver-scaling", "e8-bandwidth-strategies"} <= set(
            SCENARIOS
        )

    def test_pipeline_metrics_are_pipeline_specific(self):
        # The bandwidth / solver-timing pipelines accept their own metrics...
        spec = ScenarioSpec(
            name="bw", generator="bandwidth_scenario_instances", pipeline="bandwidth",
            grid={"n": (3,)}, metrics=("mean_throughput",),
        )
        assert spec.metrics == ("mean_throughput",)
        ScenarioSpec(
            name="st", generator="cluster_instances", pipeline="solver-timing",
            grid={"n": (3,)}, metrics=("best_ms",),
        )
        # ...and reject metrics belonging to a different pipeline.
        with pytest.raises(ValueError, match="pipeline 'bandwidth'"):
            tiny_spec(name="bad", pipeline="bandwidth", policies=(), metrics=("mean_ratio",))
        with pytest.raises(ValueError, match="policies only apply"):
            tiny_spec(name="bad", pipeline="bandwidth", metrics=())

    def test_registry_trace_replay_works_from_any_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec = get_scenario("trace-replay")
        with ExecutionContext(seed=0, backend="vectorized") as ctx:
            result = SweepRunner(spec, ctx).run()
        assert len(result.records) == 4


# A strategy for small grids: 1-3 axes, each with 1-4 distinct values.
grid_values = st.lists(
    st.one_of(st.integers(-100, 100), st.floats(0.1, 10.0, allow_nan=False), st.text("ab", min_size=1, max_size=3)),
    min_size=1,
    max_size=4,
    unique=True,
)
grids = st.dictionaries(
    st.text("abcxyz", min_size=1, max_size=5), grid_values, min_size=1, max_size=3
)


class TestGridExpansion:
    @settings(max_examples=50, deadline=None)
    @given(grid=grids, base_seed=st.integers(0, 1000))
    def test_expansion_is_lossless_and_deterministic(self, grid, base_seed):
        spec = ScenarioSpec(name="g", generator="uniform_instances", grid=grid)
        cells = expand_grid(spec, base_seed=base_seed)
        # Lossless: the cells are exactly the cross product, each combination
        # appearing exactly once, values read back verbatim.
        expected = [
            dict(zip(sorted(grid), combo))
            for combo in itertools.product(*(grid[k] for k in sorted(grid)))
        ]
        assert [dict(c.params) for c in cells] == expected
        # Deterministic: a second expansion is identical, including seeds.
        again = expand_grid(spec, base_seed=base_seed)
        assert cells == again
        # Seeds are distinct and derived from base_seed + index.
        assert [c.seed for c in cells] == [base_seed + i for i in range(len(cells))]

    def test_split_routes_axis_prefixes(self):
        spec = tiny_spec(
            grid={"n": (4,), "arrivals.rate": (2.0,), "weights.alpha": (1.5,), "count": (7,)},
            arrivals={"process": "poisson", "rate": 1.0},
            weights={"dist": "pareto"},
        )
        cell = expand_grid(spec)[0]
        gen_kwargs, count, arrival, weight = split_cell_params(spec, cell)
        assert gen_kwargs == {"P": 1.0, "n": 4}
        assert count == 7
        assert arrival == {"process": "poisson", "rate": 2.0}
        assert weight == {"dist": "pareto", "alpha": 1.5}


class TestFamilies:
    def test_poisson_releases_are_increasing(self):
        rng = np.random.default_rng(0)
        releases = draw_release_times({"process": "poisson", "rate": 2.0}, 4, 6, rng)
        assert releases.shape == (4, 6)
        assert np.all(np.diff(releases, axis=1) > 0)

    def test_bursty_releases_group_tasks(self):
        rng = np.random.default_rng(0)
        releases = draw_release_times(
            {"process": "bursty-poisson", "rate": 1.0, "burst_size": 3}, 2, 6, rng
        )
        # Without spread, tasks of one burst share their release time.
        assert np.allclose(releases[:, 0], releases[:, 2])
        assert np.all(releases[:, 3] > releases[:, 2])

    def test_none_process_returns_none(self):
        assert draw_release_times({"process": "none"}, 2, 3, np.random.default_rng(0)) is None

    def test_heavy_tailed_generator_weights(self):
        [chunk] = cell_chunks(
            "heavy_tailed_instances", {"n": 6, "P": 16.0, "alpha": 1.5}, 4, {}, {}, seed=0
        )
        assert chunk.releases is None
        assert chunk.batch.batch_size == 4
        assert np.all(chunk.batch.weights >= 1.0)

    def test_weight_redistribution_applies(self):
        [plain] = cell_chunks("uniform_instances", {"n": 5}, 3, {}, {}, seed=1)
        [pareto] = cell_chunks(
            "uniform_instances", {"n": 5}, 3, {}, {"dist": "pareto", "alpha": 1.2}, seed=1
        )
        # Same volumes/caps (same stream), different weights.
        assert np.allclose(plain.batch.volumes, pareto.batch.volumes)
        assert not np.allclose(plain.batch.weights, pareto.batch.weights)
        assert np.all(pareto.batch.weights >= 1.0)

    @pytest.mark.parametrize("dist", ["pareto", "lognormal"])
    def test_load_generator_weights_are_the_family_draw(self, dist):
        """The service load generator draws with ``draw_weights``; the
        closed formula it used to inline pins those bits."""
        from repro.service.loadgen import LoadgenConfig, _draw_weights

        rng = np.random.default_rng(7)
        if dist == "pareto":
            want = np.maximum(1.0 + rng.pareto(1.5, size=50), 1e-3)
        else:
            want = np.maximum(rng.lognormal(mean=0.0, sigma=1.0, size=50), 1e-3)
        config = LoadgenConfig(weight_dist=dist, tasks_per_client=50)
        assert _draw_weights(config, np.random.default_rng(7)).tobytes() == want.tobytes()

    def test_trace_round_trip(self):
        trace = {"trace": str(SCENARIO_DIR / "traces" / "sample_trace.csv"), "P": 8.0}
        [chunk] = cell_chunks("trace_replay", trace, None, {}, {}, seed=0)
        assert chunk.batch.batch_size == 8
        assert chunk.releases is not None and chunk.releases.shape[0] == 8
        # Releases on padding slots are zero (padded-batch convention).
        assert np.all(chunk.releases[~chunk.batch.mask] == 0.0)

    def test_unknown_generator_raises(self):
        from repro.core.exceptions import InvalidInstanceError

        with pytest.raises(InvalidInstanceError, match="unknown workload generator"):
            list(cell_chunks("no_such_generator", {}, 2, {}, {}, seed=0))
        # The spec and the runner share one rule: a public generator that
        # yields caps, not instances, is no family.
        with pytest.raises(InvalidInstanceError, match="unknown workload generator"):
            list(cell_chunks("homogeneous_halfdelta_deltas", {}, 2, {}, {}, seed=0))


def _scalar_engine_records(spec: ScenarioSpec, seed: int) -> dict:
    """``(cell, label) -> (count, metrics)`` of a ``policies`` spec, recomputed
    instance by instance with the scalar engine — the reference the batched
    cell pipeline is checked against."""
    from repro.core.bounds import combined_lower_bound
    from repro.simulation.engine import simulate
    from repro.simulation.nonclairvoyant import default_policies

    expected = {}
    for cell in expand_grid(spec, base_seed=seed):
        gen_kwargs, count, arrival, weight = split_cell_params(spec, cell)
        values: dict[str, list[tuple[float, float, float]]] = {}
        instances = 0
        for chunk in cell_chunks(spec.generator, gen_kwargs, count, arrival, weight, cell.seed):
            releases = chunk.releases
            for b, inst in enumerate(chunk.batch.to_instances()):
                instances += 1
                bound = combined_lower_bound(inst)
                row_releases = releases[b, : inst.n] if releases is not None else None
                for policy in default_policies(inst):
                    if spec.policies and policy.name not in spec.policies:
                        continue
                    result = simulate(inst, policy, release_times=row_releases)
                    objective = result.weighted_completion_time()
                    ratio = objective / bound if bound > 0 else 1.0
                    values.setdefault(policy.name, []).append((ratio, objective, result.makespan()))
        for name, triples in values.items():
            ratios, objectives, makespans = (np.array(column) for column in zip(*triples))
            expected[(cell.index, name)] = (
                instances,
                {
                    "mean_ratio": float(ratios.mean()),
                    "max_ratio": float(ratios.max()),
                    "mean_objective": float(objectives.mean()),
                    "mean_makespan": float(makespans.mean()),
                },
            )
    return expected


class TestBackendIndependence:
    @pytest.mark.parametrize(
        "toml_name",
        ["poisson_bursts.toml", "trace_replay.toml", "heavy_tailed.toml", "trace_stream.toml"],
    )
    def test_committed_spec_identical_on_serial_and_vectorized(self, toml_name):
        """The acceptance bar: every committed TOML spec, full grid, writes
        identical records on the serial and vectorized backends, and every
        record matches a per-instance scalar-engine recomputation."""
        spec = ScenarioSpec.from_toml(SCENARIO_DIR / toml_name)
        with ExecutionContext(seed=3) as ctx:
            serial = SweepRunner(spec, ctx).run()
        with ExecutionContext(seed=3, backend="vectorized") as ctx:
            vectorized = SweepRunner(spec, ctx).run()
        assert vectorized.records == serial.records
        expected = _scalar_engine_records(spec, seed=3)
        assert sorted((r["cell"], r["label"]) for r in serial.records) == sorted(expected)
        for record in serial.records:
            count, metrics = expected[(record["cell"], record["label"])]
            assert record["count"] == count
            assert record["metrics"].keys() == metrics.keys()
            for name, value in metrics.items():
                assert math.isclose(
                    record["metrics"][name], value, rel_tol=1e-6, abs_tol=1e-9
                ), (record["cell"], record["label"], name)

    def test_process_pool_matches_serial(self):
        """Where cells run never changes what they compute: serial,
        vectorized and 2-worker sweeps write equal records, not merely
        tolerance-close ones."""
        spec = tiny_spec()
        with ExecutionContext(seed=5) as ctx:
            serial = SweepRunner(spec, ctx).run()
        for options in ({"workers": 2}, {"backend": "vectorized"}):
            with ExecutionContext(seed=5, **options) as ctx:
                assert SweepRunner(spec, ctx).run().records == serial.records

    def test_cached_rerun_reuses_results(self):
        from repro.batch.cache import ResultCache

        cache = ResultCache()
        spec = tiny_spec()
        with ExecutionContext(seed=0, cache=cache) as ctx:
            first = SweepRunner(spec, ctx).run()
        hits_before = cache.hits
        with ExecutionContext(seed=0, cache=cache) as ctx:
            second = SweepRunner(spec, ctx).run()
        assert [r["metrics"] for r in first.records] == [r["metrics"] for r in second.records]
        assert cache.hits > hits_before

    def test_cache_consulted_on_pooled_runs_too(self):
        """A worker-pool context still skips cells the cache already holds."""
        from repro.batch.cache import ResultCache

        cache = ResultCache()
        spec = tiny_spec()
        with ExecutionContext(seed=0, cache=cache) as ctx:
            first = SweepRunner(spec, ctx).run()
        hits_before = cache.hits
        with ExecutionContext(seed=0, workers=2, cache=cache) as ctx:
            pooled = SweepRunner(spec, ctx).run()
        assert [r["metrics"] for r in first.records] == [r["metrics"] for r in pooled.records]
        assert cache.hits >= hits_before + len(spec.expand())


class TestStoreAndReport:
    def test_full_round_trip_toml_to_report_table(self, tmp_path):
        spec = ScenarioSpec.from_toml(SCENARIO_DIR / "poisson_bursts.toml").with_overrides(
            grid={"n": (4,), "arrivals.rate": (1.0,)}, count=2
        )
        store = ResultsStore(tmp_path / "store")
        with ExecutionContext(seed=1, backend="vectorized") as ctx:
            result = SweepRunner(spec, ctx).run(store=store)
        # JSONL round trip.
        loaded = load_records(store.records_path)
        assert loaded == result.records
        for line in pathlib.Path(store.records_path).read_text().splitlines():
            json.loads(line)
        # Summary file exists and matches the in-memory table.
        summary = pathlib.Path(store.summary_path).read_text()
        assert result.to_markdown() in summary
        # Report renders from the store directory.
        report = render_sweep_report(tmp_path / "store", title="Sweep check")
        assert "## Sweep check" in report
        assert "poisson-bursts" in report
        assert "WDEQ" in report

    def test_summary_table_deterministic_order(self):
        records = [
            {"scenario": "s", "cell": 1, "params": {"n": 2}, "label": "B", "count": 1,
             "metrics": {"m": 2.0}},
            {"scenario": "s", "cell": 0, "params": {"n": 1}, "label": "A", "count": 1,
             "metrics": {"m": 1.0}},
        ]
        headers, rows = summary_table(records)
        assert headers == ["scenario", "cell", "params", "label", "count", "m"]
        assert [row[1] for row in rows] == [0, 1]

    def test_append_accumulates(self, tmp_path):
        store = ResultsStore(tmp_path)
        record = {"scenario": "s", "cell": 0, "params": {}, "label": "A", "count": 1,
                  "metrics": {"m": 1.0}}
        store.append(record)
        store.append(record)
        assert len(store.load()) == 2


class TestSweepCli:
    def test_dry_run_prints_grid(self, capsys):
        from repro.cli import main

        assert main(["sweep", str(SCENARIO_DIR / "poisson_bursts.toml"), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "4 cell(s)" in out
        assert "arrivals.rate=0.5" in out

    def test_list_scenarios(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "bursty-poisson" in out and "e5-policy-comparison" in out

    def test_spec_required_without_list(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["sweep"])
        assert exc.value.code == 2
        assert "malleable-repro sweep: error: a spec" in capsys.readouterr().err

    def test_registry_name_runs_and_persists(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = tmp_path / "results"
        code = main(
            [
                "sweep",
                str(SCENARIO_DIR / "trace_replay.toml"),
                "--output-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "results.jsonl").is_file()
        assert (out_dir / "summary.md").is_file()
        out = capsys.readouterr().out
        assert "record(s)" in out

    def test_unknown_scenario_name_raises(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["sweep", "definitely-not-a-scenario"])
        assert exc.value.code == 2
        assert "unknown scenario 'definitely-not-a-scenario'" in capsys.readouterr().err


class TestExperimentPorts:
    def test_e5_rows_match_standalone_sweep(self):
        """The ported E5 large-n section equals the registry sweep's records."""
        from repro.experiments import run_experiment

        ctx = ExecutionContext(seed=0, backend="vectorized")
        result = run_experiment(
            "E5", ctx=ctx, small_sizes=(), small_count=1, large_sizes=(8,), large_count=3
        )
        spec = get_scenario("e5-policy-comparison").with_overrides(grid={"n": (8,)}, count=3)
        sweep = SweepRunner(spec, ctx).run()
        wdeq = next(r for r in sweep.records if r["label"] == "WDEQ")
        row = next(r for r in result.rows if r[0] == "WDEQ / lower bound")
        assert row[1] == 8 and row[2] == 3
        assert row[3] == f"{wdeq['metrics']['mean_ratio']:.3f}"
        assert row[4] == f"{wdeq['metrics']['max_ratio']:.3f}"

    def test_e8_uses_bandwidth_pipeline(self):
        from repro.experiments import run_experiment

        result = run_experiment("E8", worker_counts=(5,), count=2)
        assert any("scenario sweep" in note for note in result.notes)
        assert result.summary["WDEQ >= best naive strategy on average"] is True

    def test_e7_solver_rows_come_from_scenario(self):
        from repro.experiments import run_experiment

        result = run_experiment(
            "E7", sizes=(10,), lp_sizes=(), simplex_sizes=(), batch_sizes=()
        )
        assert len(result.rows) == 1
        assert result.rows[0][0] == 10
