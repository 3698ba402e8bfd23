"""Tests for the experiment harness (tiny configurations).

These tests run every experiment with very small parameters: they check that
the harness wires the algorithms together correctly and that the paper's
qualitative claims hold on the miniature runs (they do — the claims are
theorems or very robust empirical statements).
"""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments.base import ExperimentResult
from repro.experiments.report import render_markdown_report, run_all


class TestRegistry:
    def test_all_nine_experiments_registered(self):
        assert set(EXPERIMENTS) == {f"E{i}" for i in range(1, 10)}

    def test_get_experiment_case_insensitive(self):
        assert get_experiment("e1").experiment_id == "E1"

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("E42")


class TestExperimentRuns:
    def test_e1_conjecture12_holds(self):
        result = run_experiment("E1", sizes=(2, 3), count=4, families=("uniform",))
        assert isinstance(result, ExperimentResult)
        assert result.summary["conjecture holds on every instance"] is True

    def test_e2_symmetry_holds(self):
        result = run_experiment("E2", sizes=(3, 8), count=4, max_orders=30)
        assert result.summary["symmetry holds on every instance"] is True

    def test_e3_orderings(self):
        result = run_experiment("E3", sizes=(2, 3, 4), count=4, five_task_count=2)
        assert result.summary["paper's n<=3 orders always optimal"] is True
        assert result.summary["measured n<=4 pattern (1,3,2 / 1,3,4,2) always optimal"] is True
        assert result.summary["5-task necessary condition always satisfied"] is True

    def test_e4_theorem11(self):
        result = run_experiment("E4", sizes=(2, 3), count=4)
        assert result.summary["greedy always optimal"] is True

    def test_e5_wdeq_ratio_below_two(self):
        result = run_experiment(
            "E5", small_sizes=(2, 3), small_count=4, large_sizes=(8,), large_count=2
        )
        assert result.summary["always below 2"] is True

    def test_e6_preemptions(self):
        result = run_experiment("E6", sizes=(5, 10), count=2)
        key = "fractional change bound (Theorem 9) respected on every instance"
        assert result.summary[key] is True

    def test_e7_scaling_produces_rows(self):
        result = run_experiment(
            "E7", sizes=(10,), lp_sizes=(5,), simplex_sizes=(5,), batch_sizes=()
        )
        assert len(result.rows) == 2
        assert result.summary["table I coverage rows"] == 9

    def test_e7_simplex_column_times_the_lockstep_kernel(self, monkeypatch):
        # At n = 10 the batched entry point would hand the LP to HiGHS; the
        # "simplex" column must time the lockstep kernel itself.
        from repro.experiments import exp_scaling

        shapes = []
        kernel = exp_scaling.solve_linear_program_batch

        def counting(c, *tensors):
            shapes.append(c.shape)
            return kernel(c, *tensors)

        monkeypatch.setattr(exp_scaling, "solve_linear_program_batch", counting)
        result = run_experiment("E7", sizes=(), lp_sizes=(10,), simplex_sizes=(10,), batch_sizes=())
        assert shapes == [(1, 10 + 10 * 11 // 2)]
        assert result.rows[0][0] == 10 and result.rows[0][7] != "-"

    def test_e7_batch_throughput_rows(self):
        result = run_experiment(
            "E7",
            sizes=(),
            lp_sizes=(),
            simplex_sizes=(),
            batch_sizes=(16,),
            batch_task_count=8,
            lp_batch_task_count=4,
        )
        assert len(result.rows) == 2
        assert result.rows[0][0] == "B=16 x n=8 (event sim)"
        assert result.rows[1][0] == "B=16 x n=4 (ordered LP)"
        assert "simulate_batch speedup (B=16)" in result.summary
        assert "lp_batch speedup (B=16)" in result.summary

    def test_e8_bandwidth(self):
        result = run_experiment("E8", worker_counts=(5,), count=2)
        assert result.summary["WDEQ >= best naive strategy on average"] is True

    def test_e9_normal_form(self):
        result = run_experiment("E9", small_sizes=(3,), large_sizes=(8,), count=2)
        assert result.summary["all normalised schedules valid"] is True
        assert float(result.summary["max completion-time deviation"]) <= 1e-6

    def test_rendering(self):
        result = run_experiment("E1", sizes=(2,), count=2, families=("uniform",))
        text = result.to_text()
        markdown = result.to_markdown()
        assert "[E1]" in text
        assert "### E1" in markdown
        assert "Paper claim" in text


class TestReport:
    def test_run_all_selected(self):
        results = run_all(experiment_ids=["E3"], count=2, sizes=(2,), five_task_count=1)
        assert len(results) == 1
        report = render_markdown_report(results)
        assert "# Experiment results" in report
        assert "E3" in report
