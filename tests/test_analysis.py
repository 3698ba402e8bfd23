"""Tests for the analysis helpers (ratios, conjectures, orderings, stats)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Instance
from repro.analysis.conjectures import check_conjecture12_batch, check_conjecture13
from repro.analysis.orderings import (
    OrderingStructure,
    five_task_condition_holds,
    measured_optimal_orders,
    optimal_order_structure,
    paper_predicted_orders,
)
from repro.analysis.ratios import policy_ratios, wdeq_ratio
from repro.analysis.stats import SummaryStats, summarize
from repro.algorithms.wdeq import wdeq_schedule
from repro.core.batch import InstanceBatch
from repro.core.exceptions import InvalidInstanceError
from repro.experiments.exp_conjecture12 import FAMILIES
from tests.conftest import random_instance
from tests.oracles import bruteforce_opt


class TestStats:
    def test_summary_values(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.median == pytest.approx(2.5)

    def test_empty_summary(self):
        stats = summarize([])
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_rows_and_header_align(self):
        stats = summarize([1.0, 2.0])
        assert len(stats.as_row()) == len(SummaryStats.header())


class TestRatios:
    def test_wdeq_ratio_exact_and_bound(self, rng):
        inst = random_instance(rng, n=4, P=2.0)
        exact = wdeq_schedule(inst).weighted_completion_time() / bruteforce_opt(inst)
        bound = wdeq_ratio(inst)
        assert 1.0 - 1e-9 <= exact <= 2.0 + 1e-9
        # The lower bound denominator is smaller than the optimum, so the
        # ratio against it is at least the exact ratio.
        assert bound >= exact - 1e-9

    def test_policy_ratios_keys(self, rng):
        inst = random_instance(rng, n=4, P=2.0)
        ratios = policy_ratios(inst)
        assert "WDEQ" in ratios and "DEQ" in ratios
        assert all(v >= 1.0 - 1e-6 for v in ratios.values())


class TestConjecture12:
    def test_holds_on_random_instances(self, rng):
        insts = [random_instance(rng, n=3, P=1.0) for _ in range(5)]
        checks = check_conjecture12_batch(InstanceBatch.from_instances(insts))
        assert len(checks) == len(insts)
        for check in checks:
            assert check.holds
            assert check.relative_gap == pytest.approx(0.0, abs=1e-6)
            assert check.best_greedy >= check.optimal - 1e-9

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_optimum_matches_the_highs_oracle(self, family, n):
        insts = list(FAMILIES[family](n, 3, rng=np.random.default_rng(40 + n)))
        checks = check_conjecture12_batch(InstanceBatch.from_instances(insts))
        for inst, check in zip(insts, checks):
            assert check.optimal == pytest.approx(bruteforce_opt(inst), rel=1e-9)
            assert check.holds


class TestConjecture13:
    def test_exhaustive_small(self, rng):
        deltas = rng.uniform(0.5, 1.0, 4)
        check = check_conjecture13(deltas)
        assert check.holds
        assert check.orders_checked == 24

    def test_sampled_large(self, rng):
        deltas = rng.uniform(0.5, 1.0, 10)
        check = check_conjecture13(deltas, max_orders=50, rng=rng)
        assert check.holds
        assert check.orders_checked == 50

    def test_explicit_orders(self):
        deltas = [0.9, 0.6, 0.7]
        check = check_conjecture13(deltas, orders=[(0, 1, 2), (2, 1, 0)])
        assert check.orders_checked == 2
        assert check.holds


class TestOrderingStructure:
    def test_paper_predicted_orders(self):
        assert paper_predicted_orders(2) == [(0, 1), (1, 0)]
        assert paper_predicted_orders(3) == [(0, 2, 1), (1, 2, 0)]
        assert paper_predicted_orders(4) == [(0, 2, 1, 3), (3, 1, 2, 0)]
        with pytest.raises(InvalidInstanceError):
            paper_predicted_orders(5)

    def test_measured_optimal_orders(self):
        assert measured_optimal_orders(3) == paper_predicted_orders(3)
        assert measured_optimal_orders(4) == [(0, 2, 3, 1), (1, 3, 2, 0)]
        with pytest.raises(InvalidInstanceError):
            measured_optimal_orders(5)

    @pytest.mark.parametrize("n", [2, 3])
    def test_paper_predictions_are_optimal_up_to_three_tasks(self, rng, n):
        for _ in range(5):
            deltas = rng.uniform(0.5, 1.0, n)
            structure = optimal_order_structure(deltas)
            assert isinstance(structure, OrderingStructure)
            assert structure.predictions_optimal

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_measured_pattern_is_optimal(self, rng, n):
        for _ in range(5):
            deltas = rng.uniform(0.5, 1.0, n)
            structure = optimal_order_structure(deltas)
            assert structure.measured_pattern_optimal

    def test_paper_four_task_order_documented_deviation(self, rng):
        """The paper's printed 1,3,2,4 order is not optimal (documented deviation)."""
        mismatches = 0
        for _ in range(5):
            deltas = rng.uniform(0.5, 1.0, 4)
            structure = optimal_order_structure(deltas)
            mismatches += int(not structure.predictions_optimal)
        assert mismatches > 0

    def test_reversed_orders_equally_optimal(self, rng):
        deltas = rng.uniform(0.5, 1.0, 4)
        structure = optimal_order_structure(deltas)
        for order in structure.optimal_orders:
            assert tuple(reversed(order)) in set(structure.optimal_orders)

    def test_five_task_condition_on_optimal_orders(self, rng):
        for _ in range(3):
            deltas = rng.uniform(0.5, 1.0, 5)
            structure = optimal_order_structure(deltas)
            for order in structure.optimal_orders:
                assert five_task_condition_holds(structure.deltas_sorted, order)

    def test_five_task_condition_requires_five(self):
        with pytest.raises(InvalidInstanceError):
            five_task_condition_holds([0.6, 0.7, 0.8], [0, 1, 2])

    def test_empty_structure(self):
        structure = optimal_order_structure([])
        assert structure.best_greedy_value == 0.0
