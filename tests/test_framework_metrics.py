"""Tests for resource measurement, budgets and run records."""

import time

import numpy as np
import pytest

from repro.algorithms.base import BudgetExceeded
from repro.algorithms.celf import CELF
from repro.algorithms.heuristics import Degree
from repro.diffusion.models import IC
from repro.framework.metrics import (
    BUDGET_STATUSES,
    FAILURE_STATUSES,
    STATUS_CRASHED,
    STATUS_DNF,
    STATUS_FAILED,
    STATUS_KILLED,
    STATUS_OK,
    Measurement,
    ResourceBudget,
    RunRecord,
    measure,
    run_with_budget,
)
from repro.graph.digraph import DiGraph


@pytest.fixture
def small_graph():
    return IC.weighted(
        DiGraph.from_edges(30, [(i, (i + 1) % 30) for i in range(30)])
    )


class TestMeasure:
    def test_elapsed_positive(self):
        with measure(track_memory=False) as sink:
            time.sleep(0.01)
        assert sink[0].elapsed_seconds >= 0.01
        assert sink[0].peak_memory_mb is None

    def test_memory_tracked(self):
        with measure(track_memory=True) as sink:
            __data = np.zeros(2_000_000)  # ~16 MB
        assert sink[0].peak_memory_mb is not None
        assert sink[0].peak_memory_mb > 10

    def test_nested_measurement(self):
        with measure(track_memory=True) as outer:
            with measure(track_memory=True) as inner:
                __ = np.zeros(500_000)
        assert inner[0].peak_memory_mb is not None
        assert outer[0].peak_memory_mb is not None

    def test_nested_block_does_not_clobber_outer_peak(self):
        # Regression: the inner block's reset_peak() used to erase the
        # outer block's high-water mark, so an outer allocation freed
        # before the inner block started was never reported.
        with measure(track_memory=True) as outer:
            big = np.zeros(2_000_000)  # ~16 MB, the outer peak
            del big
            with measure(track_memory=True) as inner:
                __ = np.zeros(100_000)  # ~0.8 MB
        assert inner[0].peak_memory_mb < 10
        assert outer[0].peak_memory_mb > 10

    def test_outer_peak_sees_nested_allocation(self):
        # The converse direction: a peak inside the inner block must
        # still count toward the enclosing measurement.
        with measure(track_memory=True) as outer:
            with measure(track_memory=True) as inner:
                __ = np.zeros(2_000_000)  # ~16 MB
        assert inner[0].peak_memory_mb > 10
        assert outer[0].peak_memory_mb >= inner[0].peak_memory_mb

    def test_doubly_nested_peaks_propagate(self):
        with measure(track_memory=True) as outer:
            with measure(track_memory=True):
                with measure(track_memory=True) as innermost:
                    __ = np.zeros(2_000_000)  # ~16 MB
        assert outer[0].peak_memory_mb >= innermost[0].peak_memory_mb > 10


class TestResourceBudget:
    def test_memory_budget_raises_crashed(self):
        import tracemalloc

        budget = ResourceBudget(memory_limit_mb=1.0)
        budget.start()
        tracemalloc.start()
        try:
            __data = np.zeros(1_000_000)  # ~8 MB
            with pytest.raises(BudgetExceeded) as err:
                budget.check()
            assert err.value.status == STATUS_CRASHED
        finally:
            tracemalloc.stop()

    def test_time_budget_status_dnf(self):
        budget = ResourceBudget(time_limit_seconds=0.0)
        budget.start()
        time.sleep(0.001)
        with pytest.raises(BudgetExceeded) as err:
            budget.check()
        assert err.value.status == STATUS_DNF


class TestRunWithBudget:
    def test_ok_run(self, small_graph, rng):
        record, result = run_with_budget(Degree(), small_graph, 3, IC, rng=rng)
        assert record.status == STATUS_OK
        assert record.ok
        assert len(record.seeds) == 3
        assert result is not None

    def test_dnf_on_slow_algorithm(self, small_graph, rng):
        record, result = run_with_budget(
            CELF(mc_simulations=5000),
            small_graph,
            5,
            IC,
            rng=rng,
            time_limit_seconds=0.05,
        )
        assert record.status == STATUS_DNF
        assert record.seeds == []
        assert result is None
        assert "budget_detail" in record.extras

    def test_cell_rendering(self):
        ok = RunRecord("X", "IC", 5, STATUS_OK, spread=12.0, elapsed_seconds=1.0,
                       peak_memory_mb=3.0)
        assert "12.0" in ok.cell()
        dnf = RunRecord("X", "IC", 5, STATUS_DNF)
        assert dnf.cell() == "DNF"

    def test_cell_renders_zero_peak_memory(self):
        # Regression: a legitimate measured peak of 0.0 MB used to be
        # truth-tested away and rendered as the untracked "-" placeholder.
        zero = RunRecord("X", "IC", 5, STATUS_OK, spread=1.0,
                         elapsed_seconds=0.5, peak_memory_mb=0.0)
        assert zero.cell().endswith("0MB")
        untracked = RunRecord("X", "IC", 5, STATUS_OK, spread=1.0,
                              elapsed_seconds=0.5, peak_memory_mb=None)
        assert untracked.cell().endswith("-")

    def test_memory_tracking_optional(self, small_graph, rng):
        record, __ = run_with_budget(
            Degree(), small_graph, 2, IC, rng=rng, track_memory=False
        )
        assert record.peak_memory_mb is None


class TestFailureTaxonomy:
    def test_status_vocabulary(self):
        assert STATUS_FAILED == "FAILED" and STATUS_KILLED == "KILLED"
        assert set(BUDGET_STATUSES) == {STATUS_DNF, STATUS_CRASHED}
        assert set(FAILURE_STATUSES) == {STATUS_FAILED, STATUS_KILLED}
        assert STATUS_OK not in BUDGET_STATUSES + FAILURE_STATUSES

    def test_unexpected_exception_becomes_failed(self, small_graph, rng):
        class Boom(Degree):
            def _select(self, *args):
                raise KeyError("boom")

        record, result = run_with_budget(Boom(), small_graph, 3, IC, rng=rng)
        assert record.status == STATUS_FAILED
        assert not record.ok
        assert result is None
        failure = record.extras["failure"]
        assert failure["type"] == "KeyError"
        assert "boom" in failure["traceback"]

    def test_failed_cell_renders_status(self):
        failed = RunRecord("X", "IC", 5, STATUS_FAILED)
        assert failed.cell() == "FAILED"

    def test_memory_limit_without_tracking_rejected(self, small_graph, rng):
        with pytest.raises(ValueError, match="track_memory"):
            run_with_budget(
                Degree(), small_graph, 2, IC, rng=rng,
                memory_limit_mb=10.0, track_memory=False,
            )

    def test_memory_limit_with_tracking_accepted(self, small_graph, rng):
        record, __ = run_with_budget(
            Degree(), small_graph, 2, IC, rng=rng,
            memory_limit_mb=500.0, track_memory=True,
        )
        assert record.status == STATUS_OK
        assert record.peak_memory_mb is not None
