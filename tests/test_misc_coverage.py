"""Assorted edge-coverage tests across modules."""

import numpy as np
import pytest

from repro.diffusion._frontier import expand_slices
from repro.diffusion.models import IC, WC
from repro.framework.metrics import RunRecord
from repro.framework.runner import IMFramework
from repro.framework.tuning import tune_parameter
from repro.graph.digraph import DiGraph
from repro.graph.generators import build, erdos_renyi
from repro.graph.multigraph import MultiDiGraph
from repro.graph.stats import effective_diameter


class TestFrontierGatherEdges:
    def test_empty_nodes(self):
        g = DiGraph.from_edges(3, [(0, 1)])
        assert expand_slices(g.out_ptr, np.empty(0, dtype=np.int64)).size == 0

    def test_nodes_without_edges(self):
        g = DiGraph.from_edges(3, [(0, 1)])
        got = expand_slices(g.out_ptr, np.array([1, 2]))
        assert got.size == 0


class TestGeneratorsBuild:
    def test_build_helper(self, rng):
        g = build(erdos_renyi(30, 0.05, rng))
        assert g.n == 30


class TestEffectiveDiameter:
    def test_percentile_monotone(self, rng):
        g = build(erdos_renyi(80, 0.08, rng))
        d50 = effective_diameter(g, percentile=50.0, rng=rng)
        d90 = effective_diameter(g, percentile=90.0, rng=rng)
        assert d90 >= d50

    def test_single_node(self):
        assert effective_diameter(DiGraph.from_edges(1, [])) == 0.0


class TestMultiGraphIteration:
    def test_edge_items_sorted(self):
        mg = MultiDiGraph(4, [(2, 3), (0, 1), (0, 1)])
        items = list(mg.edge_items())
        assert items == [(0, 1, 2), (2, 3, 1)]


class TestRunRecordCell:
    def test_cell_without_memory(self):
        record = RunRecord("X", "IC", 1, "OK", spread=5.0, elapsed_seconds=0.5)
        assert "5.0" in record.cell()
        assert record.cell().endswith("-")

    def test_crashed_cell(self):
        assert RunRecord("X", "IC", 1, "CRASHED").cell() == "CRASHED"


class TestFrameworkEdges:
    @pytest.fixture
    def graph(self):
        rng = np.random.default_rng(0)
        return WC.weighted(DiGraph.from_arrays(
            40, rng.integers(0, 40, 120), rng.integers(0, 40, 120)
        ))

    def test_run_surfaces_immediate_failure(self, graph, rng):
        fw = IMFramework(graph, WC, mc_simulations=50,
                         time_limit_seconds=0.001)
        trace = fw.run("CELF", 2, [{"mc_simulations": 500}], rng=rng)
        assert trace.chosen_index == -1
        assert trace.failure is not None
        assert trace.failure.status == "DNF"
        with pytest.raises(LookupError):
            trace.chosen
        with pytest.raises(LookupError):
            trace.chosen_parameters

    def test_tuning_respects_fixed_params(self, graph, rng):
        result = tune_parameter(
            "IMM", "epsilon", [0.5], graph, WC, 2,
            mc_simulations=50, rng=rng,
            fixed_params={"rr_scale": 0.01, "max_rr_sets": 64},
        )
        assert result.points[0].status == "OK"

    def test_chosen_estimate_matches_record(self, graph, rng):
        fw = IMFramework(graph, WC, mc_simulations=50)
        trace = fw.run("Degree", 2, rng=rng)
        assert trace.chosen_estimate.mean == trace.chosen.spread


class TestModelValueErrors:
    def test_ic_weighting_is_deterministic(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        a = IC.weighted(g)
        b = IC.weighted(g, np.random.default_rng(123))
        assert np.array_equal(a.out_w, b.out_w)
