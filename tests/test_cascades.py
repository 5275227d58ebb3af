"""Tests for the IC and LT cascade simulators against exact oracles.

The single-cascade LT simulator and ``simulate_spread`` are the
per-cascade reference of ``tests/reference/mc.py``; the spread estimates
run the batched kernel behind ``monte_carlo_spread``.
"""

import numpy as np
import pytest

from repro.diffusion.independent_cascade import simulate_ic
from repro.diffusion.models import Dynamics
from repro.diffusion.simulation import monte_carlo_spread
from repro.graph.digraph import DiGraph
from tests.oracles import exact_ic_spread, exact_lt_spread
from tests.reference.mc import simulate_lt, simulate_spread


class TestICBasics:
    def test_seeds_always_active(self, line_graph, rng):
        active = simulate_ic(line_graph, [0, 2], rng)
        assert active[0] and active[2]

    def test_no_seeds_no_activity(self, line_graph, rng):
        active = simulate_ic(line_graph, [], rng)
        assert not active.any()

    def test_deterministic_with_unit_weights(self, rng):
        g = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], weights=[1, 1, 1])
        active = simulate_ic(g, [0], rng)
        assert active.all()

    def test_zero_weights_block(self, rng):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[0, 0])
        active = simulate_ic(g, [0], rng)
        assert active.tolist() == [True, False, False]

    def test_respects_direction(self, rng):
        g = DiGraph.from_edges(2, [(0, 1)], weights=[1.0])
        active = simulate_ic(g, [1], rng)
        assert active.tolist() == [False, True]

    def test_duplicate_seeds_ok(self, line_graph, rng):
        active = simulate_ic(line_graph, [0, 0, 0], rng)
        assert active[0]


class TestICExact:
    def test_line_graph_spread_matches_exact(self, line_graph, rng):
        exact = exact_ic_spread(line_graph, [0])
        est = monte_carlo_spread(line_graph, [0], Dynamics.IC, r=20000, rng=rng)
        assert est.mean == pytest.approx(exact, abs=4 * est.stderr + 1e-9)

    def test_diamond_graph_spread_matches_exact(self, diamond_graph, rng):
        exact = exact_ic_spread(diamond_graph, [0])
        est = monte_carlo_spread(diamond_graph, [0], Dynamics.IC, r=20000, rng=rng)
        assert est.mean == pytest.approx(exact, abs=4 * est.stderr + 1e-9)

    def test_multi_seed_spread_matches_exact(self, diamond_graph, rng):
        exact = exact_ic_spread(diamond_graph, [1, 2])
        est = monte_carlo_spread(diamond_graph, [1, 2], Dynamics.IC, r=20000, rng=rng)
        assert est.mean == pytest.approx(exact, abs=4 * est.stderr + 1e-9)

    def test_each_edge_tried_once(self, rng):
        # A single edge with p = 0.5: spread of {0} must average 1.5,
        # not higher (no retries across time steps).
        g = DiGraph.from_edges(2, [(0, 1)], weights=[0.5])
        est = monte_carlo_spread(g, [0], Dynamics.IC, r=20000, rng=rng)
        assert est.mean == pytest.approx(1.5, abs=0.02)


class TestLTBasics:
    def test_seeds_always_active(self, line_graph, rng):
        active = simulate_lt(line_graph, [0], rng)
        assert active[0]

    def test_no_seeds_no_activity(self, line_graph, rng):
        assert not simulate_lt(line_graph, [], rng).any()

    def test_weight_one_edge_always_fires(self, rng):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[1.0, 1.0])
        for __ in range(20):
            active = simulate_lt(g, [0], rng)
            assert active.all()

    def test_threshold_override(self):
        g = DiGraph.from_edges(2, [(0, 1)], weights=[0.5])
        rng = np.random.default_rng(0)
        low = simulate_lt(g, [0], rng, thresholds=np.array([0.9, 0.4]))
        assert low[1]
        high = simulate_lt(g, [0], rng, thresholds=np.array([0.9, 0.6]))
        assert not high[1]

    def test_threshold_shape_validated(self, line_graph, rng):
        with pytest.raises(ValueError):
            simulate_lt(line_graph, [0], rng, thresholds=np.array([0.5]))

    def test_accumulation_across_neighbors(self, rng):
        # Two in-edges of 0.5 each: once both sources are active, the target
        # activates with probability 1 (sum = 1 >= any threshold).
        g = DiGraph.from_edges(3, [(0, 2), (1, 2)], weights=[0.5, 0.5])
        for __ in range(20):
            active = simulate_lt(g, [0, 1], rng)
            assert active[2]


class TestLTExact:
    def test_line_graph_matches_live_edge_oracle(self, line_graph, rng):
        exact = exact_lt_spread(line_graph, [0])
        est = monte_carlo_spread(line_graph, [0], Dynamics.LT, r=20000, rng=rng)
        assert est.mean == pytest.approx(exact, abs=4 * est.stderr + 1e-9)

    def test_diamond_graph_matches_live_edge_oracle(self, diamond_graph, rng):
        exact = exact_lt_spread(diamond_graph, [0])
        est = monte_carlo_spread(diamond_graph, [0], Dynamics.LT, r=20000, rng=rng)
        assert est.mean == pytest.approx(exact, abs=4 * est.stderr + 1e-9)


class TestSimulateSpread:
    def test_returns_count(self, line_graph, rng):
        value = simulate_spread(line_graph, [0], Dynamics.IC, rng)
        assert 1 <= value <= 4

    def test_lt_dispatch(self, line_graph, rng):
        value = simulate_spread(line_graph, [0], Dynamics.LT, rng)
        assert value >= 1
