"""Tests for the global score-estimation techniques: IRIE and EaSyIM."""

import numpy as np
import pytest

from repro.algorithms.easyim import EaSyIM
from repro.algorithms.irie import IRIE
from repro.diffusion.models import IC, LT, WC
from repro.graph.digraph import DiGraph
from tests.reference import max_probability_paths


@pytest.fixture
def hub_graph():
    edges = [(0, i) for i in range(1, 8)] + [(8, 9)]
    return IC.weighted(DiGraph.from_edges(10, edges))


class TestMaxProbabilityPaths:
    def test_single_edge(self):
        g = DiGraph.from_edges(2, [(0, 1)], weights=[0.4])
        pp = max_probability_paths(g, 0, threshold=0.01)
        assert pp == {1: pytest.approx(0.4)}

    def test_path_products(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[0.5, 0.5])
        pp = max_probability_paths(g, 0, threshold=0.01)
        assert pp[1] == pytest.approx(0.5)
        assert pp[2] == pytest.approx(0.25)

    def test_threshold_prunes(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[0.1, 0.1])
        pp = max_probability_paths(g, 0, threshold=0.05)
        assert 1 in pp
        assert 2 not in pp  # 0.01 < 0.05

    def test_takes_best_path(self):
        g = DiGraph.from_edges(
            3, [(0, 1), (0, 2), (1, 2)], weights=[0.9, 0.1, 0.9]
        )
        pp = max_probability_paths(g, 0, threshold=0.01)
        assert pp[2] == pytest.approx(0.81)  # via 1, not the direct 0.1 edge

    def test_source_excluded(self):
        g = DiGraph.from_edges(2, [(0, 1), (1, 0)], weights=[0.5, 0.5])
        pp = max_probability_paths(g, 0, threshold=0.01)
        assert 0 not in pp


class TestIRIE:
    def test_finds_hub(self, hub_graph, rng):
        res = IRIE().select(hub_graph, 1, IC, rng=rng)
        assert res.seeds == [0]

    def test_discount_diversifies_seeds(self, hub_graph, rng):
        res = IRIE().select(hub_graph, 2, IC, rng=rng)
        assert res.seeds[0] == 0
        assert res.seeds[1] == 8  # AP discount pushes away from 0's leaves

    def test_rejects_lt(self, hub_graph, rng):
        with pytest.raises(ValueError):
            IRIE().select(hub_graph, 1, LT, rng=rng)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            IRIE(alpha=1.5)

    def test_rank_rewards_two_hop_reach(self, rng):
        # 0 -> 1 -> 2 vs 3 -> 4: node 0 has the same out-degree as 3 but a
        # longer downstream chain, so IR must rank it higher.
        g = IC.weighted(DiGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)]))
        res = IRIE().select(g, 1, IC, rng=rng)
        assert res.seeds == [0]


class TestEaSyIM:
    def test_finds_hub(self, hub_graph, rng):
        res = EaSyIM(path_length=3).select(hub_graph, 1, IC, rng=rng)
        assert res.seeds == [0]

    def test_supports_both_models(self, two_cliques, rng):
        for model in (IC, LT):
            res = EaSyIM(path_length=2).select(two_cliques, 1, model, rng=rng)
            assert len(res.seeds) == 1

    def test_score_discounts_selected_seeds(self, rng):
        # Chain 0 -> 1 -> 2; after seeding 1, node 0's path through 1 is
        # discounted, so an independent edge 3 -> 4 wins the second slot.
        g = IC.weighted(DiGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)]))
        res = EaSyIM(path_length=3).select(g, 2, IC, rng=rng)
        assert res.seeds[0] == 0
        assert res.seeds[1] in (1, 3)

    def test_longer_paths_change_scores(self, rng):
        # With ℓ=1 both 0 and 3 score equally (one out-edge each); ℓ=2
        # separates them through the second hop.
        g = IC.weighted(DiGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)]))
        short = EaSyIM(path_length=1)._scores(
            g, np.ones(5, dtype=bool), g.edge_src
        )
        long = EaSyIM(path_length=2)._scores(
            g, np.ones(5, dtype=bool), g.edge_src
        )
        assert short[0] == pytest.approx(short[3])
        assert long[0] > long[3]

    def test_exact_path_weights(self):
        # Scores under ℓ=2 on a known graph: s(0) = w01*(1 + w12).
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[0.5, 0.25])
        scores = EaSyIM(path_length=2)._scores(
            g, np.ones(3, dtype=bool), g.edge_src
        )
        assert scores[0] == pytest.approx(0.5 * 1.25)
        assert scores[1] == pytest.approx(0.25)
        assert scores[2] == 0.0

    def test_invalid_path_length(self):
        with pytest.raises(ValueError):
            EaSyIM(path_length=0)

    def test_wc_hub_selection(self, rng):
        g = WC.weighted(DiGraph.from_edges(6, [(0, i) for i in range(1, 6)]))
        res = EaSyIM(path_length=2).select(g, 1, WC, rng=rng)
        assert res.seeds == [0]
