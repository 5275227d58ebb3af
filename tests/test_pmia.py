"""Tests for PMIA: arborescence construction and tree-exact IC greedy."""

import numpy as np
import pytest

from repro.algorithms.pmia import PMIA
from repro.diffusion.models import IC, LT
from repro.diffusion.simulation import monte_carlo_spread
from repro.framework.telemetry import Telemetry, activate
from repro.graph.digraph import DiGraph
from tests.oracles import exact_ic_spread
from tests.reference import LegacyPMIA, build_miia


@pytest.fixture
def chain():
    return DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[0.5, 0.4])


class TestBuildMIIA:
    def test_contains_ancestors_above_threshold(self, chain):
        arb = build_miia(chain, 2, theta=0.01)
        assert arb.nodes == {0, 1, 2}
        assert arb.parent[1] == 2
        assert arb.parent[0] == 1

    def test_threshold_prunes(self, chain):
        arb = build_miia(chain, 2, theta=0.3)
        assert arb.nodes == {1, 2}  # path weight 0.2 < 0.3 excludes 0

    def test_best_path_parent(self):
        # Two routes into 2: direct weak edge vs strong two-hop.
        g = DiGraph.from_edges(
            3, [(0, 2), (0, 1), (1, 2)], weights=[0.1, 0.9, 0.9]
        )
        arb = build_miia(g, 2, theta=0.01)
        assert arb.parent[0] == 1  # via the 0.81 path, not the 0.1 edge

    def test_blocked_interior_nodes(self, chain):
        blocked = np.array([False, True, False])
        arb = build_miia(chain, 2, theta=0.01, blocked=blocked)
        # 1 itself enters (as a frontier node) but conducts nothing, so 0
        # is out of the arborescence.
        assert 1 in arb.nodes
        assert 0 not in arb.nodes

    def test_order_is_leaves_first(self, chain):
        arb = build_miia(chain, 2, theta=0.01)
        position = {u: i for i, u in enumerate(arb.order)}
        for u, x in arb.parent.items():
            assert position[u] < position[x]


class TestTreeDP:
    def test_forward_ap_exact_on_chain(self, chain):
        arb = build_miia(chain, 2, theta=0.01)
        in_seed = np.zeros(3, dtype=bool)
        in_seed[0] = True
        LegacyPMIA._forward_ap(arb, in_seed)
        assert arb.ap[0] == 1.0
        assert arb.ap[1] == pytest.approx(0.5)
        assert arb.ap[2] == pytest.approx(0.2)

    def test_forward_ap_two_parents(self):
        g = DiGraph.from_edges(3, [(0, 2), (1, 2)], weights=[0.5, 0.5])
        arb = build_miia(g, 2, theta=0.01)
        in_seed = np.array([True, True, False])
        LegacyPMIA._forward_ap(arb, in_seed)
        # 1 - (1-0.5)(1-0.5) = 0.75 — exact IC on the tree.
        assert arb.ap[2] == pytest.approx(0.75)

    def test_backward_alpha_chain(self, chain):
        arb = build_miia(chain, 2, theta=0.01)
        in_seed = np.zeros(3, dtype=bool)
        LegacyPMIA._forward_ap(arb, in_seed)
        LegacyPMIA._backward_alpha(arb, in_seed)
        assert arb.alpha[2] == 1.0
        assert arb.alpha[1] == pytest.approx(0.4)
        assert arb.alpha[0] == pytest.approx(0.2)

    def test_alpha_sibling_discount(self):
        # Root 2 with children 0 (ap=1 seed) and 1: alpha(1) is discounted
        # by the chance 0 already activates 2.
        g = DiGraph.from_edges(3, [(0, 2), (1, 2)], weights=[0.5, 0.5])
        arb = build_miia(g, 2, theta=0.01)
        in_seed = np.array([True, False, False])
        LegacyPMIA._forward_ap(arb, in_seed)
        LegacyPMIA._backward_alpha(arb, in_seed)
        assert arb.alpha[1] == pytest.approx(0.5 * (1 - 0.5))

    def test_alpha_blocked_by_seed_root(self, chain):
        arb = build_miia(chain, 2, theta=0.01)
        in_seed = np.array([False, False, True])
        LegacyPMIA._backward_alpha(arb, in_seed)
        assert all(a == 0.0 for a in arb.alpha.values())


class TestSelection:
    def test_first_seed_is_exact_argmax_on_tree(self, rng):
        g = DiGraph.from_edges(
            6, [(0, 1), (0, 2), (1, 3), (2, 4), (5, 4)],
            weights=[0.5, 0.5, 0.5, 0.5, 0.5],
        )
        res = PMIA().select(g, 1, IC, rng=rng)
        spreads = {v: exact_ic_spread(g, [v]) for v in range(6)}
        assert res.seeds[0] == max(spreads, key=spreads.get)

    def test_rejects_lt(self, chain, rng):
        with pytest.raises(ValueError):
            PMIA().select(chain, 1, LT, rng=rng)

    def test_prefix_exclusion_diversifies(self, rng):
        # Chain 0 -> 1 -> 2 plus an island 3 -> 4: after seeding 0, the
        # island must win the second slot (1 and 2 are mostly covered).
        g = DiGraph.from_edges(
            5, [(0, 1), (1, 2), (3, 4)], weights=[0.9, 0.9, 0.9]
        )
        res = PMIA().select(g, 2, IC, rng=rng)
        assert res.seeds[0] == 0
        assert res.seeds[1] == 3

    def test_quality_not_worse_than_degree(self, rng):
        trial = np.random.default_rng(5)
        g = IC.weighted(DiGraph.from_arrays(
            40, trial.integers(0, 40, 120), trial.integers(0, 40, 120)
        ))
        res = PMIA().select(g, 3, IC, rng=rng)
        got = monte_carlo_spread(g, res.seeds, IC, r=3000, rng=rng).mean
        order = np.argsort(-g.out_degree())[:3]
        base = monte_carlo_spread(g, list(order), IC, r=3000, rng=rng).mean
        assert got >= 0.9 * base

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            PMIA(theta=0.0)

    def test_extras(self, chain, rng):
        res = PMIA().select(chain, 1, IC, rng=rng)
        assert res.extras["avg_arborescence_size"] >= 1.0

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_no_rebuild_after_last_pick(self, k):
        # Each pick but the last rebuilds the trees containing it; nothing
        # reads a rebuild after the k-th pick, so k picks run k - 1 rounds.
        trial = np.random.default_rng(5)
        g = IC.weighted(DiGraph.from_arrays(
            40, trial.integers(0, 40, 120), trial.integers(0, 40, 120)
        ))
        tele = Telemetry()
        with activate(tele):
            PMIA().select(g, k, IC, rng=np.random.default_rng(0))
        assert _span_calls(tele.snapshot()["spans"], "paths.rebuild") == k - 1


def _span_calls(spans: dict, name: str) -> int:
    """Calls of span ``name`` anywhere in a snapshot's span tree."""
    return sum(
        (node["calls"] if key == name else 0) + _span_calls(node["children"], name)
        for key, node in spans.items()
    )
