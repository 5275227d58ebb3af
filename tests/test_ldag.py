"""Tests for LDAG: local DAG construction and LT-linear greedy selection."""

import numpy as np
import pytest

from repro.algorithms.ldag import LDAG
from repro.diffusion.models import IC, LT
from repro.diffusion.simulation import monte_carlo_spread
from repro.graph.digraph import DiGraph
from tests.oracles import exact_lt_spread
from tests.reference import LegacyLDAG, build_ldag


@pytest.fixture
def lt_chain():
    """0 -> 1 -> 2 with weight-1 edges (LT-uniform on a chain)."""
    return DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[1.0, 1.0])


class TestBuildLDAG:
    def test_chain_dag_contains_all_ancestors(self, lt_chain):
        dag = build_ldag(lt_chain, 2, eta=1 / 320)
        assert dag.nodes == {0, 1, 2}

    def test_threshold_prunes_far_nodes(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[0.1, 0.1])
        dag = build_ldag(g, 2, eta=0.05)
        assert 1 in dag.nodes
        assert 0 not in dag.nodes  # path product 0.01 < 0.05

    def test_edges_point_toward_root(self, lt_chain):
        dag = build_ldag(lt_chain, 2, eta=1 / 320)
        # In-edges of 2 inside the DAG come only from farther node 1.
        assert [y for y, __ in dag.in_edges[2]] == [1]
        assert [y for y, __ in dag.in_edges[1]] == [0]
        assert dag.in_edges[0] == []

    def test_order_is_topological(self, lt_chain):
        dag = build_ldag(lt_chain, 2, eta=1 / 320)
        position = {u: i for i, u in enumerate(dag.order)}
        for x in dag.order:
            for y, __ in dag.in_edges[x]:
                assert position[y] < position[x]

    def test_cycle_broken_acyclically(self):
        g = DiGraph.from_edges(2, [(0, 1), (1, 0)], weights=[0.5, 0.5])
        dag = build_ldag(g, 0, eta=0.1)
        position = {u: i for i, u in enumerate(dag.order)}
        for x in dag.order:
            for y, __ in dag.in_edges[x]:
                assert position[y] < position[x]


class TestActivationProbability:
    def test_forward_ap_linear(self, lt_chain):
        dag = build_ldag(lt_chain, 2, eta=1 / 320)
        in_seed = np.zeros(3, dtype=bool)
        in_seed[0] = True
        LegacyLDAG._forward_ap(dag, in_seed)
        assert dag.ap[0] == 1.0
        assert dag.ap[1] == pytest.approx(1.0)
        assert dag.ap[2] == pytest.approx(1.0)

    def test_ap_product_along_weights(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[0.5, 0.4])
        dag = build_ldag(g, 2, eta=0.01)
        in_seed = np.zeros(3, dtype=bool)
        in_seed[0] = True
        LegacyLDAG._forward_ap(dag, in_seed)
        assert dag.ap[1] == pytest.approx(0.5)
        assert dag.ap[2] == pytest.approx(0.2)

    def test_alpha_is_path_weight(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[0.5, 0.4])
        dag = build_ldag(g, 2, eta=0.01)
        in_seed = np.zeros(3, dtype=bool)
        LegacyLDAG._backward_alpha(dag, in_seed)
        assert dag.alpha[2] == 1.0
        assert dag.alpha[1] == pytest.approx(0.4)
        assert dag.alpha[0] == pytest.approx(0.2)

    def test_alpha_blocked_by_seed(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[0.5, 0.4])
        dag = build_ldag(g, 2, eta=0.01)
        in_seed = np.zeros(3, dtype=bool)
        in_seed[1] = True
        LegacyLDAG._backward_alpha(dag, in_seed)
        assert dag.alpha[0] == 0.0  # influence to 2 only flows through seed 1

    def test_alpha_zero_when_root_seeded(self, lt_chain):
        dag = build_ldag(lt_chain, 2, eta=0.01)
        in_seed = np.zeros(3, dtype=bool)
        in_seed[2] = True
        LegacyLDAG._backward_alpha(dag, in_seed)
        assert all(a == 0.0 for a in dag.alpha.values())


class TestSelection:
    def test_chain_picks_head(self, lt_chain, rng):
        res = LDAG().select(lt_chain, 1, LT, rng=rng)
        assert res.seeds == [0]

    def test_rejects_ic(self, lt_chain, rng):
        with pytest.raises(ValueError):
            LDAG().select(lt_chain, 1, IC, rng=rng)

    def test_matches_exact_greedy_on_tree(self, rng):
        # On a DAG the LDAG computation is exact, so its first seed must be
        # the true argmax of exact LT spread.
        g = DiGraph.from_edges(
            6, [(0, 1), (0, 2), (1, 3), (2, 4), (5, 4)],
            weights=[0.5, 0.5, 0.5, 0.5, 0.5],
        )
        res = LDAG().select(g, 1, LT, rng=rng)
        spreads = {v: exact_lt_spread(g, [v]) for v in range(6)}
        assert res.seeds[0] == max(spreads, key=spreads.get)

    def test_quality_close_to_mc(self, rng):
        trial_rng = np.random.default_rng(0)
        g = DiGraph.from_arrays(
            40, trial_rng.integers(0, 40, 120), trial_rng.integers(0, 40, 120)
        )
        from repro.diffusion.models import LT as LTModel

        wg = LTModel.weighted(g)
        res = LDAG().select(wg, 3, LTModel, rng=rng)
        got = monte_carlo_spread(wg, res.seeds, LTModel, r=2000, rng=rng).mean
        # Compare against degree heuristic — LDAG should not be worse.
        order = np.argsort(-wg.out_degree())[:3]
        base = monte_carlo_spread(wg, list(order), LTModel, r=2000, rng=rng).mean
        assert got >= 0.9 * base

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            LDAG(eta=0.0)
        with pytest.raises(ValueError):
            LDAG(eta=2.0)

    def test_extras_report_dag_sizes(self, lt_chain, rng):
        res = LDAG().select(lt_chain, 1, LT, rng=rng)
        assert res.extras["total_dag_nodes"] >= 3
        assert res.extras["avg_dag_size"] > 0
