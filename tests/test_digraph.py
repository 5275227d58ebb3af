"""Unit tests for the CSR DiGraph."""

import numpy as np
import pytest

from repro.graph.digraph import DiGraph


class TestConstruction:
    def test_from_edges_basic(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert g.n == 3
        assert g.m == 3

    def test_empty_graph(self):
        g = DiGraph.from_edges(0, [])
        assert g.n == 0
        assert g.m == 0

    def test_nodes_without_edges(self):
        g = DiGraph.from_edges(5, [(0, 1)])
        assert g.n == 5
        assert g.m == 1
        assert g.out_degree(4) == 0
        assert g.in_degree(4) == 0

    def test_self_loops_dropped(self):
        g = DiGraph.from_edges(3, [(0, 0), (0, 1), (1, 1)])
        assert g.m == 1
        assert g.has_edge(0, 1)

    def test_duplicates_deduplicated(self):
        g = DiGraph.from_edges(3, [(0, 1), (0, 1), (0, 2)])
        assert g.m == 2

    def test_duplicates_kept_when_requested(self):
        g = DiGraph.from_edges(3, [(0, 1), (0, 1)], dedup=False)
        assert g.m == 2

    def test_out_of_range_endpoint_raises(self):
        with pytest.raises(ValueError):
            DiGraph.from_edges(2, [(0, 5)])

    def test_negative_n_raises(self):
        with pytest.raises(ValueError):
            DiGraph.from_arrays(-1, np.array([]), np.array([]))

    def test_mismatched_weights_raise(self):
        with pytest.raises(ValueError):
            DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[0.5])

    def test_mismatched_src_dst_raise(self):
        with pytest.raises(ValueError):
            DiGraph.from_arrays(3, np.array([0, 1]), np.array([1]))


class TestAdjacency:
    def test_out_neighbors(self):
        g = DiGraph.from_edges(4, [(0, 1), (0, 2), (1, 3)], weights=[0.1, 0.2, 0.3])
        dst, w = g.out_neighbors(0)
        assert sorted(dst.tolist()) == [1, 2]
        assert sorted(w.tolist()) == [0.1, 0.2]

    def test_in_neighbors(self):
        g = DiGraph.from_edges(4, [(0, 2), (1, 2), (3, 2)], weights=[0.1, 0.2, 0.3])
        src, w = g.in_neighbors(2)
        assert sorted(src.tolist()) == [0, 1, 3]
        assert w.sum() == pytest.approx(0.6)

    def test_degrees_match_edges(self):
        g = DiGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert g.out_degree().tolist() == [2, 1, 1, 0]
        assert g.in_degree().tolist() == [0, 1, 2, 1]
        assert g.out_degree(0) == 2
        assert g.in_degree(2) == 2

    def test_weight_lookup(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[0.25, 0.75])
        assert g.weight(0, 1) == 0.25
        assert g.weight(1, 2) == 0.75
        with pytest.raises(KeyError):
            g.weight(0, 2)

    def test_has_edge(self):
        g = DiGraph.from_edges(3, [(0, 1)])
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_edge_src_matches_csr(self):
        g = DiGraph.from_edges(4, [(2, 3), (0, 1), (2, 1)])
        src = g.edge_src
        dst = g.edge_dst
        pairs = sorted(zip(src.tolist(), dst.tolist()))
        assert pairs == [(0, 1), (2, 1), (2, 3)]

    def test_edges_iterator(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[0.5, 0.9])
        triples = list(g.edges())
        assert (0, 1, 0.5) in triples
        assert (1, 2, 0.9) in triples


class TestViews:
    def test_in_and_out_views_consistent(self):
        g = DiGraph.from_edges(
            5, [(0, 1), (0, 2), (3, 2), (4, 0), (2, 4)], weights=[0.1, 0.2, 0.3, 0.4, 0.5]
        )
        out_pairs = {(u, v): w for u, v, w in g.edges()}
        in_pairs = {}
        for v in range(g.n):
            src, w = g.in_neighbors(v)
            for u, wu in zip(src, w):
                in_pairs[(int(u), v)] = float(wu)
        assert out_pairs == in_pairs

    def test_with_weights_replaces_both_views(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        new_w = np.array([0.1, 0.2, 0.3])
        g2 = g.with_weights(new_w)
        assert g2.weight(0, 1) in (0.1, 0.2, 0.3)
        for v in range(3):
            src, w_in = g2.in_neighbors(v)
            for u, wu in zip(src, w_in):
                assert g2.weight(int(u), v) == pytest.approx(float(wu))

    def test_with_weights_wrong_length_raises(self):
        g = DiGraph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.with_weights(np.array([0.1, 0.2]))

    def test_in_w_before_sums_earlier_in_edges(self):
        # Node 2's in-edges in in-CSR order: (0, 2), (1, 2), (3, 2).
        edges = [(0, 1), (0, 2), (1, 2), (3, 2)]
        g = DiGraph.from_edges(4, edges, weights=[0.5, 0.1, 0.2, 0.3])

        def by_edge(graph):
            return {(int(u), int(v)): float(b) for u, v, b in
                    zip(graph.edge_src, graph.edge_dst, graph.in_w_before)}

        assert by_edge(g) == pytest.approx(
            {(0, 1): 0.0, (0, 2): 0.0, (1, 2): 0.1, (3, 2): 0.3}
        )
        # A reweighted view builds its own starts, not the cached ones.
        g2 = g.with_weights(np.array([0.5, 0.4, 0.4, 0.2]))
        assert by_edge(g2) == pytest.approx(
            {(0, 1): 0.0, (0, 2): 0.0, (1, 2): 0.4, (3, 2): 0.8}
        )
        assert by_edge(g)[(3, 2)] == pytest.approx(0.3)

    def test_with_weights_keeps_topology(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        g2 = g.with_weights(np.array([0.9, 0.8]))
        assert g2.n == g.n
        assert g2.m == g.m
        assert np.array_equal(g2.out_dst, g.out_dst)

    def test_reverse(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[0.3, 0.7])
        r = g.reverse()
        assert r.has_edge(1, 0)
        assert r.has_edge(2, 1)
        assert r.weight(1, 0) == pytest.approx(0.3)
        assert not r.has_edge(0, 1)

    def test_reverse_twice_is_identity(self):
        g = DiGraph.from_edges(4, [(0, 1), (2, 3), (1, 3)], weights=[0.2, 0.4, 0.6])
        rr = g.reverse().reverse()
        assert g == rr


class TestEquality:
    def test_equal_graphs(self):
        g1 = DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[0.5, 0.5])
        g2 = DiGraph.from_edges(3, [(1, 2), (0, 1)], weights=[0.5, 0.5])
        assert g1 == g2

    def test_unequal_weights(self):
        g1 = DiGraph.from_edges(3, [(0, 1)], weights=[0.5])
        g2 = DiGraph.from_edges(3, [(0, 1)], weights=[0.6])
        assert g1 != g2
