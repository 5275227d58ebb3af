"""Tests for reverse-reachable set sampling and greedy max-cover."""

import numpy as np
import pytest

from repro.diffusion.models import Dynamics
from repro.diffusion.rrpool import FlatRRPool, greedy_max_cover, sample_rr_sets
from repro.graph.digraph import DiGraph
from tests.oracles import exact_ic_spread, exact_lt_spread
from tests.reference import RRCollection


def one_set(graph, dynamics, rng, root):
    """The RR set of ``root`` drawn through the batched sampler."""
    lengths, nodes, widths = sample_rr_sets(graph, dynamics, np.array([root]), rng)
    assert lengths.tolist() == [nodes.size]
    return nodes, int(widths[0])


class TestRandomRRSet:
    def test_root_always_included(self, diamond_graph, rng):
        nodes, __ = one_set(diamond_graph, Dynamics.IC, rng, root=3)
        assert 3 in nodes.tolist()

    def test_unit_weights_reach_all_ancestors(self, rng):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[1.0, 1.0])
        nodes, __ = one_set(g, Dynamics.IC, rng, root=2)
        assert sorted(nodes.tolist()) == [0, 1, 2]

    def test_zero_weights_stay_at_root(self, rng):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[0.0, 0.0])
        nodes, __ = one_set(g, Dynamics.IC, rng, root=2)
        assert nodes.tolist() == [2]

    def test_width_counts_in_edges(self, rng):
        g = DiGraph.from_edges(4, [(0, 3), (1, 3), (2, 3)], weights=[0.0, 0.0, 0.0])
        __, width = one_set(g, Dynamics.IC, rng, root=3)
        assert width == 3

    def test_lt_rr_is_a_path(self, rng):
        # Under LT the RR set is a reverse walk: its size never exceeds
        # the longest simple path + 1 and each step has one parent.
        g = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], weights=[1.0, 1.0, 1.0])
        nodes, __ = one_set(g, Dynamics.LT, rng, root=3)
        assert sorted(nodes.tolist()) == [0, 1, 2, 3]

    def test_lt_residual_stops_walk(self, rng):
        g = DiGraph.from_edges(2, [(0, 1)], weights=[0.4])
        sizes, __, __ = sample_rr_sets(g, Dynamics.LT, np.full(4000, 1), rng)
        assert np.mean(sizes == 2) == pytest.approx(0.4, abs=0.03)

    def test_empty_graph_raises(self, rng):
        with pytest.raises(ValueError):
            sample_rr_sets(DiGraph.from_edges(0, []), Dynamics.IC, np.array([0]), rng)

    def test_roots_outside_graph_raise(self, diamond_graph, rng):
        for roots in ([4], [-1], [0, 9]):
            with pytest.raises(ValueError):
                sample_rr_sets(diamond_graph, Dynamics.IC, np.array(roots), rng)

    def test_no_roots_no_sets(self, diamond_graph, rng):
        lengths, nodes, widths = sample_rr_sets(
            diamond_graph, Dynamics.IC, np.array([], dtype=np.int64), rng
        )
        assert lengths.size == nodes.size == widths.size == 0

    @pytest.mark.parametrize("dynamics", [Dynamics.IC, Dynamics.LT])
    def test_repeated_roots_sample_independent_sets(self, dynamics, rng):
        # Sets sharing a root share no state: with a 0.5 in-edge, the
        # root's parent joins about half of 2000 same-root sets, not all
        # or none of them.
        g = DiGraph.from_edges(2, [(0, 1)], weights=[0.5])
        lengths, nodes, __ = sample_rr_sets(g, dynamics, np.full(2000, 1), rng)
        assert np.mean(lengths == 2) == pytest.approx(0.5, abs=0.05)
        assert nodes.size == lengths.sum()

    def test_nodes_sorted_within_each_set(self, diamond_graph, rng):
        roots = np.repeat(np.arange(4), 50)
        lengths, nodes, __ = sample_rr_sets(diamond_graph, Dynamics.IC, roots, rng)
        ptr = np.concatenate(([0], np.cumsum(lengths)))
        for i, root in enumerate(roots):
            members = nodes[ptr[i] : ptr[i + 1]]
            assert root in members
            assert (np.diff(members) > 0).all()


class TestUnbiasedness:
    """Borgs et al.'s identity: P[S hits RR(v*)] = σ(S)/n for uniform v*."""

    @pytest.mark.parametrize("dynamics,oracle", [
        (Dynamics.IC, exact_ic_spread),
        (Dynamics.LT, exact_lt_spread),
    ])
    def test_coverage_matches_exact_spread(self, diamond_graph, rng, dynamics, oracle):
        if dynamics is Dynamics.LT:
            # Scale weights so incoming sums stay <= 1.
            graph = diamond_graph
        else:
            graph = diamond_graph
        seeds = [0]
        pool = FlatRRPool(graph.n)
        pool.extend(graph, dynamics, 30000, rng)
        estimate = pool.coverage_fraction(seeds) * graph.n
        exact = oracle(graph, seeds)
        assert estimate == pytest.approx(exact, abs=0.08)

    def test_multi_seed_coverage(self, diamond_graph, rng):
        pool = FlatRRPool(diamond_graph.n)
        pool.extend(diamond_graph, Dynamics.IC, 30000, rng)
        estimate = pool.coverage_fraction([1, 2]) * diamond_graph.n
        exact = exact_ic_spread(diamond_graph, [1, 2])
        assert estimate == pytest.approx(exact, abs=0.08)


class TestRRCollection:
    def test_inverted_index(self):
        pool = RRCollection(4)
        pool.add(np.array([0, 1]))
        pool.add(np.array([1, 2]))
        assert pool.member_of[1] == [0, 1]
        assert pool.member_of[3] == []
        assert len(pool) == 2

    def test_total_width_accumulates(self):
        pool = RRCollection(3)
        pool.add(np.array([0]), width=5)
        pool.add(np.array([1]), width=7)
        assert pool.total_width == 12

    def test_coverage_fraction_empty(self):
        assert RRCollection(3).coverage_fraction([0]) == 0.0


class TestGreedyMaxCover:
    def test_picks_most_frequent_node(self):
        pool = FlatRRPool(4)
        pool.add(np.array([0, 1]))
        pool.add(np.array([1, 2]))
        pool.add(np.array([1]))
        seeds, coverage = greedy_max_cover(pool, 1)
        assert seeds == [1]
        assert coverage == 1.0

    def test_second_seed_is_marginal_best(self):
        pool = FlatRRPool(5)
        pool.add(np.array([0, 1]))
        pool.add(np.array([0, 1]))
        pool.add(np.array([2]))
        pool.add(np.array([3]))
        pool.add(np.array([3]))
        seeds, coverage = greedy_max_cover(pool, 2)
        # 0 or 1 covers two sets; then 3 covers two more (2 covers one).
        assert seeds[0] in (0, 1)
        assert seeds[1] == 3
        assert coverage == pytest.approx(4 / 5)

    def test_pads_to_k_when_cover_exhausted(self):
        pool = FlatRRPool(5)
        pool.add(np.array([0]))
        seeds, coverage = greedy_max_cover(pool, 3)
        assert len(seeds) == 3
        assert seeds[0] == 0
        assert coverage == 1.0

    def test_k_zero(self):
        pool = FlatRRPool(3)
        pool.add(np.array([0]))
        assert greedy_max_cover(pool, 0) == ([], 0.0)

    def test_no_duplicate_seeds(self):
        pool = FlatRRPool(4)
        for __ in range(5):
            pool.add(np.array([2]))
        seeds, __ = greedy_max_cover(pool, 3)
        assert len(set(seeds)) == 3
