"""Property-based tests (hypothesis) on core structures and invariants."""

from contextlib import ExitStack
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.diffusion import rrpool, simulation
from repro.diffusion._frontier import expand_slices
from repro.diffusion.models import Dynamics
from repro.diffusion.oracle import SnapshotOracle
from repro.diffusion.rrpool import FlatRRPool, greedy_max_cover, sample_rr_sets
from repro.diffusion.simulation import cascade_sizes
from repro.graph import weights as weight_schemes
from repro.graph.digraph import DiGraph
from tests.oracles import exact_ic_spread, exact_lt_spread
from tests.reference import dense_reach


@st.composite
def small_graphs(draw, max_nodes=7, max_edges=10, weighted=True):
    """Random small weighted digraphs (few enough edges for exact oracles)."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    edges = draw(st.lists(pairs, max_size=max_edges, unique=True))
    edges = [(u, v) for u, v in edges if u != v]
    if weighted:
        ws = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=len(edges),
                max_size=len(edges),
            )
        )
    else:
        ws = None
    return DiGraph.from_edges(n, edges, weights=ws)


class TestCSRInvariants:
    @given(small_graphs(max_nodes=10, max_edges=25))
    def test_degree_sums_equal_m(self, g):
        assert g.out_degree().sum() == g.m
        assert g.in_degree().sum() == g.m

    @given(small_graphs(max_nodes=10, max_edges=25))
    def test_in_out_views_consistent(self, g):
        out_pairs = {(u, v): w for u, v, w in g.edges()}
        in_pairs = {}
        for v in range(g.n):
            src, w = g.in_neighbors(v)
            for u, wu in zip(src, w):
                in_pairs[(int(u), v)] = float(wu)
        assert out_pairs == in_pairs

    @given(small_graphs(max_nodes=10, max_edges=25))
    def test_ptr_arrays_monotone(self, g):
        assert (np.diff(g.out_ptr) >= 0).all()
        assert (np.diff(g.in_ptr) >= 0).all()
        assert g.out_ptr[-1] == g.m
        assert g.in_ptr[-1] == g.m

    @given(small_graphs(max_nodes=8, max_edges=20))
    def test_reverse_preserves_edge_multiset(self, g):
        r = g.reverse()
        fwd = sorted((u, v, round(w, 9)) for u, v, w in g.edges())
        bwd = sorted((v, u, round(w, 9)) for u, v, w in r.edges())
        assert fwd == bwd


class TestWeightSchemeInvariants:
    @given(small_graphs(max_nodes=8, max_edges=20, weighted=False))
    def test_wc_incoming_sums_one(self, g):
        wg = weight_schemes.weighted_cascade(g)
        sums = weight_schemes.incoming_weight_sums(wg)
        for v in range(g.n):
            if wg.in_degree(v) > 0:
                assert sums[v] == pytest.approx(1.0)

    @given(small_graphs(max_nodes=8, max_edges=20, weighted=False), st.integers(0, 2**31 - 1))
    def test_lt_random_sums_one(self, g, seed):
        wg = weight_schemes.lt_random(g, rng=np.random.default_rng(seed))
        sums = weight_schemes.incoming_weight_sums(wg)
        for v in range(g.n):
            if wg.in_degree(v) > 0:
                assert sums[v] == pytest.approx(1.0)

    @given(small_graphs(max_nodes=8, max_edges=20, weighted=False), st.floats(0.0, 1.0))
    def test_constant_within_bounds(self, g, p):
        wg = weight_schemes.constant(g, p)
        assert ((wg.out_w >= 0) & (wg.out_w <= 1)).all()


class TestSpreadProperties:
    @settings(max_examples=30, deadline=None)
    @given(small_graphs(max_nodes=5, max_edges=7))
    def test_ic_spread_monotone_in_seeds(self, g):
        """σ is monotone (Sec. 2.2): exact enumeration ground truth."""
        base = exact_ic_spread(g, [0])
        larger = exact_ic_spread(g, [0, 1])
        assert larger >= base - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(small_graphs(max_nodes=5, max_edges=7))
    def test_ic_spread_submodular(self, g):
        """Marginal gains diminish: σ(S+v)−σ(S) >= σ(T+v)−σ(T) for S ⊆ T."""
        if g.n < 3:
            return
        v = g.n - 1
        gain_small = exact_ic_spread(g, [0, v]) - exact_ic_spread(g, [0])
        gain_large = exact_ic_spread(g, [0, 1, v]) - exact_ic_spread(g, [0, 1])
        assert gain_small >= gain_large - 1e-9

    @settings(max_examples=20, deadline=None)
    @given(small_graphs(max_nodes=4, max_edges=5, weighted=False))
    def test_lt_spread_monotone(self, g):
        wg = weight_schemes.lt_uniform(g)
        base = exact_lt_spread(wg, [0])
        larger = exact_lt_spread(wg, [0, 1])
        assert larger >= base - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(small_graphs(max_nodes=5, max_edges=7))
    def test_spread_bounded(self, g):
        value = exact_ic_spread(g, [0])
        assert 1.0 - 1e-9 <= value <= g.n + 1e-9


class TestFrontierGather:
    @given(small_graphs(max_nodes=10, max_edges=30), st.data())
    def test_matches_naive_slicing(self, g, data):
        nodes = data.draw(
            st.lists(
                st.integers(0, g.n - 1), min_size=0, max_size=g.n, unique=True
            )
        )
        nodes = np.asarray(sorted(nodes), dtype=np.int64)
        got = expand_slices(g.out_ptr, nodes)
        expected = np.concatenate(
            [np.arange(g.out_ptr[u], g.out_ptr[u + 1]) for u in nodes]
        ) if nodes.size else np.empty(0, dtype=np.int64)
        assert np.array_equal(np.sort(got), np.sort(expected))


@st.composite
def batch_roots(draw, n):
    """``(roots, split)``: a multi-root batch that repeats at least one
    root, and whether to sample it in two-root batches of one-node IC
    level slices instead of one batch."""
    roots = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    return np.asarray(roots + [roots[0]], dtype=np.int64), draw(st.booleans())


def rr_sets(g, dynamics, batch, seed):
    """``[(root, members, width)]`` for one batched draw."""
    roots, split = batch
    with ExitStack() as stack:
        if split:
            stack.enter_context(patch.object(rrpool, "RR_BATCH_CELLS", 2 * g.n))
            stack.enter_context(patch.object(rrpool, "RR_SLICE_EDGES", 1))
        lengths, nodes, widths = sample_rr_sets(
            g, dynamics, roots, np.random.default_rng(seed)
        )
    bounds = np.concatenate(([0], np.cumsum(lengths)))
    return [
        (int(root), nodes[bounds[i] : bounds[i + 1]], int(widths[i]))
        for i, root in enumerate(roots)
    ]


class TestRandomRRSetInvariants:
    """Invariants of every RR set of a batched draw, under both dynamics.

    An RR set is the set of nodes that reach the root through live
    edges, so: the root is always a member, every member reaches the
    root inside the set, LT sets are simple paths (the reverse walk
    keeps at most one in-edge per node), and ``width`` equals the total
    in-degree of the set (each member's in-edges are examined once).
    Each batch repeats a root, whose sets must hold the invariants
    independently, and half the draws split it into several batches and
    one-node level slices.
    """

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_nodes=8, max_edges=16), st.integers(0, 2**31 - 1), st.data())
    def test_root_always_in_set(self, g, seed, data):
        batch = data.draw(batch_roots(g.n))
        for dynamics in (Dynamics.IC, Dynamics.LT):
            for root, nodes, __ in rr_sets(g, dynamics, batch, seed):
                assert root in nodes.tolist()

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_nodes=8, max_edges=16), st.integers(0, 2**31 - 1), st.data())
    def test_members_reach_root_within_set(self, g, seed, data):
        batch = data.draw(batch_roots(g.n))
        for dynamics in (Dynamics.IC, Dynamics.LT):
            for root, nodes, __ in rr_sets(g, dynamics, batch, seed):
                members = set(nodes.tolist())
                # Reverse-close from the root over examined in-edges: the
                # fixpoint must recover every member (RR sets are closed
                # under path intermediates).
                reached = {root}
                grew = True
                while grew:
                    grew = False
                    for v in list(reached):
                        srcs, __ = g.in_neighbors(v)
                        for u in srcs:
                            u = int(u)
                            if u in members and u not in reached:
                                reached.add(u)
                                grew = True
                assert reached == members
                assert len(members) == nodes.size  # each member once

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_nodes=8, max_edges=16, weighted=False),
           st.integers(0, 2**31 - 1), st.data())
    def test_ic_unit_weights_reach_exactly_the_ancestors(self, g, seed, data):
        # Every in-edge is live, so each set must be its root's ancestors
        # (the root included), whatever the batch and slice split: an
        # in-edge skipped or examined twice shows up here.
        batch = data.draw(batch_roots(g.n))
        for root, nodes, __ in rr_sets(g, Dynamics.IC, batch, seed):
            ancestors, stack = {root}, [root]
            while stack:
                for u in g.in_neighbors(stack.pop())[0].tolist():
                    if u not in ancestors:
                        ancestors.add(u)
                        stack.append(u)
            assert nodes.tolist() == sorted(ancestors)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_nodes=8, max_edges=16, weighted=False),
           st.integers(0, 2**31 - 1), st.data())
    def test_lt_set_is_a_simple_path(self, g, seed, data):
        wg = weight_schemes.lt_uniform(g)
        batch = data.draw(batch_roots(wg.n))

        for root, nodes, __ in rr_sets(wg, Dynamics.LT, batch, seed):
            members = set(nodes.tolist())

            def extends_to_path(v, visited):
                if len(visited) == len(members):
                    return True
                srcs, __ = wg.in_neighbors(v)
                return any(
                    extends_to_path(int(u), visited | {int(u)})
                    for u in srcs
                    if int(u) in members and int(u) not in visited
                )

            assert extends_to_path(root, {root})

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_nodes=8, max_edges=16), st.integers(0, 2**31 - 1), st.data())
    def test_width_equals_in_edges_examined(self, g, seed, data):
        batch = data.draw(batch_roots(g.n))
        in_degree = g.in_degree()
        for dynamics in (Dynamics.IC, Dynamics.LT):
            for __, nodes, width in rr_sets(g, dynamics, batch, seed):
                assert width == int(in_degree[nodes].sum())


@st.composite
def reach_cases(draw):
    """``(graph, dynamics, seeds)`` on a graph whose edge weights are 0 or 1.

    Under LT each node keeps at most one weight-1 in-edge, so its
    in-weights sum to at most 1.  Every cascade is then exactly the
    seeds' reach over the weight-1 edges.  Edges are mostly weight 1 and
    there are at least two seeds, so frontier nodes often share a head;
    the seeds repeat one seed, or are empty one time in eight.
    """
    n = draw(st.integers(min_value=2, max_value=8))
    node = st.integers(min_value=0, max_value=n - 1)
    hop = st.integers(min_value=1, max_value=n - 1)
    pairs = st.tuples(node, hop).map(lambda e: (e[0], (e[0] + e[1]) % n))
    edges = draw(st.lists(pairs, min_size=n, max_size=3 * n))  # repeats collapse
    sure = draw(st.lists(st.sampled_from([True, True, True, False]),
                         min_size=len(edges), max_size=len(edges)))
    dynamics = draw(st.sampled_from([Dynamics.IC, Dynamics.LT]))
    if dynamics is Dynamics.LT:
        heads = set()
        for i, (__, v) in enumerate(edges):
            sure[i] = sure[i] and v not in heads
            if sure[i]:
                heads.add(v)
    graph = DiGraph.from_edges(n, edges, weights=[float(x) for x in sure])
    seeds = draw(st.lists(node, min_size=2, max_size=4))
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        seeds = []
    return graph, dynamics, seeds + seeds[:1]


class TestCascadeKernelReach:
    """Each cascade of the batched kernel has the exact reach of S.

    Half the draws run two-cascade batches of one-edge level slices, so a
    frontier spans several slices and the cascades several batches.  The
    pinned example reaches one node from two seeds in one slice.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        reach_cases(),
        st.integers(min_value=1, max_value=5),
        st.booleans(),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @example(
        case=(
            DiGraph.from_edges(3, [(0, 2), (1, 2)], weights=[1.0, 1.0]),
            Dynamics.IC,
            [0, 1, 0],
        ),
        count=2,
        split=False,
        seed=0,
    )
    def test_each_cascade_is_the_exact_reach(self, case, count, split, seed):
        g, dynamics, seeds = case
        reached, todo = set(seeds), list(seeds)
        while todo:
            for v, w in zip(*g.out_neighbors(todo.pop())):
                if w == 1.0 and int(v) not in reached:
                    reached.add(int(v))
                    todo.append(int(v))
        with ExitStack() as stack:
            if split:
                stack.enter_context(
                    patch.object(simulation, "MC_BATCH_CELLS", 2 * g.n)
                )
                stack.enter_context(patch.object(simulation, "MC_SLICE_EDGES", 1))
            sizes = cascade_sizes(
                g, seeds, dynamics, count, np.random.default_rng(seed)
            )
        np.testing.assert_array_equal(sizes, np.full(count, float(len(reached))))


class TestSnapshotOracleReach:
    """The snapshot oracle's σ, gains and committed σ are the dense
    multi-world reference loop's reach counts over R, exactly.

    Each step evaluates a set, asks a gain given extra nodes and may
    commit the gain's node, so gains run against covered worlds and
    often start from covered or extra nodes.  Half the draws cut every
    level into one-edge slices, so a frontier spans several slices.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        small_graphs(max_nodes=8, max_edges=20),
        st.sampled_from([Dynamics.IC, Dynamics.LT]),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.booleans(),
        st.data(),
    )
    def test_matches_dense_reference(
        self, g, dynamics, worlds, seed, split, data
    ):
        node = st.integers(min_value=0, max_value=g.n - 1)
        oracle = SnapshotOracle(g, dynamics, worlds, np.random.default_rng(seed))
        live = oracle.live
        covered = np.zeros_like(oracle.covered)
        sigma = 0.0
        with ExitStack() as stack:
            if split:
                stack.enter_context(patch.object(simulation, "MC_SLICE_EDGES", 1))
            for __ in range(data.draw(st.integers(min_value=1, max_value=4))):
                sources = data.draw(st.lists(node, max_size=4))
                newly = dense_reach(g, live, sources, np.zeros_like(covered))
                assert oracle.evaluate(sources) == newly.sum() / worlds
                v = data.draw(node)
                extra = data.draw(st.lists(node, max_size=3))
                blocked = covered | dense_reach(g, live, extra, covered)
                newly = dense_reach(g, live, [v], blocked)
                assert oracle.gain(v, extra) == newly.sum() / worlds
                if data.draw(st.booleans()):
                    newly = dense_reach(g, live, [v], covered)
                    covered |= newly
                    sigma += newly.sum() / worlds
                    oracle.commit(v)
                    assert oracle.committed_sigma == sigma
                    assert np.array_equal(oracle.covered, covered)


class TestMaxCoverProperties:
    @given(
        st.lists(
            st.lists(st.integers(0, 9), min_size=1, max_size=4),
            min_size=1,
            max_size=12,
        ),
        st.integers(1, 4),
    )
    def test_greedy_at_least_single_best(self, sets, k):
        pool = FlatRRPool(10)
        for s in sets:
            pool.add(np.asarray(sorted(set(s)), dtype=np.int64))
        __, coverage = greedy_max_cover(pool, k)
        best_single = max(
            pool.coverage_fraction([v]) for v in range(10)
        )
        assert coverage >= best_single - 1e-12

    @given(
        st.lists(
            st.lists(st.integers(0, 9), min_size=1, max_size=4),
            min_size=1,
            max_size=12,
        )
    )
    def test_coverage_monotone_in_k(self, sets):
        pool = FlatRRPool(10)
        for s in sets:
            pool.add(np.asarray(sorted(set(s)), dtype=np.int64))
        coverages = [greedy_max_cover(pool, k)[1] for k in (1, 2, 3)]
        assert coverages == sorted(coverages)
