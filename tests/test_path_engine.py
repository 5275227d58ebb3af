"""The vectorized path-proxy engine vs the dict/heap loops it replaced.

The engine promises *exact* equivalence (bitwise pp, identical settle
order, identical parents), so every comparison here is ``==`` — no
tolerances except where the contract itself states one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.irie import IRIE
from repro.algorithms.ldag import LDAG
from repro.algorithms.pmia import PMIA
from repro.diffusion import paths
from repro.diffusion.models import WC, LT
from repro.diffusion.paths import (
    DagStore,
    PathBatch,
    TreeStore,
    _kernel_chunk,
    batched_max_prob_paths,
    build_dag_store,
    build_tree_store,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import build, powerlaw_configuration
from tests.reference import (
    LegacyIRIE,
    LegacyLDAG,
    LegacyPMIA,
    build_ldag,
    build_miia,
    max_probability_paths,
)

THETA = 1.0 / 320.0


@st.composite
def tie_heavy_graphs(draw, max_nodes=9, max_edges=24):
    """Random digraphs with dyadic weights — exact pp ties are common."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    edges = draw(st.lists(pairs, max_size=max_edges, unique=True))
    edges = [(u, v) for u, v in edges if u != v]
    ws = draw(
        st.lists(
            st.sampled_from([1.0, 0.5, 0.25, 0.125]),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    return DiGraph.from_edges(n, edges, weights=ws)


def legacy_settle(graph, root, theta, blocked=None):
    """(order, parent, weight) replay of ``build_miia``'s heap loop."""
    arb = build_miia(graph, root, theta, blocked=blocked)
    return list(reversed(arb.order)), arb.parent, arb.weight


class TestKernelVsLegacy:
    def test_forward_pp_chain(self, line_graph):
        batch = batched_max_prob_paths(line_graph, [0], 0.1)
        assert batch.pp_dict(0) == max_probability_paths(line_graph, 0, 0.1)

    def test_forward_threshold_prunes(self, line_graph):
        # 0.5^3 = 0.125 < 0.2: node 3 must not appear.
        batch = batched_max_prob_paths(line_graph, [0], 0.2)
        assert 3 not in batch.pp_dict(0)
        assert batch.pp_dict(0) == max_probability_paths(line_graph, 0, 0.2)

    def test_forward_many_sources(self, two_cliques):
        sources = np.arange(two_cliques.n)
        batch = batched_max_prob_paths(two_cliques, sources, THETA)
        for i, s in enumerate(sources):
            assert batch.pp_dict(i) == max_probability_paths(
                two_cliques, int(s), THETA
            )

    def test_reverse_matches_miia(self, diamond_graph):
        batch = batched_max_prob_paths(diamond_graph, [3], 0.01, reverse=True)
        order, parent, weight = legacy_settle(diamond_graph, 3, 0.01)
        sl = batch.slice(0)
        nodes = batch.node[sl].tolist()
        assert nodes == order
        for pos, u in enumerate(nodes):
            ppos = int(batch.parent_pos[sl][pos])
            if u == 3:
                assert ppos == -1
            else:
                assert nodes[ppos] == parent[u]
                assert batch.parent_w[sl][pos] == weight[u]

    def test_blocked_settles_but_conducts_nothing(self, line_graph):
        blocked = np.array([False, False, True, False])
        batch = batched_max_prob_paths(
            line_graph, [3], 0.01, reverse=True, blocked=blocked
        )
        sl = batch.slice(0)
        nodes = batch.node[sl].tolist()
        # Node 2 settles (it is reached) but nothing upstream of it does.
        assert 2 in nodes and 1 not in nodes and 0 not in nodes
        order, parent, weight = legacy_settle(line_graph, 3, 0.01, blocked)
        assert nodes == order

    def test_blocked_source_still_conducts(self, line_graph):
        blocked = np.array([False, False, False, True])
        batch = batched_max_prob_paths(
            line_graph, [3], 0.01, reverse=True, blocked=blocked
        )
        order, __, __w = legacy_settle(line_graph, 3, 0.01, blocked)
        assert batch.node[batch.slice(0)].tolist() == order

    def test_plateau_intra_tie_settle_order(self):
        # pp(1) = pp(2) = 0.5 with 2 reached *through* 1 by a weight-1.0
        # edge: legacy settles 1 first (2 enters the heap only after 1
        # pops), even though sorting by id alone would also put 1 first;
        # the interesting case is the reverse id order below.
        g = DiGraph.from_edges(
            3, [(1, 0), (2, 1)], weights=[0.5, 1.0]
        )
        batch = batched_max_prob_paths(g, [0], 0.01, reverse=True)
        order, __, __w = legacy_settle(g, 0, 0.01)
        assert batch.node[batch.slice(0)].tolist() == order

    def test_plateau_chain_reverse_id_order(self):
        # 0 <- 2 (0.5), 2 <- 1 (1.0): plateau {1, 2} at pp 0.5, but 1 only
        # becomes poppable after 2 settles — chronological heap order is
        # [2, 1], the opposite of id order.  The kernel must replay it.
        g = DiGraph.from_edges(3, [(2, 0), (1, 2)], weights=[0.5, 1.0])
        batch = batched_max_prob_paths(g, [0], 0.01, reverse=True)
        order, __, __w = legacy_settle(g, 0, 0.01)
        assert order == [0, 2, 1]
        assert batch.node[batch.slice(0)].tolist() == order

    def test_workers_identical_results(self, two_cliques):
        sources = np.arange(two_cliques.n)
        serial = batched_max_prob_paths(two_cliques, sources, THETA, reverse=True)
        fanned = batched_max_prob_paths(
            two_cliques, sources, THETA, reverse=True, workers=2
        )
        for a, b in zip(
            (serial.ptr, serial.node, serial.pp, serial.parent_pos,
             serial.parent_w, serial.first_rank),
            (fanned.ptr, fanned.node, fanned.pp, fanned.parent_pos,
             fanned.parent_w, fanned.first_rank),
        ):
            np.testing.assert_array_equal(a, b)

    def test_kernel_rows_independent_of_batch_composition(self):
        # Each row of the batched kernel is a pure function of its own
        # source, which is what lets the kernel split sources into dense
        # batches and worker chunks and concatenate the rows.
        rng = np.random.default_rng(7)
        graph = WC.weighted(build(powerlaw_configuration(120, 2.3, 4.0, rng)), rng)
        sources = np.array([3, 17, 42, 80], dtype=np.int64)
        together = _kernel_chunk(graph, 0.01, True, None, sources)
        ptr = together[0]
        for i, s in enumerate(sources):
            alone = _kernel_chunk(
                graph, 0.01, True, None, np.array([s], dtype=np.int64)
            )
            sl = slice(int(ptr[i]), int(ptr[i + 1]))
            for j in range(1, 6):
                assert np.array_equal(together[j][sl], alone[j])

    def test_kernel_rows_independent_with_one_row_batches(self, monkeypatch):
        # One row per batch: every batch after the first runs on the
        # scratch the previous batch used and cleared.
        monkeypatch.setattr(paths, "_MAX_DENSE", 1)
        self.test_kernel_rows_independent_of_batch_composition()

    @pytest.mark.parametrize("reverse", [False, True])
    def test_no_sources_gives_empty_batch(self, two_cliques, reverse):
        batch = batched_max_prob_paths(two_cliques, [], THETA, reverse=reverse)
        assert len(batch) == 0
        assert batch.ptr.tolist() == [0]
        for arr in (batch.node, batch.pp, batch.parent_pos, batch.parent_w,
                    batch.first_rank):
            assert arr.size == 0

    def test_weights_above_one_rejected(self):
        # The packed settle key relies on every pp lying in (0, 1].
        g = DiGraph.from_edges(2, [(0, 1)], weights=[1.5])
        with pytest.raises(ValueError, match="probabilities"):
            batched_max_prob_paths(g, [0], THETA)

    def test_batch_shape_invariants(self, two_cliques):
        sources = np.arange(two_cliques.n)
        batch = batched_max_prob_paths(two_cliques, sources, THETA)
        assert len(batch) == two_cliques.n
        for i, s in enumerate(sources):
            sl = batch.slice(i)
            assert batch.size(i) == sl.stop - sl.start
            assert batch.node[sl.start] == s          # source first
            assert batch.pp[sl.start] == 1.0
            assert batch.parent_pos[sl.start] == -1
            assert batch.first_rank[sl.start] == -1
            assert s not in batch.pp_dict(i)

    @settings(max_examples=60, deadline=None)
    @given(tie_heavy_graphs())
    def test_property_forward_matches_legacy(self, g):
        batch = batched_max_prob_paths(g, np.arange(g.n), THETA)
        for v in range(g.n):
            legacy = max_probability_paths(g, v, THETA)
            got = batch.pp_dict(v)
            assert got.keys() == legacy.keys()          # same reachable set
            for u, p in legacy.items():
                assert got[u] == p                      # bitwise identical

    @settings(max_examples=60, deadline=None)
    @given(tie_heavy_graphs())
    def test_property_reverse_matches_miia(self, g):
        batch = batched_max_prob_paths(g, np.arange(g.n), THETA, reverse=True)
        for v in range(g.n):
            order, parent, weight = legacy_settle(g, v, THETA)
            sl = batch.slice(v)
            nodes = batch.node[sl].tolist()
            assert nodes == order                       # identical settle order
            for pos, u in enumerate(nodes):
                ppos = int(batch.parent_pos[sl][pos])
                if u == v:
                    assert ppos == -1
                else:
                    assert nodes[ppos] == parent[u]     # identical parents
                    assert abs(batch.parent_w[sl][pos] - weight[u]) <= 1e-12


class TestTreeStore:
    def graph(self):
        rng = np.random.default_rng(3)
        n, m = 40, 160
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        keep = src != dst
        w = rng.choice([1.0, 0.5, 0.25, 0.125], m)[keep]
        return DiGraph.from_edges(
            n, list(zip(src[keep].tolist(), dst[keep].tolist())), weights=w.tolist()
        )

    def test_trees_match_build_miia(self):
        g = self.graph()
        store = build_tree_store(g, THETA)
        for tree in store.structures:
            arb = build_miia(g, tree.root, THETA)
            nodes = tree.nodes.tolist()
            assert nodes == list(reversed(arb.order))
            # Children lists in legacy dict-insertion order.
            kids = {u: [] for u in nodes}
            for t, c in zip(tree.e_tpos.tolist(), tree.e_cpos.tolist()):
                kids[nodes[t]].append(nodes[c])
            for u in nodes:
                assert kids[u] == arb.children[u]

    def test_gains_match_legacy_dp(self):
        g = self.graph()
        store = build_tree_store(g, THETA)
        in_seed = np.zeros(g.n, dtype=bool)
        in_seed[[4, 17]] = True
        for i, (nodes, gains) in enumerate(
            store.gains(list(range(len(store))), in_seed)
        ):
            arb = build_miia(g, store.structures[i].root, THETA)
            LegacyPMIA._forward_ap(arb, in_seed)
            LegacyPMIA._backward_alpha(arb, in_seed)
            legacy = {
                u: arb.alpha[u] * (1.0 - arb.ap[u])
                for u in arb.order if not in_seed[u]
            }
            got = dict(zip(nodes.tolist(), gains.tolist()))
            assert got.keys() == legacy.keys()
            for u, gain in legacy.items():
                assert got[u] == gain

    def test_dirty_and_rebuild_track_membership(self):
        g = self.graph()
        store = build_tree_store(g, THETA)
        seed = int(max(range(g.n), key=lambda u: len(store.dirty(u))))
        dirty = store.dirty(seed)
        assert dirty == sorted(dirty)
        for i in dirty:
            assert seed in set(store.structures[i].nodes.tolist())
        blocked = np.zeros(g.n, dtype=bool)
        blocked[seed] = True
        store.rebuild(dirty, blocked)
        for i in dirty:
            tree = store.structures[i]
            arb = build_miia(g, tree.root, THETA, blocked=blocked)
            assert tree.nodes.tolist() == list(reversed(arb.order))
        # The inverted index reflects the rebuilt membership.
        for u in range(g.n):
            expect = sorted(
                i for i, t in enumerate(store.structures)
                if u in set(t.nodes.tolist())
            )
            assert store.dirty(u) == expect

    def test_rebuild_nothing_is_a_noop(self):
        g = self.graph()
        store = build_tree_store(g, THETA)
        before = [t.nodes for t in store.structures]
        store.rebuild([], np.ones(g.n, dtype=bool))
        assert all(t.nodes is b for t, b in zip(store.structures, before))

    @settings(max_examples=100, deadline=None)
    @given(tie_heavy_graphs(), st.sampled_from([THETA, 0.1]), st.data())
    def test_property_filtered_rebuild_matches_miia(self, g, theta, data):
        # PMIA's round: block the pick, rebuild only the trees where it
        # can push.  Every tree, rebuilt or skipped, must be the MIIA under
        # the whole blocked prefix, and the inverted index must follow.
        picks = data.draw(st.lists(
            st.integers(min_value=0, max_value=g.n - 1),
            min_size=1, max_size=4, unique=True,
        ))
        store = build_tree_store(g, theta)
        blocked = np.zeros(g.n, dtype=bool)
        for s in picks:
            blocked[s] = True
            store.rebuild(store.pushing(store.dirty(s), s), blocked)
            for tree in store.structures:
                arb = build_miia(g, tree.root, theta, blocked=blocked)
                nodes = tree.nodes.tolist()
                assert nodes == list(reversed(arb.order))
                kids = {u: [] for u in nodes}
                for t, c in zip(tree.e_tpos.tolist(), tree.e_cpos.tolist()):
                    kids[nodes[t]].append(nodes[c])
                for u in nodes:
                    assert kids[u] == arb.children[u]
            for u in range(g.n):
                expect = [
                    i for i, t in enumerate(store.structures)
                    if u in set(t.nodes.tolist())
                ]
                assert store.dirty(u) == expect


class TestDagStore:
    def graph(self):
        rng = np.random.default_rng(11)
        n, m = 35, 140
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        keep = src != dst
        w = (rng.uniform(0.05, 0.4, m)[keep]).round(3)
        return DiGraph.from_edges(
            n, list(zip(src[keep].tolist(), dst[keep].tolist())), weights=w.tolist()
        )

    def test_dags_match_build_ldag(self):
        g = self.graph()
        store = build_dag_store(g, THETA)
        for dag in store.structures:
            legacy = build_ldag(g, dag.root, THETA)
            nodes = dag.nodes.tolist()
            assert nodes == list(reversed(legacy.order))
            in_edges = {u: [] for u in nodes}
            for t, s, w in zip(
                dag.e_tpos.tolist(), dag.e_spos.tolist(), dag.e_w.tolist()
            ):
                in_edges[nodes[t]].append((nodes[s], w))
            for u in nodes:
                assert in_edges[u] == legacy.in_edges[u]

    def test_gains_match_legacy_dp(self):
        g = self.graph()
        store = build_dag_store(g, THETA)
        in_seed = np.zeros(g.n, dtype=bool)
        in_seed[[2, 9]] = True
        ldag = LegacyLDAG(eta=THETA)
        for i, (nodes, gains) in enumerate(
            store.gains(list(range(len(store))), in_seed)
        ):
            legacy = ldag._dag_gains(
                build_ldag(g, store.structures[i].root, THETA), in_seed
            )
            got = dict(zip(nodes.tolist(), gains.tolist()))
            assert got.keys() == legacy.keys()
            for u, gain in legacy.items():
                assert got[u] == gain

    def test_workers_identical_store(self):
        g = self.graph()
        serial = build_dag_store(g, THETA)
        fanned = build_dag_store(g, THETA, workers=2)
        assert len(serial) == len(fanned)
        for a, b in zip(serial.structures, fanned.structures):
            np.testing.assert_array_equal(a.nodes, b.nodes)
            np.testing.assert_array_equal(a.pp, b.pp)
            np.testing.assert_array_equal(a.e_tpos, b.e_tpos)
            np.testing.assert_array_equal(a.e_spos, b.e_spos)
            np.testing.assert_array_equal(a.e_w, b.e_w)


class TestEngineSelectionParity:
    """Flat vs legacy seeds on a small weighted graph — must be identical."""

    def graph(self, model):
        rng = np.random.default_rng(21)
        n, m = 60, 240
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        keep = src != dst
        g = DiGraph.from_edges(
            n, list(zip(src[keep].tolist(), dst[keep].tolist()))
        )
        return model.weighted(g)

    LEGACY = {PMIA: LegacyPMIA, LDAG: LegacyLDAG, IRIE: LegacyIRIE}

    @pytest.mark.parametrize("cls,model", [(PMIA, WC), (LDAG, LT), (IRIE, WC)])
    def test_flat_equals_legacy(self, cls, model):
        g = self.graph(model)
        flat = cls().select(g, 8, model, rng=np.random.default_rng(0))
        legacy = self.LEGACY[cls]().select(
            g, 8, model, rng=np.random.default_rng(0)
        )
        assert flat.seeds == legacy.seeds

    def test_pmia_seed_without_in_edges(self, star_graph):
        # The hub has no in-edges, so it can push in no tree: its round
        # rebuilds nothing and only re-sweeps the trees holding it.
        g = WC.weighted(star_graph)
        flat = PMIA().select(g, 3, WC, rng=np.random.default_rng(0))
        legacy = LegacyPMIA().select(g, 3, WC, rng=np.random.default_rng(0))
        assert flat.seeds[0] == 0
        assert flat.seeds == legacy.seeds


class TestIRIETieBreak:
    def test_symmetric_graph_prefers_lowest_id(self):
        # Two disjoint symmetric 3-cycles: every rank iteration is exactly
        # symmetric between {0,1,2} and {3,4,5}, so all six ranks tie and
        # the explicit argmax tie-break must pick ids in ascending order.
        edges, ws = [], []
        for base in (0, 3):
            cyc = [base, base + 1, base + 2]
            for i in range(3):
                u, v = cyc[i], cyc[(i + 1) % 3]
                edges += [(u, v), (v, u)]
                ws += [0.25, 0.25]
        g = DiGraph.from_edges(6, edges, weights=ws)
        for cls in (IRIE, LegacyIRIE):
            res = cls().select(g, 2, WC, rng=np.random.default_rng(0))
            assert res.seeds == [0, 3]
