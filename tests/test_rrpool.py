"""Unit tests for the flat CSR RR-set engine (repro.diffusion.rrpool)."""

import tracemalloc

import numpy as np
import pytest

from repro.algorithms.imm import IMM
from repro.datasets import load
from repro.diffusion.models import IC, Dynamics, WC
from repro.diffusion import rrpool
from repro.diffusion.rrpool import FlatRRPool, greedy_max_cover, pad_seeds
from repro.framework import IsolationConfig, execute_cell
from repro.graph.digraph import DiGraph
from repro.graph.generators import build, powerlaw_configuration
from tests.reference import (
    RRCollection,
    argsort_node_index,
    greedy_max_cover_legacy,
)


def random_pool(n: int, num_sets: int, rng: np.random.Generator) -> FlatRRPool:
    """A pool of random subsets — no graph semantics, pure data structure."""
    pool = FlatRRPool(n)
    for __ in range(num_sets):
        size = int(rng.integers(1, max(2, n // 2)))
        pool.add(rng.choice(n, size=size, replace=False))
    return pool


@pytest.fixture
def wc_graph(rng):
    return WC.weighted(build(powerlaw_configuration(120, 2.3, 4.0, rng)), rng)


class TestFlatCSRLayout:
    def test_set_view_roundtrip(self, rng):
        pool = FlatRRPool(10)
        sets = [np.array([1, 3]), np.array([0]), np.array([2, 5, 9])]
        for s in sets:
            pool.add(s)
        assert pool.set_ptr.tolist() == [0, 2, 3, 6]
        for i, s in enumerate(sets):
            assert pool.nodes_of(i).tolist() == s.tolist()

    def test_node_index_matches_bruteforce(self, rng):
        pool = random_pool(17, 40, rng)
        ptr, data = pool.set_ptr, pool.set_nodes
        expected = {v: [] for v in range(pool.n)}
        for i in range(len(pool)):
            for v in data[ptr[i] : ptr[i + 1]]:
                expected[int(v)].append(i)
        for v in range(pool.n):
            assert pool.sets_of(v).tolist() == expected[v]

    @pytest.mark.parametrize("model", [IC, WC], ids=["IC", "WC"])
    def test_node_index_matches_argsort_build(self, model, monkeypatch):
        # Small chunks make the counting sort carry its per-node cursor
        # across many chunks.
        monkeypatch.setattr(rrpool, "INDEX_CHUNK_ENTRIES", 64)
        gen = np.random.default_rng(3)
        graph = model.weighted(
            build(powerlaw_configuration(300, 2.3, 5.0, gen)), gen
        )
        pool = FlatRRPool(graph.n)
        pool.extend(graph, Dynamics.IC, 400, np.random.default_rng(4))
        for got, want in zip(pool.node_index, argsort_node_index(pool)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_node_index_matches_argsort_build_past_16_bit_ids(self, monkeypatch):
        # Node ids past 2**16 take the plain int64 sort instead of the
        # 16-bit radix sort.
        monkeypatch.setattr(rrpool, "INDEX_CHUNK_ENTRIES", 64)
        gen = np.random.default_rng(5)
        lengths = gen.integers(1, 20, size=200)
        nodes = np.concatenate(
            [gen.choice(2**17, size=size, replace=False) for size in lengths]
        )
        pool = FlatRRPool(2**17)
        pool.append_chunk(lengths, nodes, np.zeros(lengths.size, dtype=np.int64))
        for got, want in zip(pool.node_index, argsort_node_index(pool)):
            np.testing.assert_array_equal(got, want)

    def test_incremental_adds_append_whole_sets(self):
        pool = FlatRRPool(4)
        pool.add(np.array([0]))
        assert len(pool) == 1
        assert pool.set_ptr.tolist() == [0, 1]
        pool.add(np.array([1, 2]), width=3)
        assert len(pool) == 2
        assert pool.set_ptr.tolist() == [0, 1, 3]
        assert pool.set_nodes.tolist() == [0, 1, 2]
        assert pool.widths.tolist() == [0, 3]
        assert pool.total_width == 3

    def test_membership_counts(self, rng):
        pool = FlatRRPool(5)
        pool.add(np.array([0, 1]))
        pool.add(np.array([1, 4]))
        assert pool.membership_counts().tolist() == [1, 2, 0, 0, 1]

    def test_nbytes_counts_all_csr_arrays(self, rng):
        pool = random_pool(17, 40, rng)
        before = pool.nbytes
        assert before >= pool.set_ptr.nbytes + pool.set_nodes.nbytes
        __ = pool.node_index
        assert pool.nbytes > before  # inverted index now materialized

    def test_absorb(self, rng):
        a = random_pool(9, 5, rng)
        b = random_pool(9, 7, rng)
        expect = [a.nodes_of(i).tolist() for i in range(5)]
        expect += [b.nodes_of(i).tolist() for i in range(7)]
        a.absorb(b)
        assert len(a) == 12
        assert [a.nodes_of(i).tolist() for i in range(12)] == expect

    def test_absorb_rejects_mismatched_universe(self):
        with pytest.raises(ValueError):
            FlatRRPool(3).absorb(FlatRRPool(4))

    def test_coverage_fraction(self):
        pool = FlatRRPool(4)
        pool.add(np.array([0, 1]))
        pool.add(np.array([2]))
        assert pool.coverage_fraction([1]) == 0.5
        assert pool.coverage_fraction([1, 2]) == 1.0
        assert pool.coverage_fraction([]) == 0.0
        assert FlatRRPool(4).coverage_fraction([0]) == 0.0


class TestParallelSampling:
    def test_deterministic_for_fixed_count_workers(self, wc_graph):
        pools = []
        for __ in range(2):
            rng = np.random.default_rng(42)
            p = FlatRRPool(wc_graph.n)
            p.extend(wc_graph, Dynamics.IC, 200, rng, workers=2)
            pools.append(p)
        a, b = pools
        assert np.array_equal(a.set_ptr, b.set_ptr)
        assert np.array_equal(a.set_nodes, b.set_nodes)
        assert np.array_equal(a.widths, b.widths)

    def test_worker_count_changes_stream(self, wc_graph):
        p2 = FlatRRPool(wc_graph.n)
        p2.extend(wc_graph, Dynamics.IC, 200, np.random.default_rng(42), workers=2)
        p3 = FlatRRPool(wc_graph.n)
        p3.extend(wc_graph, Dynamics.IC, 200, np.random.default_rng(42), workers=3)
        assert len(p2) == len(p3) == 200
        assert not np.array_equal(p2.set_nodes, p3.set_nodes)

    def test_parallel_budget_ticks(self, wc_graph):
        class Counter:
            calls = 0

            def check(self):
                Counter.calls += 1

        p = FlatRRPool(wc_graph.n)
        p.extend(
            wc_graph, Dynamics.IC, 50, np.random.default_rng(0),
            workers=2, budget=Counter(),
        )
        assert Counter.calls == 2  # once per worker chunk

    def test_workers_one_matches_serial(self, wc_graph):
        serial = FlatRRPool(wc_graph.n)
        serial.extend(wc_graph, Dynamics.IC, 100, np.random.default_rng(5))
        one = FlatRRPool(wc_graph.n)
        one.extend(wc_graph, Dynamics.IC, 100, np.random.default_rng(5), workers=1)
        assert np.array_equal(serial.set_nodes, one.set_nodes)


class TestFlatCoverEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_identical_seeds_on_random_pools(self, seed):
        rng = np.random.default_rng(seed)
        pool = random_pool(40, 300, rng)
        k = int(rng.integers(1, 12))
        flat_seeds, flat_cov = greedy_max_cover(pool, k)
        legacy_seeds, legacy_cov = greedy_max_cover_legacy(pool, k)
        assert flat_seeds == legacy_seeds
        assert flat_cov == legacy_cov

    def test_identical_on_sampled_rr_pools(self, wc_graph, rng):
        pool = FlatRRPool(wc_graph.n)
        pool.extend(wc_graph, Dynamics.IC, 2000, rng)
        degree = wc_graph.out_degree()
        flat = greedy_max_cover(pool, 10, pad_priority=degree)
        legacy = greedy_max_cover_legacy(pool, 10, pad_priority=degree)
        assert flat == legacy

    @pytest.mark.parametrize("source", ["random-0", "random-1", "IC"])
    def test_identical_when_picks_gather_in_many_chunks(self, source, monkeypatch):
        # Sampled before the patch; 8-entry chunks then cut every pick
        # that covers more than one or two sets into several gathers.
        gen = np.random.default_rng(7)
        if source == "IC":
            graph = IC.weighted(build(powerlaw_configuration(150, 2.3, 5.0, gen)), gen)
            pool = FlatRRPool(graph.n)
            pool.extend(graph, Dynamics.IC, 500, gen)
            degree = graph.out_degree()
        else:
            pool = random_pool(40, 300, np.random.default_rng(int(source[-1])))
            degree = None
        monkeypatch.setattr(rrpool, "INDEX_CHUNK_ENTRIES", 8)
        gathers = []
        real_gather = rrpool._gather_csr

        def counting_gather(ptr, data, ids):
            gathers.append(ids.size)
            return real_gather(ptr, data, ids)

        monkeypatch.setattr(rrpool, "_gather_csr", counting_gather)
        flat = greedy_max_cover(pool, 10, pad_priority=degree)
        legacy = greedy_max_cover_legacy(pool, 10, pad_priority=degree)
        assert flat == legacy
        assert len(gathers) > 2 * len(flat[0])

    def test_empty_pool(self):
        assert greedy_max_cover(FlatRRPool(5), 3) == ([], 0.0)


class TestPadPath:
    """Regression: the pad must follow descending degree, not node order."""

    def test_pads_by_descending_priority(self):
        pool = FlatRRPool(5)
        pool.add(np.array([4]))
        priority = np.array([0, 3, 9, 1, 5])  # "out-degrees"
        seeds, coverage = greedy_max_cover(pool, 3, pad_priority=priority)
        # 4 covers the only set; pads follow priority order 2 (9), then 1 (3).
        assert seeds == [4, 2, 1]
        assert coverage == 1.0

    def test_pad_ties_break_toward_lower_id(self):
        pool = FlatRRPool(4)
        pool.add(np.array([3]))
        seeds, __ = greedy_max_cover(pool, 3, pad_priority=np.array([1, 1, 1, 0]))
        assert seeds == [3, 0, 1]

    def test_default_pad_uses_membership_counts(self):
        pool = FlatRRPool(4)
        pool.add(np.array([0, 2]))
        pool.add(np.array([0, 2]))
        pool.add(np.array([0]))
        # 0 covers everything; 2 sits in more sets than 1 or 3, so it pads
        # first even though 1 has the lower id.
        seeds, __ = greedy_max_cover(pool, 2)
        assert seeds == [0, 2]

    def test_legacy_pad_matches_flat(self):
        rng = np.random.default_rng(9)
        pool = random_pool(12, 4, rng)
        priority = rng.integers(0, 50, size=12)
        k = 10  # far beyond what the pool can cover — forces the pad path
        assert greedy_max_cover(pool, k, pad_priority=priority) == (
            greedy_max_cover_legacy(pool, k, pad_priority=priority)
        )

    def test_pad_seeds_helper(self):
        assert pad_seeds([2], 3, 4, np.array([5, 1, 0, 9])) == [2, 3, 0]


class TestRRCollectionShim:
    def test_is_a_flat_pool(self):
        assert issubclass(RRCollection, FlatRRPool)

    def test_constructor_with_sets(self):
        pool = RRCollection(4, sets=[np.array([0, 1]), np.array([2])])
        assert len(pool) == 2
        assert pool.member_of[0] == [0]
        assert [s.tolist() for s in pool.sets] == [[0, 1], [2]]

    def test_caches_invalidate_on_add(self):
        pool = RRCollection(4)
        pool.add(np.array([0]))
        assert pool.member_of[0] == [0]
        pool.add(np.array([0, 1]))
        assert pool.member_of[0] == [0, 1]
        assert len(pool.sets) == 2


class TestBatchingGuards:
    """Batched sampling keeps the per-set loop's memory and budget bounds.

    On the dense ``orkut`` analogue an IC RR set holds most of the graph,
    so one unsliced BFS level over a batch would examine millions of
    in-edges at once: tens of MB of transient arrays and seconds between
    budget checks.  Level slicing caps both.
    """

    @pytest.fixture(scope="class")
    def orkut_ic(self):
        return IC.weighted(load("orkut"), np.random.default_rng(0))

    def test_transient_memory_stays_near_the_pool(self, orkut_ic):
        pool = FlatRRPool(orkut_ic.n)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base, __ = tracemalloc.get_traced_memory()
            pool.extend(orkut_ic, Dynamics.IC, 50, np.random.default_rng(0))
            __, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak - base <= pool.nbytes + 16e6

    def test_index_build_holds_no_pool_sized_transient(self, orkut_ic):
        pool = FlatRRPool(orkut_ic.n)
        pool.extend(orkut_ic, Dynamics.IC, 600, np.random.default_rng(0))
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base, __ = tracemalloc.get_traced_memory()
            node_ptr, node_sets = pool.node_index
            __, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak - base <= node_ptr.nbytes + node_sets.nbytes + 16 * 2**20

    def test_index_build_and_max_cover_check_the_budget(self, monkeypatch):
        # Ten disjoint 4-node sets in chunks of 8 entries: 5 index chunks,
        # then one check per max-cover round.
        monkeypatch.setattr(rrpool, "INDEX_CHUNK_ENTRIES", 8)
        pool = FlatRRPool(40)
        pool.append_chunk(
            np.full(10, 4), np.arange(40), np.zeros(10, dtype=np.int64)
        )

        class Counter:
            checks = 0

            def check(self):
                self.checks += 1

        budget = Counter()
        seeds, __ = greedy_max_cover(pool, 3, budget=budget)
        assert len(seeds) == 3
        assert budget.checks == 5 + 3

    def test_time_limit_interrupts_sampling(self, orkut_ic):
        record, __ = execute_cell(
            IMM(rr_scale=1.0), orkut_ic, 10, IC,
            rng=np.random.default_rng(0),
            config=IsolationConfig(enabled=False, time_limit_seconds=0.5),
        )
        assert record.status == "DNF"
        assert record.elapsed_seconds < 1.5
