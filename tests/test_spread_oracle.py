"""Unit tests for the batched cascade kernel and the spread-oracle layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import registry
from repro.diffusion import oracle as oracle_mod
from repro.diffusion import simulation
from repro.diffusion._frontier import expand_slices, gather_csr
from repro.diffusion.models import Dynamics, WC
from repro.diffusion.oracle import (
    BatchedMCOracle,
    GainCache,
    SequentialMCOracle,
    SketchOracle,
    SnapshotOracle,
    make_oracle,
)
from repro.diffusion.simulation import monte_carlo_spread
from repro.graph.digraph import DiGraph
from repro.graph.generators import build, powerlaw_configuration


@pytest.fixture
def sure_line():
    """0 -> 1 -> 2 -> 3 with weight 1.0: every cascade activates everything."""
    return DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], weights=[1.0, 1.0, 1.0])


@pytest.fixture
def dead_line():
    """0 -> 1 -> 2 with weight 0.0: no cascade ever leaves the seeds."""
    return DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[0.0, 0.0])


@pytest.fixture(scope="module")
def small_powerlaw():
    rng = np.random.default_rng(404)
    return WC.weighted(build(powerlaw_configuration(80, 2.3, 4.0, rng)), rng)


class TestFrontierHelpers:
    def test_empty_frontier_fast_path(self, sure_line):
        assert expand_slices(sure_line.out_ptr, np.empty(0, dtype=np.int64)).size == 0
        assert expand_slices(sure_line.out_ptr, []).size == 0

    def test_expand_slices_matches_manual(self, small_powerlaw):
        graph = small_powerlaw
        nodes = np.array([0, 3, 17, 40], dtype=np.int64)
        manual = np.concatenate(
            [
                np.arange(graph.out_ptr[v], graph.out_ptr[v + 1], dtype=np.int64)
                for v in nodes
            ]
        )
        np.testing.assert_array_equal(expand_slices(graph.out_ptr, nodes), manual)

    def test_gather_csr_matches_fancy_index(self, small_powerlaw):
        graph = small_powerlaw
        nodes = np.array([1, 2, 5], dtype=np.int64)
        idx = expand_slices(graph.out_ptr, nodes)
        np.testing.assert_array_equal(
            gather_csr(graph.out_ptr, graph.out_dst, nodes), graph.out_dst[idx]
        )


def _samples(graph, seeds, dynamics, r, rng):
    return monte_carlo_spread(
        graph, seeds, dynamics, r=r, rng=rng, return_samples=True
    )[1]


class TestBatchedKernels:
    def test_ic_sure_edges_activate_everything(self, sure_line, rng):
        samples = _samples(sure_line, [0], Dynamics.IC, 5, rng)
        np.testing.assert_array_equal(samples, np.full(5, 4.0))

    def test_ic_dead_edges_stay_at_seeds(self, dead_line, rng):
        samples = _samples(dead_line, [0], Dynamics.IC, 4, rng)
        np.testing.assert_array_equal(samples, np.ones(4))

    def test_lt_sure_edges_activate_everything(self, sure_line, rng):
        # Each node's one in-edge has weight 1.0, so it is always kept.
        samples = _samples(sure_line, [0], Dynamics.LT, 5, rng)
        np.testing.assert_array_equal(samples, np.full(5, 4.0))

    def test_empty_seed_set(self, sure_line, rng):
        for dynamics in (Dynamics.IC, Dynamics.LT):
            samples = _samples(sure_line, [], dynamics, 3, rng)
            np.testing.assert_array_equal(samples, np.zeros(3))

    def test_mc_batch_composes_with_ragged_r(self, small_powerlaw, monkeypatch):
        # r not a multiple of the batch still yields exactly r samples.
        monkeypatch.setattr(
            simulation, "MC_BATCH_CELLS", 10 * small_powerlaw.n
        )
        est, samples = monte_carlo_spread(
            small_powerlaw, [0, 3], Dynamics.IC, r=23,
            rng=np.random.default_rng(8), return_samples=True,
        )
        assert samples.shape == (23,)
        assert est.simulations == 23
        assert samples.min() >= 2

    def test_single_sample_std_is_finite(self, small_powerlaw):
        est = monte_carlo_spread(
            small_powerlaw, [0], Dynamics.IC, r=1, rng=np.random.default_rng(2)
        )
        assert est.std == 0.0
        assert np.isfinite(est.stderr)


class TestOracleBackends:
    def test_serial_oracle_preserves_rng_stream(self, small_powerlaw):
        oracle = SequentialMCOracle(
            small_powerlaw, Dynamics.IC, 40, np.random.default_rng(3)
        )
        value = oracle.gain(2)
        expected = monte_carlo_spread(
            small_powerlaw, [2], Dynamics.IC, r=40, rng=np.random.default_rng(3)
        ).mean
        assert value == expected
        assert oracle.evaluations == 1

    def test_batched_oracle_is_repeatable(self, small_powerlaw):
        oracle = BatchedMCOracle(
            small_powerlaw, Dynamics.IC, 40, np.random.default_rng(3)
        )
        first = oracle.evaluate([1, 4])
        second = oracle.evaluate([4, 1])  # order-insensitive key
        assert first == second
        assert oracle.evaluations == 1  # the repeat was served from cache

    def test_snapshot_commit_matches_evaluate(self, small_powerlaw):
        oracle = SnapshotOracle(
            small_powerlaw, Dynamics.IC, 60, np.random.default_rng(5)
        )
        for v in (0, 7, 13):
            oracle.commit(v)
        # Sum of per-world marginals must equal the world-average sigma of
        # the committed set — the covered-mask blocking is exact.
        assert oracle.committed_sigma == pytest.approx(
            oracle.evaluate([0, 7, 13]), abs=1e-12
        )

    def test_snapshot_exact_on_deterministic_graph(self, sure_line):
        oracle = SnapshotOracle(sure_line, Dynamics.IC, 8, np.random.default_rng(1))
        assert oracle.evaluate([0]) == 4.0
        assert oracle.gain(1) == 3.0
        oracle.commit(0)
        assert oracle.gain(1) == 0.0  # everything already covered

    @pytest.mark.parametrize("node", [-1, 4])
    def test_snapshot_rejects_nodes_outside_the_graph(self, sure_line, node):
        # A node id past either end would key another world's node.
        oracle = SnapshotOracle(sure_line, Dynamics.IC, 8, np.random.default_rng(1))
        for query in (
            lambda: oracle.evaluate([0, node]),
            lambda: oracle.gain(node),
            lambda: oracle.gain(0, extra=[node]),
            lambda: oracle.commit(node),
        ):
            with pytest.raises(ValueError, match="node ids"):
                query()
        assert oracle.committed == [] and not oracle.covered.any()

    def test_sketch_bound_dominates_gain_when_exact(self, sure_line):
        # SKETCH_K > n: every sketch holds all ranks, so the estimate is
        # the exact reach count and the bound dominates any marginal gain.
        assert oracle_mod.SKETCH_K > sure_line.n
        oracle = SketchOracle(sure_line, Dynamics.IC, 8, np.random.default_rng(1))
        for v in range(sure_line.n):
            assert oracle.gain_bound(v) >= oracle.gain(v)

    def test_make_oracle_resolution(self, small_powerlaw):
        rng = np.random.default_rng(0)
        assert isinstance(
            make_oracle(None, small_powerlaw, Dynamics.IC, rng, mc_simulations=10),
            SequentialMCOracle,
        )
        assert isinstance(
            make_oracle(
                None, small_powerlaw, Dynamics.IC, rng,
                mc_simulations=10, mc_workers=2,
            ),
            BatchedMCOracle,
        )
        with pytest.raises(ValueError, match="unknown spread oracle"):
            make_oracle("bogus", small_powerlaw, Dynamics.IC, rng, mc_simulations=10)


class TestGainCache:
    def test_deterministic_backend_hits(self, small_powerlaw):
        oracle = BatchedMCOracle(
            small_powerlaw, Dynamics.IC, 20, np.random.default_rng(3)
        )
        cache = GainCache()
        first = cache.gain(oracle, 5)
        second = cache.gain(oracle, 5)
        assert first == second
        assert (cache.hits, cache.misses) == (1, 1)

    def test_commit_invalidates_by_key(self, small_powerlaw):
        oracle = BatchedMCOracle(
            small_powerlaw, Dynamics.IC, 20, np.random.default_rng(3)
        )
        cache = GainCache()
        cache.gain(oracle, 5)
        oracle.commit(9, 0.0)
        cache.gain(oracle, 5)  # new committed set -> new key -> miss
        assert (cache.hits, cache.misses) == (0, 2)

    def test_stochastic_backend_bypasses(self, small_powerlaw):
        oracle = SequentialMCOracle(
            small_powerlaw, Dynamics.IC, 20, np.random.default_rng(3)
        )
        cache = GainCache()
        cache.gain(oracle, 5)
        cache.gain(oracle, 5)
        assert (cache.hits, cache.misses) == (0, 2)
        assert oracle.evaluations == 2  # every query re-simulates


class TestAlgorithmsWithOracles:
    @pytest.mark.parametrize("name", ["GREEDY", "CELF", "CELF++"])
    @pytest.mark.parametrize("backend", ["batched", "snapshot", "sketch"])
    def test_backends_produce_valid_selections(self, small_powerlaw, name, backend):
        algo = registry.make(name, mc_simulations=20, spread_oracle=backend)
        result = algo.select(small_powerlaw, 4, WC, rng=np.random.default_rng(9))
        assert len(result.seeds) == 4
        assert result.extras["spread_oracle"] == backend
        assert result.extras["sigma_evaluations"] > 0
        assert result.extras["estimated_spread"] > 0

    def test_default_path_reports_serial_backend(self, small_powerlaw):
        result = registry.make("CELF", mc_simulations=5).select(
            small_powerlaw, 2, WC, rng=np.random.default_rng(9)
        )
        assert result.extras["spread_oracle"] == "serial"
        assert result.extras["gain_cache_hits"] == 0

    def test_celfpp_lookahead_becomes_cache_hits(self, small_powerlaw):
        # mg2 is stored under (S u {cur_best}, v); once cur_best is picked,
        # v's next re-lookup is served from the memo.
        result = registry.make(
            "CELF++", mc_simulations=20, spread_oracle="batched"
        ).select(small_powerlaw, 5, WC, rng=np.random.default_rng(9))
        assert result.extras["gain_cache_hits"] > 0

    def test_sketch_backend_skips_initial_scan(self, small_powerlaw):
        full = registry.make(
            "CELF", mc_simulations=20, spread_oracle="snapshot"
        ).select(small_powerlaw, 3, WC, rng=np.random.default_rng(9))
        lazy = registry.make(
            "CELF", mc_simulations=20, spread_oracle="sketch"
        ).select(small_powerlaw, 3, WC, rng=np.random.default_rng(9))
        assert (
            lazy.extras["sigma_evaluations"] < full.extras["sigma_evaluations"]
        )

    def test_invalid_oracle_knobs_rejected(self):
        for kwargs in (
            {"mc_workers": 0},
            {"mc_simulations": 0},
        ):
            with pytest.raises(ValueError):
                registry.make("CELF", **kwargs)
