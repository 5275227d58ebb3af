"""Tests for the RR-set family: RIS, TIM+ and IMM."""

import numpy as np
import pytest

from repro.algorithms import ris as ris_module
from repro.algorithms.imm import IMM
from repro.algorithms.ris import RIS, log_comb
from repro.algorithms.tim import TIMPlus
from repro.diffusion import rrpool
from repro.diffusion.models import IC, LT, WC
from repro.diffusion.rrpool import greedy_max_cover
from repro.diffusion.simulation import monte_carlo_spread
from repro.graph.digraph import DiGraph


@pytest.fixture
def hub_graph():
    """A dominant hub: 0 reaches 1..9 with high probability."""
    edges = [(0, i) for i in range(1, 10)] + [(10, 11), (12, 13)]
    weights = [0.9] * 9 + [0.9, 0.9]
    return DiGraph.from_edges(14, edges, weights=weights)


class TestLogComb:
    def test_known_values(self):
        assert log_comb(5, 2) == pytest.approx(np.log(10))
        assert log_comb(10, 0) == pytest.approx(0.0)
        assert log_comb(10, 10) == pytest.approx(0.0)

    def test_out_of_range(self):
        assert log_comb(5, 7) == float("-inf")


class TestRIS:
    def test_finds_hub(self, hub_graph, rng):
        res = RIS(num_rr_sets=2000).select(hub_graph, 1, IC, rng=rng)
        assert res.seeds == [0]

    def test_extras_reported(self, hub_graph, rng):
        res = RIS(num_rr_sets=500).select(hub_graph, 2, IC, rng=rng)
        assert res.extras["num_rr_sets"] == 500
        assert res.extras["total_width"] > 0
        assert 0.0 <= res.extras["coverage_fraction"] <= 1.0

    def test_width_budget_stops_early(self, hub_graph, rng):
        res = RIS(num_rr_sets=100000, width_budget=50).select(
            hub_graph, 1, IC, rng=rng
        )
        assert res.extras["num_rr_sets"] < 100000

    @pytest.mark.parametrize("batch_cells", [rrpool.RR_BATCH_CELLS, 14 * 3])
    def test_width_budget_keeps_sets_up_to_the_first_reaching_it(
        self, hub_graph, rng, monkeypatch, batch_cells
    ):
        # 14 * 3 cells make three-set batches on this 14-node graph, so
        # the stop falls inside a later batch, not the first.
        monkeypatch.setattr(rrpool, "RR_BATCH_CELLS", batch_cells)
        pools = []

        def cover(pool, k, pad_priority=None, budget=None):
            pools.append(pool)
            return greedy_max_cover(pool, k, pad_priority, budget)

        monkeypatch.setattr(ris_module, "greedy_max_cover", cover)
        budget = 50
        res = RIS(num_rr_sets=100000, width_budget=budget).select(
            hub_graph, 1, IC, rng=rng
        )
        (pool,) = pools
        assert res.extras["total_width"] == pool.total_width
        assert pool.total_width >= budget
        assert pool.total_width - pool.widths[-1] < budget

    def test_width_budget_capped_at_num_rr_sets(self, hub_graph, rng):
        res = RIS(num_rr_sets=7, width_budget=10**9).select(
            hub_graph, 1, IC, rng=rng
        )
        assert res.extras["num_rr_sets"] == 7

    def test_supports_lt(self, two_cliques, rng):
        res = RIS(num_rr_sets=500).select(two_cliques, 1, LT, rng=rng)
        assert len(res.seeds) == 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RIS(num_rr_sets=0)


class TestTIMPlus:
    def test_finds_hub(self, hub_graph, rng):
        res = TIMPlus(epsilon=0.3, rr_scale=0.05).select(hub_graph, 1, IC, rng=rng)
        assert res.seeds == [0]

    def test_kpt_positive(self, hub_graph, rng):
        res = TIMPlus(epsilon=0.5, rr_scale=0.05).select(hub_graph, 2, IC, rng=rng)
        assert res.extras["kpt"] >= 1.0
        assert res.extras["kpt_plus"] >= res.extras["kpt"]

    def test_smaller_epsilon_more_rr_sets(self, hub_graph):
        tight = TIMPlus(epsilon=0.2, rr_scale=0.02, max_rr_sets=None).select(
            hub_graph, 2, IC, rng=np.random.default_rng(3)
        )
        loose = TIMPlus(epsilon=0.8, rr_scale=0.02, max_rr_sets=None).select(
            hub_graph, 2, IC, rng=np.random.default_rng(3)
        )
        assert tight.extras["theta"] > loose.extras["theta"]

    def test_extrapolated_spread_reported(self, hub_graph, rng):
        res = TIMPlus(epsilon=0.5, rr_scale=0.05).select(hub_graph, 1, IC, rng=rng)
        assert res.extras["extrapolated_spread"] > 0

    def test_k_zero(self, hub_graph, rng):
        res = TIMPlus(epsilon=0.5, rr_scale=0.05).select(hub_graph, 0, IC, rng=rng)
        assert res.seeds == []

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            TIMPlus(epsilon=0.0)

    def test_max_rr_sets_caps(self, hub_graph, rng):
        res = TIMPlus(epsilon=0.1, max_rr_sets=50).select(hub_graph, 2, IC, rng=rng)
        assert res.extras["num_rr_sets"] <= 50


class TestIMM:
    def test_finds_hub(self, hub_graph, rng):
        res = IMM(epsilon=0.3, rr_scale=0.05).select(hub_graph, 1, IC, rng=rng)
        assert res.seeds == [0]

    def test_lower_bound_at_least_one(self, hub_graph, rng):
        res = IMM(epsilon=0.5, rr_scale=0.05).select(hub_graph, 2, IC, rng=rng)
        assert res.extras["lower_bound"] >= 1.0
        assert res.extras["sampling_phases"] >= 1

    def test_smaller_epsilon_more_rr_sets(self, hub_graph):
        tight = IMM(epsilon=0.2, rr_scale=0.02, max_rr_sets=None).select(
            hub_graph, 2, IC, rng=np.random.default_rng(3)
        )
        loose = IMM(epsilon=0.9, rr_scale=0.02, max_rr_sets=None).select(
            hub_graph, 2, IC, rng=np.random.default_rng(3)
        )
        assert tight.extras["num_rr_sets"] > loose.extras["num_rr_sets"]

    def test_supports_both_dynamics(self, two_cliques, rng):
        for model in (IC, LT):
            res = IMM(epsilon=0.5, rr_scale=0.05).select(two_cliques, 1, model, rng=rng)
            assert len(res.seeds) == 1

    def test_quality_close_to_mc_truth(self, hub_graph, rng):
        """IMM's seeds achieve near-best spread at moderate epsilon."""
        res = IMM(epsilon=0.3, rr_scale=0.2).select(hub_graph, 2, IC, rng=rng)
        got = monte_carlo_spread(hub_graph, res.seeds, IC, r=2000, rng=rng).mean
        best = monte_carlo_spread(hub_graph, [0, 10], IC, r=2000, rng=rng).mean
        assert got >= 0.9 * best

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            IMM(epsilon=-0.1)


class TestExtrapolationMyth:
    def test_extrapolated_spread_inflated_vs_mc(self, rng):
        """M4: the self-reported coverage extrapolation over-estimates σ."""
        g = WC.weighted(
            DiGraph.from_arrays(
                60,
                np.random.default_rng(0).integers(0, 60, 300),
                np.random.default_rng(1).integers(0, 60, 300),
            )
        )
        inflations = []
        for seed in range(5):
            res = IMM(epsilon=0.9, rr_scale=0.05).select(
                g, 5, WC, rng=np.random.default_rng(seed)
            )
            mc = monte_carlo_spread(
                g, res.seeds, WC, r=2000, rng=np.random.default_rng(seed + 100)
            )
            inflations.append(res.extras["extrapolated_spread"] - mc.mean)
        assert np.mean(inflations) > 0
