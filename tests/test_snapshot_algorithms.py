"""Tests for the snapshot family: StaticGreedy and PMC."""

import numpy as np
import pytest

from repro.algorithms.pmc import PMC, contract_snapshot
from repro.algorithms.static_greedy import StaticGreedy
from repro.datasets import load
from repro.diffusion.models import IC, LT
from repro.framework import IsolationConfig, execute_cell
from repro.graph.digraph import DiGraph


@pytest.fixture
def hub_graph():
    edges = [(0, i) for i in range(1, 8)] + [(8, 9)]
    return DiGraph.from_edges(10, edges, weights=[0.9] * 7 + [0.9])


class TestStaticGreedy:
    def test_finds_hub(self, hub_graph, rng):
        res = StaticGreedy(num_snapshots=60).select(hub_graph, 1, IC, rng=rng)
        assert res.seeds == [0]

    def test_second_seed_from_other_component(self, hub_graph, rng):
        res = StaticGreedy(num_snapshots=60).select(hub_graph, 2, IC, rng=rng)
        assert res.seeds[0] == 0
        assert res.seeds[1] == 8

    def test_rejects_lt(self, hub_graph, rng):
        with pytest.raises(ValueError):
            StaticGreedy(num_snapshots=10).select(hub_graph, 1, LT, rng=rng)

    def test_estimated_spread_close_to_truth(self, hub_graph, rng):
        res = StaticGreedy(num_snapshots=200).select(hub_graph, 1, IC, rng=rng)
        # sigma({0}) = 1 + 7 * 0.9 = 7.3
        assert res.extras["estimated_spread"] == pytest.approx(7.3, abs=0.5)

    def test_invalid_snapshots(self):
        with pytest.raises(ValueError):
            StaticGreedy(num_snapshots=0)


class TestContractSnapshot:
    def test_cycle_contracts(self):
        g = DiGraph.from_edges(4, [(0, 1), (1, 0), (1, 2), (2, 3)])
        comp, sizes, dag_adj = contract_snapshot(g, np.ones(4, dtype=bool))
        assert comp[0] == comp[1]
        assert sizes[comp[0]] == 2
        # DAG edge from {0,1} component to 2's component.
        assert comp[2] in dag_adj[comp[0]].tolist()

    def test_dead_edges_removed(self):
        g = DiGraph.from_edges(2, [(0, 1)])
        __, __s, dag_adj = contract_snapshot(g, np.zeros(1, dtype=bool))
        assert all(a.size == 0 for a in dag_adj)

    def test_sizes_sum_to_n(self, hub_graph):
        __, sizes, __a = contract_snapshot(
            hub_graph, np.ones(hub_graph.m, dtype=bool)
        )
        assert sizes.sum() == hub_graph.n


class TestPMC:
    def test_finds_hub(self, hub_graph, rng):
        res = PMC(num_snapshots=60).select(hub_graph, 1, IC, rng=rng)
        assert res.seeds == [0]

    def test_matches_static_greedy_seeds(self, hub_graph):
        sg = StaticGreedy(num_snapshots=100).select(
            hub_graph, 2, IC, rng=np.random.default_rng(4)
        )
        pmc = PMC(num_snapshots=100).select(
            hub_graph, 2, IC, rng=np.random.default_rng(4)
        )
        assert set(sg.seeds) == set(pmc.seeds)

    def test_giant_scc_handled(self, rng):
        # A dense cycle where every snapshot keeps most edges: the whole
        # graph contracts to nearly one component.
        edges = [(i, (i + 1) % 20) for i in range(20)]
        g = DiGraph.from_edges(20, edges, weights=[0.95] * 20)
        res = PMC(num_snapshots=30).select(g, 2, IC, rng=rng)
        assert len(res.seeds) == 2

    def test_rejects_lt(self, hub_graph, rng):
        with pytest.raises(ValueError):
            PMC(num_snapshots=10).select(hub_graph, 1, LT, rng=rng)

    def test_estimated_spread_close_to_truth(self, hub_graph, rng):
        res = PMC(num_snapshots=200).select(hub_graph, 1, IC, rng=rng)
        assert res.extras["estimated_spread"] == pytest.approx(7.3, abs=0.5)

    def test_invalid_snapshots(self):
        with pytest.raises(ValueError):
            PMC(num_snapshots=-1)


class TestCooperativeTimeLimit:
    """The snapshot family checks its budget per world and per gain, so a
    cell ends close to its time limit instead of seconds after it."""

    @pytest.mark.parametrize(
        "algorithm, dataset",
        [(StaticGreedy, "livejournal"), (PMC, "friendster")],
    )
    def test_dnf_soon_after_time_limit(self, algorithm, dataset):
        record, result = execute_cell(
            algorithm(num_snapshots=200), IC.weighted(load(dataset)), 10, IC,
            rng=np.random.default_rng(0),
            config=IsolationConfig(enabled=False, time_limit_seconds=0.5),
        )
        assert record.status == "DNF"
        assert result is None
        assert record.elapsed_seconds < 2.0
