"""Statistical-equivalence tests for the flat RR engine.

Serial and parallel RR pools draw from different ``SeedSequence``
streams, so they can never be compared sample-for-sample — but they must
agree *distributionally*: same RR-set size law, same coverage estimates.
The same holds between the batched sampler and the per-set reference
loop it replaced (``tests/reference/rr.py``), which consume coins in a
different order.  These tests pin that down with KS and chi-squared
statistics on a seeded power-law graph, plus exact-oracle convergence
checks on tiny graphs.

Everything runs on fixed seeds, so the p-value assertions are
deterministic; the suite doubles as a standalone CI job via
``pytest -m statistical``.
"""

import numpy as np
import pytest

from repro.diffusion.models import Dynamics, WC
from repro.diffusion.rrpool import FlatRRPool, greedy_max_cover
from repro.graph.digraph import DiGraph
from repro.graph.generators import build, powerlaw_configuration
from tests.oracles import exact_spread
from tests.reference import greedy_max_cover_legacy, random_rr_set

stats = pytest.importorskip("scipy.stats")

pytestmark = pytest.mark.statistical

POOL_SIZE = 4000
P_FLOOR = 0.01  # deterministic under fixed seeds; guards distribution drift


@pytest.fixture(scope="module")
def powerlaw_graph():
    rng = np.random.default_rng(2024)
    return WC.weighted(build(powerlaw_configuration(250, 2.3, 4.0, rng)), rng)


def sample_pool(graph, dynamics, workers, seed=101, count=POOL_SIZE):
    pool = FlatRRPool(graph.n)
    pool.extend(
        graph, dynamics, count, np.random.default_rng(seed), workers=workers
    )
    return pool


def set_sizes(pool):
    return np.diff(pool.set_ptr)


class TestSerialVsParallelDistribution:
    @pytest.mark.parametrize("dynamics", [Dynamics.IC, Dynamics.LT])
    def test_rr_sizes_ks(self, powerlaw_graph, dynamics):
        serial = sample_pool(powerlaw_graph, dynamics, workers=None)
        parallel = sample_pool(powerlaw_graph, dynamics, workers=2)
        result = stats.ks_2samp(set_sizes(serial), set_sizes(parallel))
        assert result.pvalue > P_FLOOR

    @pytest.mark.parametrize("dynamics", [Dynamics.IC, Dynamics.LT])
    def test_coverage_chi_squared(self, powerlaw_graph, dynamics):
        """Covered/uncovered counts for a fixed seed set must be homogeneous."""
        serial = sample_pool(powerlaw_graph, dynamics, workers=None)
        parallel = sample_pool(powerlaw_graph, dynamics, workers=2)
        top = np.argsort(-powerlaw_graph.out_degree())[:5].tolist()
        table = []
        for pool in (serial, parallel):
            covered = int(round(pool.coverage_fraction(top) * len(pool)))
            table.append([covered, len(pool) - covered])
        chi2 = stats.chi2_contingency(np.array(table))
        assert chi2.pvalue > P_FLOOR

    @pytest.mark.parametrize("dynamics", [Dynamics.IC, Dynamics.LT])
    def test_size_histogram_chi_squared(self, powerlaw_graph, dynamics):
        """Binned RR-set size histograms must be homogeneous.

        Sizes are i.i.d. across sets (one draw per set), so a 2xB
        contingency chi-squared is a valid homogeneity test — unlike
        per-node membership counts, which are correlated within a set.
        """
        serial = sample_pool(powerlaw_graph, dynamics, workers=None)
        parallel = sample_pool(powerlaw_graph, dynamics, workers=2)
        s_sizes, p_sizes = set_sizes(serial), set_sizes(parallel)
        edges = np.unique(
            np.quantile(np.concatenate([s_sizes, p_sizes]), np.linspace(0, 1, 9))
        )
        edges[-1] += 1  # make the top bin right-inclusive
        s_hist, __ = np.histogram(s_sizes, bins=edges)
        p_hist, __ = np.histogram(p_sizes, bins=edges)
        chi2 = stats.chi2_contingency(np.array([s_hist, p_hist]))
        assert chi2.pvalue > P_FLOOR

    @pytest.mark.parametrize("dynamics", [Dynamics.IC, Dynamics.LT])
    def test_same_seeds_selected(self, powerlaw_graph, dynamics):
        """On a big enough pool, serial and parallel pools pick the same top seed."""
        serial = sample_pool(powerlaw_graph, dynamics, workers=None)
        parallel = sample_pool(powerlaw_graph, dynamics, workers=2)
        degree = powerlaw_graph.out_degree()
        s_seeds, __ = greedy_max_cover(serial, 1, pad_priority=degree)
        p_seeds, __ = greedy_max_cover(parallel, 1, pad_priority=degree)
        assert s_seeds == p_seeds


def reference_draws(graph, dynamics, seed=202, count=POOL_SIZE):
    """``(sizes, widths, membership counts)`` of ``count`` per-set draws."""
    rng = np.random.default_rng(seed)
    draws = [random_rr_set(graph, dynamics, rng) for __ in range(count)]
    sizes = np.array([nodes.size for nodes, __ in draws])
    widths = np.array([width for __, width in draws])
    members = np.bincount(
        np.concatenate([nodes for nodes, __ in draws]), minlength=graph.n
    )
    return sizes, widths, members


def membership_table(a, b, min_total=10):
    """2xK table of per-node membership counts.

    Nodes with fewer than ``min_total`` memberships in both pools pooled
    into one column keep every expected cell count large enough for the
    chi-squared approximation.
    """
    common = a + b >= min_total
    table = np.array([a[common], b[common]])
    rest = np.array([[a[~common].sum()], [b[~common].sum()]])
    if rest.sum():
        table = np.hstack([table, rest])
    return table


class TestBatchedVsReference:
    """The batched sampler draws the per-set loop's RR-set law."""

    @pytest.mark.parametrize("dynamics", [Dynamics.IC, Dynamics.LT])
    def test_sizes_ks(self, powerlaw_graph, dynamics):
        batched = sample_pool(powerlaw_graph, dynamics, workers=None)
        sizes, __, __ = reference_draws(powerlaw_graph, dynamics)
        assert stats.ks_2samp(set_sizes(batched), sizes).pvalue > P_FLOOR

    @pytest.mark.parametrize("dynamics", [Dynamics.IC, Dynamics.LT])
    def test_widths_ks(self, powerlaw_graph, dynamics):
        batched = sample_pool(powerlaw_graph, dynamics, workers=None)
        __, widths, __ = reference_draws(powerlaw_graph, dynamics)
        assert stats.ks_2samp(batched.widths, widths).pvalue > P_FLOOR

    @pytest.mark.parametrize("dynamics", [Dynamics.IC, Dynamics.LT])
    def test_membership_chi_squared(self, powerlaw_graph, dynamics):
        batched = sample_pool(powerlaw_graph, dynamics, workers=None)
        __, __, members = reference_draws(powerlaw_graph, dynamics)
        table = membership_table(batched.membership_counts(), members)
        assert stats.chi2_contingency(table).pvalue > P_FLOOR


class TestFlatVsLegacyCover:
    """Flat-CSR max-cover must be byte-identical to the legacy list cover."""

    @pytest.mark.parametrize("seed", [11, 22, 33, 44, 55])
    def test_identical_seeds_on_randomized_pools(self, powerlaw_graph, seed):
        rng = np.random.default_rng(seed)
        dynamics = Dynamics.IC if seed % 2 else Dynamics.LT
        pool = FlatRRPool(powerlaw_graph.n)
        pool.extend(powerlaw_graph, dynamics, 1500, rng)
        k = int(rng.integers(1, 25))
        degree = powerlaw_graph.out_degree()
        flat_seeds, flat_cov = greedy_max_cover(pool, k, pad_priority=degree)
        legacy_seeds, legacy_cov = greedy_max_cover_legacy(
            pool, k, pad_priority=degree
        )
        assert flat_seeds == legacy_seeds
        assert flat_cov == legacy_cov


class TestOracleConvergence:
    """Borgs et al.'s identity against brute-force σ(S) on ≤10-node graphs."""

    ORACLE_POOL = 20_000

    @pytest.fixture
    def ten_node_graph(self):
        edges = [
            (0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5),
            (5, 6), (2, 7), (7, 8), (8, 9),
        ]
        return DiGraph.from_edges(10, edges, weights=[0.4] * len(edges))

    @pytest.mark.parametrize("dynamics", [Dynamics.IC, Dynamics.LT])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_coverage_converges_to_exact_spread(
        self, ten_node_graph, dynamics, workers
    ):
        graph = ten_node_graph
        seeds = [0, 7]
        pool = sample_pool(graph, dynamics, workers, seed=5, count=self.ORACLE_POOL)
        fraction = pool.coverage_fraction(seeds)
        estimate = fraction * graph.n
        exact = exact_spread(graph, seeds, dynamics)
        # Coverage is a binomial proportion: se(σ̂) = n·sqrt(p(1-p)/T).
        stderr = graph.n * np.sqrt(
            max(fraction * (1.0 - fraction), 1e-12) / self.ORACLE_POOL
        )
        assert abs(estimate - exact) <= 3.0 * stderr

    @pytest.mark.parametrize("dynamics", [Dynamics.IC, Dynamics.LT])
    def test_diamond_graph_single_seed(self, diamond_graph, dynamics):
        pool = sample_pool(
            diamond_graph, dynamics, workers=None, seed=3, count=self.ORACLE_POOL
        )
        fraction = pool.coverage_fraction([0])
        estimate = fraction * diamond_graph.n
        exact = exact_spread(diamond_graph, [0], dynamics)
        stderr = diamond_graph.n * np.sqrt(
            max(fraction * (1.0 - fraction), 1e-12) / self.ORACLE_POOL
        )
        assert abs(estimate - exact) <= 3.0 * stderr
