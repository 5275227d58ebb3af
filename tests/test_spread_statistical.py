"""Statistical-equivalence tests for the batched spread engine.

The batched cascade kernel behind ``monte_carlo_spread`` consumes RNG
draws in another order than the per-cascade reference loop
(``tests/reference/mc.py``), and runs LT in its live-edge form instead of
drawing thresholds, so the two can never be compared sample-for-sample —
but they must agree *distributionally*, under both IC and LT, and the
kernel's mean must match the exhaustive-enumeration oracle.  The snapshot
oracle must converge to the same oracle, and the marginal-gain memo must
be invisible in CELF's output.

Everything runs on fixed seeds, so the p-value assertions are
deterministic; the suite rides the ``pytest -m statistical`` CI job.
"""

import numpy as np
import pytest

from repro.algorithms import registry
from repro.diffusion import oracle as oracle_mod
from repro.diffusion.models import Dynamics, WC
from repro.diffusion.oracle import SnapshotOracle
from repro.diffusion.simulation import monte_carlo_spread
from repro.graph.digraph import DiGraph
from repro.graph.generators import build, powerlaw_configuration
from tests.oracles import exact_spread
from tests.reference.mc import spread_samples

stats = pytest.importorskip("scipy.stats")

pytestmark = pytest.mark.statistical

SAMPLES = 400
P_FLOOR = 0.01  # deterministic under fixed seeds; guards distribution drift
ORACLE_WORLDS = 20_000
EXACT_SAMPLES = 20_000


@pytest.fixture(scope="module")
def powerlaw_graph():
    rng = np.random.default_rng(2024)
    return WC.weighted(build(powerlaw_configuration(250, 2.3, 4.0, rng)), rng)


@pytest.fixture(scope="module")
def tiny_graph():
    """10 nodes / 10 edges: small enough for exhaustive world enumeration."""
    edges = [
        (0, 1), (0, 2), (1, 3), (2, 3), (3, 4),
        (4, 5), (5, 6), (2, 7), (7, 8), (8, 9),
    ]
    return DiGraph.from_edges(10, edges, weights=[0.4] * len(edges))


class TestBatchedVsSerialDistribution:
    @pytest.mark.parametrize("dynamics", [Dynamics.IC, Dynamics.LT])
    def test_spread_samples_ks(self, powerlaw_graph, dynamics):
        seeds = [0, 7, 21]
        serial = spread_samples(
            powerlaw_graph, seeds, dynamics, SAMPLES, np.random.default_rng(31)
        )
        __, batched = monte_carlo_spread(
            powerlaw_graph, seeds, dynamics, r=SAMPLES,
            rng=np.random.default_rng(77), return_samples=True,
        )
        result = stats.ks_2samp(serial, batched)
        assert result.pvalue > P_FLOOR

    @pytest.mark.parametrize("dynamics", [Dynamics.IC, Dynamics.LT])
    def test_batched_mean_within_joint_se(self, powerlaw_graph, dynamics):
        seeds = [0, 7, 21]
        serial = spread_samples(
            powerlaw_graph, seeds, dynamics, SAMPLES, np.random.default_rng(31)
        )
        est_b = monte_carlo_spread(
            powerlaw_graph, seeds, dynamics, r=SAMPLES,
            rng=np.random.default_rng(77),
        )
        se_s = float(serial.std(ddof=1)) / np.sqrt(SAMPLES)
        joint_se = float(np.hypot(se_s, est_b.stderr))
        assert abs(float(serial.mean()) - est_b.mean) <= 3.0 * joint_se

    @pytest.mark.parametrize("dynamics", [Dynamics.IC, Dynamics.LT])
    def test_kernel_mean_within_three_se_of_exact(self, tiny_graph, dynamics):
        seeds = [0, 2]
        est = monte_carlo_spread(
            tiny_graph, seeds, dynamics, r=EXACT_SAMPLES,
            rng=np.random.default_rng(909),
        )
        truth = exact_spread(tiny_graph, seeds, dynamics)
        assert abs(est.mean - truth) <= 3.0 * est.stderr


class TestSnapshotOracleConvergence:
    @pytest.mark.parametrize("dynamics", [Dynamics.IC, Dynamics.LT])
    def test_sigma_within_three_se_of_exact(self, tiny_graph, dynamics):
        seeds = (0, 2)
        oracle = SnapshotOracle(
            tiny_graph, dynamics, ORACLE_WORLDS, np.random.default_rng(555)
        )
        # Per-world reach counts expose the sampling error of the estimate.
        keys = oracle._reach(seeds, np.zeros(oracle.covered.size, dtype=bool))
        counts = np.bincount(keys // tiny_graph.n, minlength=ORACLE_WORLDS)
        mean = float(counts.mean())
        se = float(counts.std(ddof=1)) / np.sqrt(ORACLE_WORLDS)
        truth = exact_spread(tiny_graph, list(seeds), dynamics)
        assert abs(mean - truth) <= 3.0 * se
        assert oracle.evaluate(seeds) == pytest.approx(mean, abs=1e-9)


class TestGainCacheRegression:
    def test_celf_seed_sets_identical_with_and_without_memo(
        self, powerlaw_graph, monkeypatch
    ):
        """Enabling the memo cache must not change CELF's output at all.

        The batched backend derives each query's RNG from the query
        content, so a memoized answer equals a recomputed one exactly;
        this pins that contract byte-for-byte.
        """

        def run():
            algo = registry.make("CELF", mc_simulations=30, spread_oracle="batched")
            return algo.select(powerlaw_graph, 8, WC, rng=np.random.default_rng(42))

        with_cache = run()

        class _Bypass(oracle_mod.GainCache):
            def gain(self, oracle, v, extra=(), extra_gain=0.0):
                self.misses += 1
                return oracle.gain(v, extra, extra_gain)

        monkeypatch.setattr(oracle_mod, "GainCache", _Bypass)
        without_cache = run()

        assert with_cache.seeds == without_cache.seeds
        assert with_cache.extras["estimated_spread"] == (
            without_cache.extras["estimated_spread"]
        )
        # The bypass really did disable memoization.
        assert without_cache.extras["gain_cache_hits"] == 0
