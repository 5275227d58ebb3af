"""Property tests: lost chunks replay byte-identically from spawn keys.

The resilient pool's recovery story rests on one invariant — a chunk is a
pure function of ``(fn, args, SeedSequence spawn-key state)``, so
re-executing a lost chunk reproduces its bytes exactly, and a faulted run
equals a fault-free run no matter which chunks were lost or in what order
they were recovered.  Hypothesis drives that invariant across random
entropies, spawn keys, chunk sizes, and fault seeds; part of the
``-m statistical`` equivalence layer.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion.models import Dynamics, WC
from repro.diffusion.rrpool import FlatRRPool, _sample_rr_chunk
from repro.diffusion.simulation import _simulate_chunk, monte_carlo_spread
from repro.framework.pool import Fault
from repro.graph.digraph import DiGraph
from repro.graph.generators import build, powerlaw_configuration

pytestmark = pytest.mark.statistical


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(31)
    return WC.weighted(build(powerlaw_configuration(60, 2.3, 4.0, rng)), rng)


class TestChunkReplay:
    """Re-executing any chunk from its spawn-key state is byte-identical."""

    @given(
        entropy=st.integers(min_value=0, max_value=2**63 - 1),
        spawn=st.integers(min_value=0, max_value=63),
        count=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=25, deadline=None)
    def test_rr_chunk_replays_identically(self, graph, entropy, spawn, count):
        state = {"entropy": entropy, "spawn_key": (spawn,)}
        first = _sample_rr_chunk(graph, Dynamics.IC, count, state)
        second = _sample_rr_chunk(graph, Dynamics.IC, count, dict(state))
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    @given(
        entropy=st.integers(min_value=0, max_value=2**63 - 1),
        spawn=st.integers(min_value=0, max_value=63),
        count=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=25, deadline=None)
    def test_mc_chunk_replays_identically(self, graph, entropy, spawn, count):
        state = {"entropy": entropy, "spawn_key": (spawn,)}
        first = _simulate_chunk(graph, [0, 1], Dynamics.IC, count, state)
        second = _simulate_chunk(graph, [0, 1], Dynamics.IC, count, dict(state))
        np.testing.assert_array_equal(first, second)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs process pools")
class TestFaultedRunsEqualFaultFree:
    """Any kill schedule leaves pool contents / spread sums byte-identical."""

    @given(fault_seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=5, deadline=None)
    def test_rr_pool_contents(self, graph, fault_seed):
        def sample():
            pool = FlatRRPool(graph.n)
            pool.extend(
                graph, Dynamics.IC, 120, np.random.default_rng(17), workers=3
            )
            return pool

        baseline = sample()
        with Fault(mode="kill", rate=0.3, seed=fault_seed):
            faulted = sample()
        np.testing.assert_array_equal(faulted.set_ptr, baseline.set_ptr)
        np.testing.assert_array_equal(faulted.set_nodes, baseline.set_nodes)
        np.testing.assert_array_equal(faulted.widths, baseline.widths)

    @given(fault_seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=5, deadline=None)
    def test_mc_spread_samples(self, graph, fault_seed):
        def run():
            return monte_carlo_spread(
                graph, [0, 2], WC, r=60,
                rng=np.random.default_rng(23), workers=3, return_samples=True,
            )[1]

        baseline = run()
        with Fault(mode="kill", rate=0.3, seed=fault_seed):
            faulted = run()
        np.testing.assert_array_equal(faulted, baseline)
        assert float(faulted.sum()) == float(baseline.sum())
