"""Chaos suite: engines under injected worker faults stay byte-identical.

The resilient pool's core claim is that process-level failures are
*invisible* in results: every chunk is replayable from its SeedSequence
spawn key, and results commit in chunk-index order, so a run where 10-30%
of chunks are killed / hung / corrupted selects exactly the same seeds as
a fault-free run — the faults only show up in the ``pool.*`` telemetry
counters.  These tests pin that end-to-end through the RR-sketch engine
(RIS, IMM), the MC greedy family (CELF), and the raw spread estimator.

Fault schedules are deterministic (``sha256(seed:index:attempt)``), so
each test's injector seed is chosen to make specific chunks fault on
specific attempts — the assertions are exact, not probabilistic.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.algorithms.celf import CELF
from repro.algorithms.imm import IMM
from repro.algorithms.ris import RIS
from repro.diffusion.models import WC
from repro.diffusion.simulation import monte_carlo_spread
from repro.framework.isolation import IsolationConfig, execute_cell
from repro.framework.metrics import STATUS_DNF, STATUS_FAILED
from repro.framework.pool import Fault
from repro.framework.telemetry import Telemetry, activate
from repro.graph.digraph import DiGraph
from repro.graph.generators import build, powerlaw_configuration
from tests.conftest import own_shm_segments

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="process pools need fork/spawn support"
)


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(7)
    return WC.weighted(build(powerlaw_configuration(120, 2.3, 4.0, rng)), rng)


@pytest.fixture(scope="module")
def small_graph():
    gen = np.random.default_rng(5)
    g = DiGraph.from_arrays(20, gen.integers(0, 20, 70), gen.integers(0, 20, 70))
    return WC.weighted(g, np.random.default_rng(5))


def select_seeds(algo, graph, k, rng_seed=11):
    return algo.select(graph, k, WC, rng=np.random.default_rng(rng_seed)).seeds


class TestByteIdenticalUnderFaults:
    def test_ris_under_worker_kills(self, graph):
        baseline = select_seeds(RIS(num_rr_sets=900, rr_workers=3), graph, 5)
        tele = Telemetry()
        # seed 84 @ rate .15: chunk 2 of 3 is killed on attempt 0 only.
        with activate(tele), Fault(mode="kill", rate=0.15, seed=84):
            faulted = select_seeds(RIS(num_rr_sets=900, rr_workers=3), graph, 5)
        assert faulted == baseline
        # Whether sibling chunks deliver before the broken pool is detected
        # is a race, so only the restart (not the salvage count) is exact
        # here; deterministic salvage is pinned in test_resilient_pool.py.
        assert tele.counters["pool.worker_restarts"] >= 1

    def test_imm_under_corrupt_results(self, graph):
        algo = lambda: IMM(epsilon=0.5, rr_scale=0.02, rr_workers=3)  # noqa: E731
        baseline = select_seeds(algo(), graph, 5)
        tele = Telemetry()
        # seed 0 @ rate .3: chunks 1 and 2 return corrupted payloads on
        # attempt 0; the checksum mismatch forces a retry.
        with activate(tele), Fault(mode="corrupt", rate=0.3, seed=0):
            faulted = select_seeds(algo(), graph, 5)
        assert faulted == baseline
        assert tele.counters["pool.corrupt_results"] >= 2
        assert tele.counters["pool.chunk_retries"] >= 2

    def test_celf_under_worker_kills(self, small_graph):
        algo = lambda: CELF(mc_simulations=8, mc_workers=2)  # noqa: E731
        baseline = select_seeds(algo(), small_graph, 3)
        tele = Telemetry()
        # seed 28 @ rate .2: chunk 0 of every 2-chunk sigma evaluation is
        # killed on attempt 0 — each oracle call collapses once and replays.
        with activate(tele), Fault(mode="kill", rate=0.2, seed=28):
            faulted = select_seeds(algo(), small_graph, 3)
        assert faulted == baseline
        assert tele.counters["pool.worker_restarts"] >= 1

    def test_mc_spread_samples_identical_under_hangs(self, small_graph, monkeypatch):
        def run():
            return monte_carlo_spread(
                small_graph, [0, 3], WC, r=40,
                rng=np.random.default_rng(9), workers=2, return_samples=True,
            )[1]

        baseline = run()
        tele = Telemetry()
        # seed 53 @ rate .3: chunk 1 of 2 hangs on attempt 0; the stall
        # timeout reclaims the worker and the chunk replays.
        monkeypatch.setenv("REPRO_POOL_STALL_TIMEOUT", "0.75")
        with activate(tele), Fault(
            mode="hang", rate=0.3, seed=53, hang_seconds=30.0
        ):
            faulted = run()
        np.testing.assert_array_equal(faulted, baseline)
        assert tele.counters["pool.worker_restarts"] >= 1

    def test_full_ris_imm_celf_run_at_ten_percent_kills(self, graph, small_graph):
        """The acceptance scenario: a 10% kill rate across a whole sweep."""
        baseline = [
            select_seeds(RIS(num_rr_sets=900, rr_workers=3), graph, 5),
            select_seeds(IMM(epsilon=0.5, rr_scale=0.02, rr_workers=3), graph, 5),
            select_seeds(CELF(mc_simulations=8, mc_workers=2), small_graph, 3),
        ]
        tele = Telemetry()
        with activate(tele), Fault(mode="kill", rate=0.1, seed=84):
            faulted = [
                select_seeds(RIS(num_rr_sets=900, rr_workers=3), graph, 5),
                select_seeds(IMM(epsilon=0.5, rr_scale=0.02, rr_workers=3), graph, 5),
                select_seeds(CELF(mc_simulations=8, mc_workers=2), small_graph, 3),
            ]
        assert faulted == baseline
        assert tele.counters["pool.worker_restarts"] >= 2


class TestDegradationLadder:
    def test_engine_downgrades_to_serial_when_restarts_exhausted(
        self, graph, monkeypatch
    ):
        baseline = select_seeds(RIS(num_rr_sets=600, rr_workers=3), graph, 4)
        monkeypatch.setenv("REPRO_POOL_MAX_RESTARTS", "0")
        tele = Telemetry()
        with activate(tele), Fault(mode="kill", rate=1.0, seed=0):
            faulted = select_seeds(RIS(num_rr_sets=600, rr_workers=3), graph, 4)
        assert faulted == baseline
        assert tele.counters["pool.serial_downgrades"] >= 1

    def test_nested_fanout_inside_isolation_runs_serial(self, graph):
        """A daemonic isolated worker cannot spawn children: the pool must
        degrade to serial chunk execution, byte-identical to parallel."""
        def cell(isolate):
            return execute_cell(
                RIS(num_rr_sets=600, rr_workers=3),
                graph,
                4,
                WC,
                rng=np.random.default_rng(11),
                config=IsolationConfig(enabled=isolate, telemetry=True),
            )

        baseline_record, baseline = cell(isolate=False)
        record, result = cell(isolate=True)
        assert baseline_record.ok and record.ok, record.extras.get("failure")
        assert result.seeds == baseline.seeds
        counters = record.extras["telemetry"]["counters"]
        assert counters.get("pool.nested_serial", 0) >= 1

    def test_hung_workers_yield_to_cooperative_time_limit(self, graph):
        """An in-process cell's time limit preempts hung pool workers: the
        pool runs the budget check while it waits, not only when a chunk
        commits, and tears the hung workers down."""
        before = {p.pid for p in multiprocessing.active_children()}
        started = time.perf_counter()
        with Fault("hang", rate=1.0, hang_seconds=12.0):
            record, result = execute_cell(
                RIS(num_rr_sets=600, rr_workers=2),
                graph,
                4,
                WC,
                rng=np.random.default_rng(11),
                config=IsolationConfig(enabled=False, time_limit_seconds=1.0),
            )
        elapsed = time.perf_counter() - started
        assert record.status == STATUS_DNF
        assert result is None
        assert elapsed < 5.0
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leftover = {p.pid for p in multiprocessing.active_children()} - before
            if not leftover:
                break
            time.sleep(0.05)
        assert not leftover, f"orphan worker processes survived: {leftover}"

    def test_quarantine_surfaces_as_failed_cell(self, graph, monkeypatch):
        """An unrecoverable chunk fails the *cell*, never the sweep."""
        monkeypatch.setenv("REPRO_BENCH_POOL_RETRIES", "1")
        with Fault(mode="raise", rate=1.0, seed=0):
            record, result = execute_cell(
                RIS(num_rr_sets=400, rr_workers=2),
                graph,
                3,
                WC,
                rng=np.random.default_rng(1),
                config=IsolationConfig(enabled=False),
            )
        assert result is None
        assert record.status == STATUS_FAILED
        pool_detail = record.extras["failure"]["pool"]
        assert pool_detail["failed_attempts"] == 1
        assert pool_detail["label"] == "rrpool.sample"


class TestArenaChaosSuite:
    """Faults with the shared-memory arena armed (REPRO_SHM_MIN_BYTES=0).

    The transport must be invisible twice over: results are byte-identical
    to the default-transport fault-free baseline, and every recovery rung
    — respawn (workers *re-attach* the published segments, visible as
    extra ``shm.attach`` events from the cold caches), pickle fallback,
    serial downgrade (no transport at all) — leaves no ``/dev/shm``
    leftovers behind.
    """

    def test_ris_kills_reattach_arena(self, monkeypatch):
        # A graph big enough that its CSR arrays clear the per-array
        # inline threshold, so segments are actually published.
        rng = np.random.default_rng(17)
        big = WC.weighted(
            build(powerlaw_configuration(900, 2.3, 4.0, rng)), rng
        )
        baseline = select_seeds(RIS(num_rr_sets=600, rr_workers=3), big, 5)
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")
        tele = Telemetry()
        # seed 84 @ rate .15: one chunk killed on attempt 0 (as in the
        # transport-free twin above), forcing an executor respawn.
        with activate(tele), Fault(mode="kill", rate=0.15, seed=84):
            faulted = select_seeds(RIS(num_rr_sets=600, rr_workers=3), big, 5)
        assert faulted == baseline
        assert tele.counters["pool.transport_shm"] >= 1
        assert tele.counters["shm.publish_segments"] >= 1
        assert tele.counters["pool.worker_restarts"] >= 1
        # The respawned generation attached the segments afresh instead of
        # receiving a graph copy: attach events outnumber the single
        # attach one surviving worker set would report.
        assert tele.counters["shm.attach"] >= 2
        assert not own_shm_segments()

    def test_imm_corrupt_results_with_arena(self, graph, monkeypatch):
        algo = lambda: IMM(epsilon=0.5, rr_scale=0.02, rr_workers=3)  # noqa: E731
        baseline = select_seeds(algo(), graph, 5)
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")
        tele = Telemetry()
        # seed 0 @ rate .3: two chunks return corrupted payloads and retry.
        with activate(tele), Fault(mode="corrupt", rate=0.3, seed=0):
            faulted = select_seeds(algo(), graph, 5)
        assert faulted == baseline
        assert tele.counters["pool.transport_shm"] >= 1
        assert tele.counters["pool.chunk_retries"] >= 2
        assert not own_shm_segments()

    def test_celf_kills_with_arena(self, small_graph, monkeypatch):
        algo = lambda: CELF(mc_simulations=8, mc_workers=2)  # noqa: E731
        baseline = select_seeds(algo(), small_graph, 3)
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")
        tele = Telemetry()
        # seed 28 @ rate .2: chunk 0 of every sigma evaluation is killed.
        with activate(tele), Fault(mode="kill", rate=0.2, seed=28):
            faulted = select_seeds(algo(), small_graph, 3)
        assert faulted == baseline
        assert tele.counters["pool.transport_shm"] >= 1
        assert tele.counters["pool.worker_restarts"] >= 1
        assert not own_shm_segments()

    def test_pickle_fallback_rung_under_kills(self, graph, monkeypatch):
        """REPRO_SHM_DISABLE forces the pickle rung; faults stay invisible."""
        baseline = select_seeds(RIS(num_rr_sets=900, rr_workers=3), graph, 5)
        monkeypatch.setenv("REPRO_SHM_DISABLE", "1")
        tele = Telemetry()
        with activate(tele), Fault(mode="kill", rate=0.15, seed=84):
            faulted = select_seeds(RIS(num_rr_sets=900, rr_workers=3), graph, 5)
        assert faulted == baseline
        assert tele.counters["pool.transport_pickle"] >= 1
        assert "pool.transport_shm" not in tele.counters
        assert not own_shm_segments()

    def test_serial_downgrade_rung_with_arena(self, graph, monkeypatch):
        """Restarts exhausted under a 100% kill rate: the serial rung runs
        on the original objects and the arena still unlinks."""
        baseline = select_seeds(RIS(num_rr_sets=600, rr_workers=3), graph, 4)
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")
        monkeypatch.setenv("REPRO_POOL_MAX_RESTARTS", "0")
        tele = Telemetry()
        with activate(tele), Fault(mode="kill", rate=1.0, seed=0):
            faulted = select_seeds(RIS(num_rr_sets=600, rr_workers=3), graph, 4)
        assert faulted == baseline
        assert tele.counters["pool.serial_downgrades"] >= 1
        assert tele.counters["pool.transport_shm"] >= 1
        assert not own_shm_segments()
