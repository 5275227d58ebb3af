"""Tests for the zero-copy shared-memory transport (repro.framework.shm).

Three layers are pinned here:

* the descriptor round trip — any C-representable ndarray published into
  an arena comes back bit-identical through a worker-side attach
  (property-tested across dtypes and shapes);
* the transport contract — a shared tuple ships item by item (a
  ``DiGraph`` as its CSR arrays, reassembled without recomputation; big
  arrays through the arena; everything else inline); the pickle
  fallbacks (disable flag, min-bytes threshold, publish failure) return
  the original objects; telemetry counters say which path ran;
* the lifecycle — no ``repro_shm_<pid>_*`` segment the test process
  published survives in ``/dev/shm`` after normal completion,
  ``KeyboardInterrupt``, worker kills, or the serial downgrade, and
  engine results are byte-identical with the arena on vs off.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.diffusion.models import Dynamics, WC
from repro.diffusion.rrpool import FlatRRPool
from repro.framework import shm
from repro.framework.pool import (
    Fault,
    PoolConfig,
    ResilientPool,
    run_chunks,
)
from repro.framework.shm import (
    INLINE_BYTES,
    SEGMENT_PREFIX,
    ShmArena,
    ShmRef,
    export_shared,
    resolve_shared,
    shm_enabled,
    shm_min_bytes,
)
from repro.framework.telemetry import Telemetry, activate
from repro.graph.digraph import DiGraph
from repro.graph.generators import build, powerlaw_configuration
from tests.conftest import own_shm_segments

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="process pools need fork/spawn support"
)


def _drain_attach_counter():
    """Reset the in-process attach delta after a parent-side resolve.

    Tests that resolve payloads in the parent (to exercise the worker
    path in-process) must not leak their attach delta into the next
    pool run's ``shm.attach`` accounting.
    """
    shm.attach_meta()


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(7)
    return WC.weighted(build(powerlaw_configuration(150, 2.3, 4.0, rng)), rng)


# -- module-level chunk functions (must pickle) -------------------------


def _shared_sum(big, offset):
    return float(big.sum()) + offset


def _graph_degree_sum(graph, offset):
    return int(np.diff(graph.out_ptr).sum()) + offset


def _slow_shared_sum(big, offset):
    import time

    time.sleep(0.05)
    return float(big.sum()) + offset


# ----------------------------------------------------------------------
# Descriptor round trip


class TestShmRefRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        arr=hnp.arrays(
            dtype=st.one_of(
                hnp.integer_dtypes(),
                hnp.unsigned_integer_dtypes(),
                hnp.floating_dtypes(),
                hnp.complex_number_dtypes(),
                hnp.boolean_dtypes(),
                hnp.datetime64_dtypes(),
                hnp.byte_string_dtypes(),
                hnp.unicode_string_dtypes(),
            ),
            shape=hnp.array_shapes(min_dims=0, max_dims=3, max_side=8),
        )
    )
    def test_publish_attach_bit_identical(self, arr):
        arena = ShmArena(label="prop")
        try:
            ref = arena.publish(arr)
            assert ref.segment.startswith(SEGMENT_PREFIX)
            view = resolve_shared(ref)
            assert view.dtype == arr.dtype
            assert view.shape == arr.shape
            assert view.tobytes() == arr.tobytes()
            assert not view.flags.writeable
        finally:
            arena.close()
            _drain_attach_counter()

    def test_empty_array_publishes(self):
        arena = ShmArena(label="empty")
        try:
            ref = arena.publish(np.empty(0, dtype=np.float64))
            view = resolve_shared(ref)
            assert view.size == 0 and view.dtype == np.float64
        finally:
            arena.close()
            _drain_attach_counter()

    def test_noncontiguous_input(self):
        arena = ShmArena(label="strided")
        base = np.arange(64, dtype=np.int64).reshape(8, 8)
        try:
            ref = arena.publish(base[:, ::2])
            view = resolve_shared(ref)
            assert np.array_equal(view, base[:, ::2])
        finally:
            arena.close()
            _drain_attach_counter()

    def test_close_is_idempotent_and_unlinks(self):
        arena = ShmArena(label="close")
        ref = arena.publish(np.ones(2048, dtype=np.float64))
        assert ref.segment in own_shm_segments()
        arena.close()
        arena.close()
        assert ref.segment not in own_shm_segments()


# ----------------------------------------------------------------------
# Transport encoding and fallbacks


class TestExportShared:
    def test_env_switches(self, monkeypatch):
        assert shm_enabled()
        monkeypatch.setenv("REPRO_SHM_DISABLE", "1")
        assert not shm_enabled()
        monkeypatch.setenv("REPRO_SHM_DISABLE", "0")
        assert shm_enabled()
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "12345")
        assert shm_min_bytes() == 12345
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "junk")
        assert shm_min_bytes() == 1 << 20

    def test_structure_round_trip(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")
        big = np.arange(4096, dtype=np.float64)
        small = np.arange(4, dtype=np.int64)
        shared = (big, small, 3.5)
        payload, arena = export_shared(shared, label="t")
        assert arena is not None
        try:
            assert isinstance(payload[0], ShmRef)
            # Small arrays and scalars stay inline.
            assert isinstance(payload[1], np.ndarray)
            resolved = resolve_shared(payload)
            assert np.array_equal(resolved[0], big)
            assert np.array_equal(resolved[1], small)
            assert resolved[2] == 3.5
        finally:
            arena.close()
            _drain_attach_counter()

    def test_disable_falls_back_to_pickle(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_DISABLE", "1")
        tele = Telemetry()
        shared = (np.arange(1 << 18, dtype=np.float64),)
        with activate(tele):
            payload, arena = export_shared(shared)
        assert arena is None
        assert payload is shared
        assert tele.counters["pool.transport_pickle"] == 1
        assert "pool.transport_shm" not in tele.counters

    def test_below_threshold_falls_back_to_pickle(self):
        # Default threshold is 1 MiB; 64 KiB of eligible bytes stays pickle.
        tele = Telemetry()
        shared = (np.arange(1 << 13, dtype=np.float64),)
        with activate(tele):
            payload, arena = export_shared(shared)
        assert arena is None
        assert payload is shared
        assert tele.counters["pool.transport_pickle"] == 1
        assert tele.counters["pool.shared_pickle_bytes"] > (1 << 16)

    def test_arena_path_counts(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")
        tele = Telemetry()
        big = np.arange(1 << 13, dtype=np.float64)
        with activate(tele):
            payload, arena = export_shared((big,))
        assert arena is not None
        try:
            assert tele.counters["pool.transport_shm"] == 1
            assert tele.counters["shm.publish_segments"] == 1
            assert tele.counters["shm.publish_bytes"] == big.nbytes
            # The dispatch payload is descriptors, not data.
            assert tele.counters["shm.payload_bytes"] < 2048
        finally:
            arena.close()

    def test_publish_failure_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")
        monkeypatch.setattr(
            ShmArena, "publish",
            lambda self, arr: (_ for _ in ()).throw(OSError("no /dev/shm")),
        )
        tele = Telemetry()
        shared = (np.arange(1 << 13, dtype=np.float64),)
        with activate(tele):
            payload, arena = export_shared(shared)
        assert arena is None
        assert payload is shared
        assert tele.counters["shm.fallbacks"] == 1
        assert tele.counters["pool.transport_pickle"] == 1
        assert not own_shm_segments()

    def test_empty_shared_is_noop(self):
        payload, arena = export_shared(())
        assert payload == () and arena is None


class TestCompositeHandlers:
    def test_digraph_round_trip(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")
        # Big enough that the CSR payload arrays clear INLINE_BYTES.
        rng = np.random.default_rng(11)
        graph = WC.weighted(
            build(powerlaw_configuration(900, 2.3, 4.0, rng)), rng
        )
        assert graph.out_dst.nbytes >= INLINE_BYTES
        payload, arena = export_shared((graph,), label="g")
        assert arena is not None
        try:
            (restored,) = resolve_shared(payload)
            assert isinstance(restored, DiGraph)
            assert restored.n == graph.n and restored.m == graph.m
            for name in ("out_ptr", "out_dst", "out_w",
                         "in_ptr", "in_src", "in_w"):
                assert np.array_equal(getattr(restored, name),
                                      getattr(graph, name))
            # Big CSR arrays are read-only views of attached arena
            # segments, not copies.
            assert not restored.out_dst.flags.writeable
            published = {
                ref.segment for ref in payload[0].arrays
                if isinstance(ref, ShmRef)
            }
            assert published <= set(shm.attached_segments())
            assert len(published) == len(arena)
        finally:
            arena.close()
            _drain_attach_counter()

    def test_nbytes_detail_partitions_nbytes_lazily(self, graph):
        pool = FlatRRPool(graph.n)
        pool.extend(graph, Dynamics.IC, 50, np.random.default_rng(1))
        before = pool.nbytes_detail()
        assert before["node_index"] == 0
        assert sum(before.values()) == pool.nbytes
        pool.node_index
        after = pool.nbytes_detail()
        assert after["node_index"] > 0
        assert sum(after.values()) == pool.nbytes == (
            after["set_view"] + after["node_index"]
        )


# ----------------------------------------------------------------------
# Pool integration


class TestPoolIntegration:
    def test_shared_args_via_arena(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")
        big = np.arange(1 << 14, dtype=np.float64)
        tele = Telemetry()
        with activate(tele):
            out = run_chunks(
                _shared_sum, [(1,), (2,), (3,)], workers=3, shared=(big,)
            )
        assert out == [float(big.sum()) + i for i in (1, 2, 3)]
        assert tele.counters["pool.transport_shm"] == 1
        assert tele.counters["shm.publish_segments"] == 1
        assert tele.counters["shm.attach"] >= 1
        assert not own_shm_segments()

    def test_shared_args_via_pickle_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_DISABLE", "1")
        big = np.arange(1 << 14, dtype=np.float64)
        tele = Telemetry()
        with activate(tele):
            out = run_chunks(
                _shared_sum, [(1,), (2,), (3,)], workers=3, shared=(big,)
            )
        assert out == [float(big.sum()) + i for i in (1, 2, 3)]
        assert tele.counters["pool.transport_pickle"] == 1
        assert "shm.attach" not in tele.counters
        assert not own_shm_segments()

    def test_serial_path_skips_transport(self):
        big = np.arange(1 << 14, dtype=np.float64)
        tele = Telemetry()
        with activate(tele):
            out = run_chunks(_shared_sum, [(5,)], workers=1, shared=(big,))
        assert out == [float(big.sum()) + 5.0]
        assert "pool.transport_shm" not in tele.counters
        assert "pool.transport_pickle" not in tele.counters

    def test_composite_shared_graph(self, graph, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")
        expected = int(np.diff(graph.out_ptr).sum())
        out = run_chunks(
            _graph_degree_sum, [(0,), (1,)], workers=2, shared=(graph,)
        )
        assert out == [expected, expected + 1]
        assert not own_shm_segments()

    def test_transport_does_not_change_results(self, graph):
        big = np.arange(1 << 14, dtype=np.float64)
        args = [(i,) for i in range(4)]
        serial = [_shared_sum(big, i) for i in range(4)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_SHM_MIN_BYTES", "0")
            via_shm = run_chunks(_shared_sum, args, workers=4, shared=(big,))
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_SHM_DISABLE", "1")
            via_pickle = run_chunks(_shared_sum, args, workers=4, shared=(big,))
        assert via_shm == via_pickle == serial


# ----------------------------------------------------------------------
# Lifecycle: every exit path unlinks


class TestArenaLifecycle:
    def test_no_leftovers_after_completion(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")
        big = np.arange(1 << 14, dtype=np.float64)
        run_chunks(_shared_sum, [(i,) for i in range(3)], workers=3,
                   shared=(big,))
        assert not own_shm_segments()

    def test_no_leftovers_after_keyboard_interrupt(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")
        big = np.arange(1 << 14, dtype=np.float64)

        def tick():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_chunks(
                _slow_shared_sum, [(i,) for i in range(4)], workers=2,
                shared=(big,), tick=tick,
            )
        assert not own_shm_segments()

    def test_no_leftovers_after_worker_kill(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")
        big = np.arange(1 << 14, dtype=np.float64)
        tele = Telemetry()
        # seed 84 @ rate .15: one chunk killed on attempt 0, then replayed.
        with activate(tele), Fault(mode="kill", rate=0.15, seed=84):
            out = run_chunks(
                _shared_sum, [(i,) for i in range(3)], workers=3, shared=(big,)
            )
        assert out == [float(big.sum()) + i for i in range(3)]
        assert tele.counters["pool.worker_restarts"] >= 1
        # The respawned generation re-attached rather than re-copied.
        assert tele.counters["shm.attach"] >= 2
        assert not own_shm_segments()

    def test_no_leftovers_after_serial_downgrade(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")
        big = np.arange(1 << 14, dtype=np.float64)
        tele = Telemetry()
        pool = ResilientPool(
            config=PoolConfig(max_restarts=0),
            label="downgrade",
        )
        # rate 1.0 kills every parallel attempt; the downgrade path runs
        # the chunks in-process on the original objects.
        with activate(tele), Fault(mode="kill", rate=1.0, seed=1):
            out = pool.run(
                _shared_sum, [(i,) for i in range(3)], workers=3, shared=(big,)
            )
        assert out == [float(big.sum()) + i for i in range(3)]
        assert tele.counters["pool.serial_downgrades"] == 1
        assert not own_shm_segments()
