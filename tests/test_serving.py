"""Serving layer: warm artifacts, coalescing, cache bounds, byte parity."""

from __future__ import annotations

import json
import logging
import socket

import numpy as np
import pytest

from repro import algorithms
from repro.datasets import load as load_dataset
from repro.diffusion import Dynamics, model_by_name
from repro.diffusion.oracle import (
    BatchedMCOracle,
    BoundedMemo,
    GainCache,
    SnapshotOracle,
)
from repro.diffusion.rrpool import FlatRRPool
from repro.framework import shm
from repro.graph.io import save_npz
from repro.serving import (
    Artifact,
    ArtifactLRU,
    ServingCatalog,
    ServingClient,
    ServingConfig,
    ServingError,
    artifact_key,
    payload_nbytes,
    start_in_thread,
)
from repro.serving.server import MAX_REQUEST_BYTES
from tests.conftest import own_shm_segments


def _weighted(dataset="nethept", model_name="IC"):
    model = model_by_name(model_name)
    graph = model.weighted(load_dataset(dataset), np.random.default_rng(0))
    return graph, model


@pytest.fixture(scope="module")
def served():
    """One shared server for the read-only protocol tests."""
    handle = start_in_thread(
        ServingConfig(datasets=("nethept",), coalesce_ms=15.0)
    )
    yield handle
    handle.stop()


# ----------------------------------------------------------------------
# BoundedMemo / cache-bound regressions (the long-lived-process bugfixes)


def test_bounded_memo_caps_entries_lru():
    memo = BoundedMemo(max_entries=3)
    for i in range(5):
        memo.put(i, i * 10)
    assert len(memo) == 3
    assert memo.evictions == 2
    assert memo.get(0) is None and memo.get(1) is None
    assert memo.get(4) == 40
    # Recency: touching 2 makes 3 the eviction victim.
    memo.get(2)
    memo.put(5, 50)
    assert 3 not in memo and 2 in memo


def test_bounded_memo_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_MEMO_MAX", "2")
    memo = BoundedMemo(env="REPRO_TEST_MEMO_MAX")
    memo.put("a", 1)
    memo.put("b", 2)
    memo.put("c", 3)
    assert len(memo) == 2 and memo.evictions == 1


def test_gain_cache_bounded_under_distinct_queries(two_cliques):
    oracle = SnapshotOracle(
        two_cliques, model_by_name("IC"), num_worlds=4,
        rng=np.random.default_rng(0),
    )
    cache = GainCache(max_entries=64)
    for v in range(two_cliques.n):
        for _ in range(3):
            cache.gain(oracle, v)
    stats = cache.stats()
    assert stats["hits"] > 0
    assert stats["entries"] <= 64


def test_gain_cache_10k_distinct_queries_bounded(star_graph, monkeypatch):
    monkeypatch.setenv("REPRO_GAIN_CACHE_MAX", "64")
    oracle = SnapshotOracle(
        star_graph, model_by_name("IC"), num_worlds=2,
        rng=np.random.default_rng(0),
    )
    cache = GainCache()
    # 10k queries cycling through >64 distinct (extra-set, node) keys.
    n = star_graph.n
    for i in range(10_000):
        cache.gain(oracle, i % n, extra=[(i // n) % n, (i // (n * n)) % n])
    stats = cache.stats()
    assert stats["entries"] <= 64
    assert stats["evictions"] > 0


def test_sigma_caches_bounded_10k_distinct(two_cliques, monkeypatch):
    monkeypatch.setenv("REPRO_SIGMA_CACHE_MAX", "16")
    model = model_by_name("IC")
    snap = SnapshotOracle(
        two_cliques, model, num_worlds=2, rng=np.random.default_rng(0)
    )
    batched = BatchedMCOracle(two_cliques, model, 2, np.random.default_rng(0))
    n = two_cliques.n
    # 10k queries over the 63 nonempty subsets of the 6 nodes (bitmask
    # enumeration), far above the 16-entry bound.
    for i in range(10_000):
        mask = (i % 63) + 1
        key = [v for v in range(n) if mask & (1 << v)]
        snap.evaluate(key)
        batched.evaluate(key)
    assert len(snap._sigma_cache) <= 16
    assert len(batched._sigma_cache) <= 16
    assert snap._sigma_cache.evictions > 0
    assert batched._sigma_cache.evictions > 0


def test_sigma_cache_still_hits_for_repeats(two_cliques):
    oracle = SnapshotOracle(
        two_cliques, model_by_name("IC"), num_worlds=4,
        rng=np.random.default_rng(0),
    )
    first = oracle.evaluate([0, 3])
    evals = oracle.evaluations
    second = oracle.evaluate([0, 3])
    assert second == first
    assert oracle.evaluations == evals  # cache hit, no re-evaluation


# ----------------------------------------------------------------------
# SnapshotOracle.evaluate_many: one memo pass, bitwise-equal to evaluate


def test_evaluate_many_matches_evaluate(two_cliques):
    model = model_by_name("IC")
    sets = [[0], [3], [0, 3], [1, 4], [2]]
    a = SnapshotOracle(
        two_cliques, model, num_worlds=16, rng=np.random.default_rng(9)
    )
    b = SnapshotOracle(
        two_cliques, model, num_worlds=16, rng=np.random.default_rng(9)
    )
    batch = a.evaluate_many(sets)
    singles = [b.evaluate(s) for s in sets]
    assert batch == singles  # bitwise, not approximate


def test_evaluate_many_dedups_and_fills_cache(two_cliques):
    oracle = SnapshotOracle(
        two_cliques, model_by_name("IC"), num_worlds=8,
        rng=np.random.default_rng(1),
    )
    values = oracle.evaluate_many([[0], [1], [0], [1], [0]])
    assert values[0] == values[2] == values[4]
    assert oracle.evaluations == 2  # two distinct sets evaluated once each
    # Follow-up singles are pure cache hits.
    assert oracle.evaluate([0]) == values[0]
    assert oracle.evaluations == 2


# ----------------------------------------------------------------------
# shm attach-cache sweep


def _fake_attachment():
    """A (segment, view) pair shaped like a real _ATTACHED entry."""
    from multiprocessing import shared_memory

    seg = shared_memory.SharedMemory(create=True, size=64, name=None)
    view = np.ndarray((64,), dtype=np.uint8, buffer=seg.buf)
    view.flags.writeable = False
    shm._ATTACHED[seg.name] = (seg, view)
    return seg


def test_detach_stale_drops_unlinked_segments():
    seg = _fake_attachment()
    name = seg.name
    try:
        assert name in shm.attached_segments()
        assert shm.detach_stale() == 0  # segment still exists: kept
        seg.unlink()
        assert shm.detach_stale() >= 1
        assert name not in shm.attached_segments()
    finally:
        shm._ATTACHED.pop(name, None)
        try:
            seg.unlink()
        except FileNotFoundError:
            pass


def test_detach_all_empties_cache():
    seg = _fake_attachment()
    try:
        assert shm.detach_all() >= 1
        assert not shm.attached_segments()
    finally:
        try:
            seg.unlink()
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# ArtifactLRU


def _artifact(key, nbytes, kind="oracle"):
    return Artifact(key=key, kind=kind, payload=object(), nbytes=nbytes)


def test_artifact_lru_evicts_by_bytes_lru_order():
    lru = ArtifactLRU(budget_bytes=100)
    lru.put(_artifact("a", 40))
    lru.put(_artifact("b", 40))
    assert lru.get("a") is not None  # refresh a; b is now oldest
    evicted = lru.put(_artifact("c", 40))
    assert evicted == ["b"]
    assert "a" in lru and "c" in lru
    assert lru.total_bytes == 80


def test_artifact_lru_keeps_newest_even_over_budget():
    lru = ArtifactLRU(budget_bytes=10)
    lru.put(_artifact("big", 1000))
    assert "big" in lru and len(lru) == 1


def test_artifact_lru_replace_same_key():
    lru = ArtifactLRU(budget_bytes=100)
    lru.put(_artifact("a", 40))
    lru.put(_artifact("a", 60))
    assert len(lru) == 1 and lru.total_bytes == 60


def test_artifact_key_canonical_ordering():
    k1 = artifact_key("oracle", "d", "IC", worlds=5, seed=0)
    k2 = artifact_key("oracle", "d", "IC", seed=0, worlds=5)
    assert k1 == k2
    assert artifact_key("oracle", "d", "IC", worlds=6, seed=0) != k1


def test_payload_nbytes_prefers_detail(two_cliques):
    oracle = SnapshotOracle(
        two_cliques, model_by_name("IC"), num_worlds=4,
        rng=np.random.default_rng(0),
    )
    total, detail = payload_nbytes(oracle)
    assert total == oracle.nbytes > 0
    assert "live_worlds" in detail
    pool = FlatRRPool(two_cliques.n)
    pool.extend(two_cliques, Dynamics.IC, 20, np.random.default_rng(0))
    pool.node_index
    total, detail = payload_nbytes(pool)
    assert total == pool.nbytes
    assert set(detail) == {"set_view", "node_index"}


# ----------------------------------------------------------------------
# Catalog


def test_catalog_weighted_matches_cli_convention():
    catalog = ServingCatalog(datasets=("nethept",))
    graph, model = catalog.weighted("nethept", "IC")
    ref, __ = _weighted()
    assert np.array_equal(graph.out_w, ref.out_w)
    assert catalog.weighted("nethept", "IC")[0] is graph  # cached


def test_catalog_dir_serves_npz(tmp_path, two_cliques):
    save_npz(two_cliques, tmp_path / "toy.npz")
    catalog = ServingCatalog(datasets=(), catalog_dir=str(tmp_path))
    assert catalog.names() == ("toy",)
    loaded = catalog.graph("toy")
    assert loaded.n == two_cliques.n and loaded.m == two_cliques.m


def test_catalog_rejects_unknown_dataset():
    with pytest.raises(KeyError):
        ServingCatalog(datasets=("nope",))


# ----------------------------------------------------------------------
# Server protocol: byte parity, warm hits, coalescing, errors


def test_topk_ris_byte_identical_to_batch_and_warm(served):
    with served.client() as client:
        cold = client.topk(
            "nethept", "IC", "RIS", 5, params={"num_rr_sets": 1000}, seed=7
        )
        warm = client.topk(
            "nethept", "IC", "RIS", 5, params={"num_rr_sets": 1000}, seed=7
        )
        smaller = client.topk(
            "nethept", "IC", "RIS", 2, params={"num_rr_sets": 1000}, seed=7
        )
    graph, model = _weighted()
    ref = algorithms.make("RIS", num_rr_sets=1000).select(
        graph, 5, model, rng=np.random.default_rng(7)
    )
    assert cold["seeds"] == ref.seeds
    assert warm["seeds"] == ref.seeds
    assert not cold["warm"] and warm["warm"]
    assert smaller["warm"] and smaller["seeds"] == ref.seeds[:2]


def test_topk_ris_width_budget_served_from_warm_pool(served):
    # The width-budget pool does not depend on k, so one pool answers a
    # larger budget warm too.
    params = {"num_rr_sets": 5000, "width_budget": 4000}
    graph, model = _weighted()
    with served.client() as client:
        for i, k in enumerate((8, 3, 12)):
            got = client.topk("nethept", "IC", "RIS", k, params=params, seed=5)
            ref = algorithms.make("RIS", **params).select(
                graph, k, model, rng=np.random.default_rng(5)
            )
            assert got["seeds"] == ref.seeds
            assert got["warm"] == (i > 0)


def test_topk_ris_params_checked_by_ris(served):
    with served.client() as client:
        with pytest.raises(ServingError, match="num_rr_sets"):
            client.topk("nethept", "IC", "RIS", 5, params={"num_rr_sets": 0})
        with pytest.raises(ServingError, match="num_rr_set"):
            client.topk("nethept", "IC", "RIS", 5, params={"num_rr_set": 10})
        assert client.ping() == "pong"


def test_topk_k_above_node_count_rejected_for_every_technique(served):
    # The warm RIS pool pads to at most n nodes, so without the shared
    # check a RIS topk with k > n answered n seeds under the requested k.
    n = _weighted()[0].n
    params = {"RIS": {"num_rr_sets": 1000}, "DegreeDiscount": {}}
    with served.client() as client:
        for algorithm in ("RIS", "DegreeDiscount"):
            with pytest.raises(ServingError, match="exceeds the number of nodes"):
                client.topk("nethept", "IC", algorithm, n + 1,
                            params=params[algorithm])
            got = client.topk("nethept", "IC", algorithm, n,
                              params=params[algorithm])
            assert got["k"] == n and len(got["seeds"]) == n
        assert client.ping() == "pong"


def test_rrpool_artifact_bytes_include_inverted_index():
    # Every max-cover reads the pool's inverted index, so the LRU must
    # charge for it from the first (cold) query on.
    handle = start_in_thread(
        ServingConfig(datasets=("nethept",), coalesce_ms=1.0)
    )
    try:
        with handle.client() as client:
            client.topk(
                "nethept", "IC", "RIS", 5, params={"num_rr_sets": 2000}, seed=7
            )
            stats = client.stats()
    finally:
        handle.stop()
    graph, model = _weighted()
    pool = FlatRRPool(graph.n)
    pool.extend(graph, model.dynamics, 2000, np.random.default_rng(7))
    pool.node_index
    assert stats["cache"]["by_kind"]["rrpool"]["bytes"] == pool.nbytes


def test_topk_selection_path_prefix_warm(served):
    with served.client() as client:
        cold = client.topk(
            "nethept", "IC", "DegreeDiscount", 6, seed=3
        )
        prefix = client.topk(
            "nethept", "IC", "DegreeDiscount", 4, seed=3
        )
    graph, model = _weighted()
    ref = algorithms.make("DegreeDiscount").select(
        graph, 6, model, rng=np.random.default_rng(3)
    )
    assert cold["seeds"] == ref.seeds and not cold["warm"]
    assert prefix["warm"] and prefix["seeds"] == ref.seeds[:4]


def test_sigma_byte_identical_to_direct_oracle(served):
    with served.client() as client:
        got = client.sigma("nethept", "IC", [3, 5, 1], worlds=64, seed=0)
    graph, model = _weighted()
    oracle = SnapshotOracle(
        graph, model, num_worlds=64, rng=np.random.default_rng(0)
    )
    assert got["sigma"] == oracle.evaluate([3, 5, 1])


def test_gain_byte_identical_to_direct_oracle(served):
    with served.client() as client:
        got = client.gain("nethept", "IC", 9, seeds=[3, 5], worlds=64)
    graph, model = _weighted()
    oracle = SnapshotOracle(
        graph, model, num_worlds=64, rng=np.random.default_rng(0)
    )
    assert got["gain"] == oracle.gain(9, extra=[3, 5])


def test_concurrent_sigma_coalesces_into_one_evaluation(served):
    sets = [[0], [1], [2], [3], [0, 1]]
    before = served.server.telemetry.counters.get("serving.coalesced_batches", 0)
    with served.client() as client:
        results = client.sigma_many("nethept", "IC", sets, worlds=32)
    # Pipelined queries land inside one coalescing window: at least one
    # response reports a batch of >= 2, and parity holds for every set.
    assert max(r["batched"] for r in results) >= 2
    after = served.server.telemetry.counters.get("serving.coalesced_batches", 0)
    assert after > before
    graph, model = _weighted()
    oracle = SnapshotOracle(
        graph, model, num_worlds=32, rng=np.random.default_rng(0)
    )
    for seeds, got in zip(sets, results):
        assert got["sigma"] == oracle.evaluate(seeds)


def test_unknown_op_errors_without_killing_connection(served):
    with served.client() as client:
        with pytest.raises(ServingError):
            client.request("definitely-not-an-op")
        assert client.ping() == "pong"  # connection survived


def test_bad_request_reports_missing_field(served):
    with served.client() as client:
        with pytest.raises(ServingError, match="missing field"):
            client.request("topk", dataset="nethept")
        with pytest.raises(ServingError, match="not servable"):
            client.sigma("nethept", "IC", [0], oracle="serial")


def test_stats_exposes_cache_and_counters(served):
    with served.client() as client:
        client.ping()
        stats = client.stats()
    assert "nethept" in stats["datasets"]
    assert stats["counters"]["serving.requests"] > 0
    assert stats["cache"]["budget_bytes"] == 256 << 20


def test_oversized_request_line_gets_error_envelope(served):
    seeds = list(range(MAX_REQUEST_BYTES // 4))
    big = json.dumps({"id": 1, "op": "sigma", "dataset": "nethept",
                      "model": "IC", "seeds": seeds})
    assert len(big) > MAX_REQUEST_BYTES
    ping = json.dumps({"id": 2, "op": "ping"})
    with socket.create_connection((served.host, served.port), timeout=30) as sock:
        sock.sendall(f"{big}\n{ping}\n".encode())
        with sock.makefile("rb") as stream:
            reply = stream.read()  # until the server hangs up
    # One envelope, then the connection closes: the request pipelined
    # behind the oversized line is not answered.
    responses = [json.loads(line) for line in reply.splitlines()]
    assert len(responses) == 1
    assert responses[0]["id"] is None and responses[0]["ok"] is False
    assert responses[0]["error"]["type"] == "RequestTooLarge"
    with served.client() as client:
        assert client.ping() == "pong"  # the server lives on


def test_engine_telemetry_folds_under_serving_spans(served):
    with served.client() as client:
        cold = client.topk(
            "nethept", "IC", "RIS", 3, params={"num_rr_sets": 300}, seed=41
        )
        stats = client.stats()
    assert not cold["warm"]
    assert stats["counters"]["rrpool.rr_sets"] > 0
    build = served.server.telemetry.snapshot()["spans"]["serving.build"]
    assert "rrpool.sample" in build["children"]


def test_shutdown_logs_no_cancelled_error(caplog):
    caplog.set_level(logging.DEBUG, logger="asyncio")
    for __ in range(3):
        handle = start_in_thread(ServingConfig(datasets=("nethept",)))
        with handle.client() as client:
            assert client.ping() == "pong"
        handle.stop()
    logged = [r for r in caplog.records if r.name == "asyncio"]
    assert not [r for r in logged if "CancelledError" in r.getMessage()
                or (r.exc_info and r.exc_info[0] is not None)], caplog.text


# ----------------------------------------------------------------------
# LRU eviction + re-warm under a tiny byte budget (own server: mutates cache)


def test_server_lru_evicts_and_rewarms_under_small_budget():
    handle = start_in_thread(
        ServingConfig(
            datasets=("nethept",),
            cache_bytes=100_000,  # fits one indexed 1k-set RR pool, not two
            coalesce_ms=1.0,
        )
    )
    try:
        with handle.client() as client:
            first = client.topk(
                "nethept", "IC", "RIS", 3, params={"num_rr_sets": 1000}, seed=1
            )
            # Distinct seeds → distinct artifacts; evicts the first pool.
            for seed in (2, 3, 4):
                client.topk(
                    "nethept", "IC", "RIS", 3,
                    params={"num_rr_sets": 1000}, seed=seed,
                )
            stats = client.stats()
            assert stats["cache"]["evictions"] > 0
            assert stats["cache"]["total_bytes"] <= 100_000
            # Re-warm: evicted artifact rebuilds to the same answer.
            again = client.topk(
                "nethept", "IC", "RIS", 3, params={"num_rr_sets": 1000}, seed=1
            )
            assert not again["warm"]
            assert again["seeds"] == first["seeds"]
            rewarmed = client.topk(
                "nethept", "IC", "RIS", 3, params={"num_rr_sets": 1000}, seed=1
            )
            assert rewarmed["warm"] and rewarmed["seeds"] == first["seeds"]
    finally:
        handle.stop()


def test_server_shutdown_leaves_no_shm_residue():
    handle = start_in_thread(
        ServingConfig(datasets=("nethept",), coalesce_ms=1.0)
    )
    with handle.client() as client:
        client.topk("nethept", "IC", "RIS", 2, params={"num_rr_sets": 200})
        client.shutdown()
    handle.stop()
    assert not shm.attached_segments()
    assert own_shm_segments() == []
