"""Path-proxy engine — structure-build and greedy throughput vs legacy.

Not a paper figure: this bench validates the batched path-proxy layer the
MIA/LDAG family (PMIA / LDAG / IRIE) now runs on.  Two workloads on the
largest catalog dataset:

* **structure build** — every MIIA arborescence (PMIA, WC analogue) and
  every LDAG (LDAG, LT analogue) of the graph, legacy per-root dict/heap
  loop (``tests/reference``) vs the batched kernel vs the kernel fanned
  over ``path_workers`` processes;
* **greedy selection** — full k-seed selection per technique, the
  ``tests/reference`` loop (``LegacyPMIA`` etc.) vs the product class,
  with the decoupled MC spread as the quality column.  The engine is a
  bit-identical drop-in, so the seed sets must agree exactly — the bench
  asserts it.

Knobs:

* ``REPRO_BENCH_PATH_DATASET``  catalog dataset (default ``livejournal``)
* ``REPRO_BENCH_PATH_K``        seeds per selection (default 10)
* ``REPRO_BENCH_PATH_WORKERS``  worker column fan-out (default 2)

The >= 5x structure-build speedup is asserted only at full scale (the
default livejournal dataset); smoke runs on smaller datasets exercise
the plumbing without the floor.
"""

import os
import time

import numpy as np

from repro.algorithms.irie import IRIE
from repro.algorithms.ldag import LDAG
from repro.algorithms.pmia import PMIA
from repro.datasets import catalog
from repro.diffusion.models import WC, LT
from repro.diffusion.paths import build_dag_store, build_tree_store
from tests.reference import (
    LegacyIRIE,
    LegacyLDAG,
    LegacyPMIA,
    build_ldag,
    build_miia,
)

from _common import emit, evaluate_spread, once

DATASET = os.environ.get("REPRO_BENCH_PATH_DATASET", "livejournal")
K = int(os.environ.get("REPRO_BENCH_PATH_K", "10") or "10")
WORKERS = int(os.environ.get("REPRO_BENCH_PATH_WORKERS", "2") or "2")
THRESHOLD = 1.0 / 320.0
SPEEDUP_FLOOR = 5.0
FULL_SCALE_DATASET = "livejournal"


def _build_rows(graph_wc, graph_lt):
    rows = []
    for label, graph, legacy_build, store_build in (
        ("PMIA trees", graph_wc, build_miia, build_tree_store),
        ("LDAG dags", graph_lt, build_ldag, build_dag_store),
    ):
        start = time.perf_counter()
        for v in range(graph.n):
            legacy_build(graph, v, THRESHOLD)
        t_legacy = time.perf_counter() - start
        start = time.perf_counter()
        store_build(graph, THRESHOLD)
        t_flat = time.perf_counter() - start
        start = time.perf_counter()
        store_build(graph, THRESHOLD, workers=WORKERS)
        t_fanned = time.perf_counter() - start
        rows.append((label, graph.n, t_legacy, t_flat, t_fanned))
    return rows


def _greedy_rows(graph_wc, graph_lt):
    rows = []
    for cls, legacy_cls, model, graph in (
        (PMIA, LegacyPMIA, WC, graph_wc),
        (LDAG, LegacyLDAG, LT, graph_lt),
        (IRIE, LegacyIRIE, WC, graph_wc),
    ):
        start = time.perf_counter()
        legacy = legacy_cls().select(
            graph, K, model, rng=np.random.default_rng(0)
        )
        t_legacy = time.perf_counter() - start
        start = time.perf_counter()
        flat = cls().select(
            graph, K, model, rng=np.random.default_rng(0)
        )
        t_flat = time.perf_counter() - start
        assert flat.seeds == legacy.seeds, (
            f"{cls.name}: flat engine diverged from legacy seeds"
        )
        quality = evaluate_spread(graph, flat.seeds, model).mean
        rows.append((cls.name, model.name, t_legacy, t_flat, quality))
    return rows


def _run():
    base = catalog.load(DATASET)
    graph_wc = WC.weighted(base, np.random.default_rng(0))
    graph_lt = LT.weighted(base, np.random.default_rng(0))
    lines = [
        f"path-proxy engine on {DATASET} (n={base.n}, m={base.m}), "
        f"threshold 1/320, k={K}, worker column = {WORKERS} processes",
        "",
        "structure build (all roots):",
        f"{'structures':<12} {'count':>8} {'legacy':>9} {'engine':>9} "
        f"{'speedup':>8} {'+workers':>9}",
    ]
    min_speedup = float("inf")
    for label, count, t_legacy, t_flat, t_fanned in _build_rows(graph_wc, graph_lt):
        speedup = t_legacy / t_flat if t_flat > 0 else float("inf")
        min_speedup = min(min_speedup, speedup)
        lines.append(
            f"{label:<12} {count:>8,} {t_legacy:>8.2f}s {t_flat:>8.2f}s "
            f"x{speedup:>7.2f} {t_fanned:>8.2f}s"
        )
    lines += [
        "",
        f"greedy selection (k={K}, identical seed sets asserted):",
        f"{'technique':<10} {'model':>6} {'legacy':>9} {'engine':>9} "
        f"{'speedup':>8} {'MC spread':>10}",
    ]
    for name, model_name, t_legacy, t_flat, quality in _greedy_rows(
        graph_wc, graph_lt
    ):
        speedup = t_legacy / t_flat if t_flat > 0 else float("inf")
        lines.append(
            f"{name:<10} {model_name:>6} {t_legacy:>8.2f}s {t_flat:>8.2f}s "
            f"x{speedup:>7.2f} {quality:>10.1f}"
        )
    return lines, min_speedup


def test_path_engine(benchmark):
    lines, min_build_speedup = once(benchmark, _run)
    emit("path_engine", "\n".join(lines))
    if DATASET == FULL_SCALE_DATASET:
        assert min_build_speedup >= SPEEDUP_FLOOR, (
            f"structure-build speedup only x{min_build_speedup:.2f} over the "
            f"legacy per-root loops (floor x{SPEEDUP_FLOOR})"
        )
