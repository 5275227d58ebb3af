"""Flat CSR RR-set engine — cover speedup and parallel sampling throughput.

Not a paper figure: this bench validates the engine the RR-sketch family
(RIS/TIM+/IMM/SSA) now runs on.  It builds one large pool on a power-law
analogue, then measures

* vectorized flat-CSR ``greedy_max_cover`` against the legacy
  list-walking cover in ``tests/reference`` (byte-identical seeds are
  asserted first — the
  speedup is only meaningful if the answers agree), and
* serial vs. worker-pool RR sampling throughput plus the pool's flat-CSR
  memory footprint (``FlatRRPool.nbytes``).

Knobs:

* ``REPRO_BENCH_RR_POOL``    pool size (default 50000; CI smoke shrinks it)
* ``REPRO_BENCH_RR_WORKERS`` worker processes for the sampling comparison
                             (default 2)

The >= 3x cover speedup is asserted only at full scale (>= 20000 sets);
at smoke scale the equivalence checks still run but constant overheads
dominate the timing.
"""

import os
import time

import numpy as np

from repro.diffusion.models import Dynamics, WC
from repro.diffusion.rrpool import FlatRRPool, greedy_max_cover
from repro.graph.generators import build, powerlaw_configuration
from tests.reference import RRCollection, greedy_max_cover_legacy

from _common import emit, once

POOL_SIZE = int(os.environ.get("REPRO_BENCH_RR_POOL", "50000") or "50000")
WORKERS = int(os.environ.get("REPRO_BENCH_RR_WORKERS", "2") or "2")
K = 50
N_NODES = 2000
SPEEDUP_FLOOR = 3.0
FULL_SCALE = 20_000


def _graph():
    rng = np.random.default_rng(7)
    return WC.weighted(build(powerlaw_configuration(N_NODES, 2.3, 8.0, rng)), rng)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _run():
    graph = _graph()
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    lines = [
        f"pool_size={POOL_SIZE} graph: n={graph.n} m={graph.m} "
        f"(power-law WC analogue), k={K}, cores={cores}",
        "",
    ]

    # -- sampling throughput: serial vs process-pool workers ------------
    serial = FlatRRPool(graph.n)
    __, t_serial = _timed(
        lambda: serial.extend(
            graph, Dynamics.IC, POOL_SIZE, np.random.default_rng(11)
        )
    )
    parallel = FlatRRPool(graph.n)
    __, t_parallel = _timed(
        lambda: parallel.extend(
            graph, Dynamics.IC, POOL_SIZE, np.random.default_rng(11),
            workers=WORKERS,
        )
    )
    lines += [
        "RR sampling (IC):",
        f"  serial            {t_serial:8.3f} s   "
        f"({POOL_SIZE / t_serial:,.0f} sets/s)",
        f"  workers={WORKERS}         {t_parallel:8.3f} s   "
        f"({POOL_SIZE / t_parallel:,.0f} sets/s)   "
        f"speedup x{t_serial / t_parallel:.2f}",
    ]
    if cores < 2:
        lines.append(
            "  (single-core machine: the worker pool can only pay IPC "
            "overhead here)"
        )
    lines.append("")

    # -- pool memory footprint ------------------------------------------
    set_view = serial.set_ptr.nbytes + serial.set_nodes.nbytes + serial.widths.nbytes
    __ = serial.node_index  # materialize the inverted view too
    lines += [
        "flat-CSR pool memory:",
        f"  set view          {set_view / 1e6:8.2f} MB",
        f"  with node index   {serial.nbytes / 1e6:8.2f} MB",
        "",
    ]

    # -- cover speedup: flat vectorized vs legacy list-walking ----------
    # Rebuild the pool as an RRCollection and pre-materialize its list
    # caches so the legacy timing measures the cover walk, not the
    # CSR->list conversion.
    legacy_pool = RRCollection(graph.n)
    legacy_pool.absorb(serial)
    __ = legacy_pool.sets, legacy_pool.member_of
    degree = graph.out_degree()

    flat_result, t_flat = _timed(
        lambda: greedy_max_cover(serial, K, pad_priority=degree)
    )
    legacy_result, t_legacy = _timed(
        lambda: greedy_max_cover_legacy(legacy_pool, K, pad_priority=degree)
    )
    assert flat_result == legacy_result, "flat and legacy covers disagree"
    speedup = t_legacy / t_flat
    lines += [
        f"greedy max-cover (k={K}):",
        f"  legacy (lists)    {t_legacy:8.3f} s",
        f"  flat CSR          {t_flat:8.3f} s   speedup x{speedup:.2f}",
        f"  identical seeds: True   coverage={flat_result[1]:.4f}",
    ]
    return lines, speedup


def test_rr_engine(benchmark):
    lines, speedup = once(benchmark, _run)
    emit("rr_engine", "\n".join(lines))
    if POOL_SIZE >= FULL_SCALE:
        assert speedup >= SPEEDUP_FLOOR, (
            f"flat cover only x{speedup:.2f} over legacy (floor x{SPEEDUP_FLOOR})"
        )
