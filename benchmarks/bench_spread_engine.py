"""Spread-oracle engine — CELF σ-evaluation throughput across backends.

Not a paper figure: this bench validates the spread-oracle layer the MC
greedy family (GREEDY/CELF/CELF++) runs on.  It runs the same CELF
workload (k seeds on a power-law WC analogue) against each backend and
measures σ-evaluation throughput:

* ``loop``     — the ``serial`` backend on the legacy per-cascade
                 Monte-Carlo loop (``tests/reference/mc.py``): the baseline,
* ``serial``   — fresh MC per query on the batched cascade kernel,
* ``batched``  — the same kernel on content-derived RNG streams (memoized),
* ``snapshot`` — presampled live-edge worlds with covered-mask reuse,
* ``sketch``   — snapshot + bottom-k gain bounds seeding the lazy queue.

Each backend's seeds are re-scored with the decoupled MC estimate so the
throughput numbers come with a quality column (the backends answer the
same query stream; the MC backends differ only in sampling noise, the
world-reuse backends trade per-iteration noise for a fixed world sample).

Knobs:

* ``REPRO_BENCH_SPREAD_SIMS``   simulations / worlds per σ estimate
                                (default 100; CI smoke shrinks it)
* ``REPRO_BENCH_SPREAD_NODES``  graph size (default 500)

The >= 10x throughput speedup (best other backend vs the per-cascade
loop) is asserted only at full scale; at smoke scale constant overheads
dominate and only the plumbing is exercised.
"""

import os
import time

import numpy as np

from repro.algorithms import registry
from repro.diffusion.models import WC
from repro.graph.generators import build, powerlaw_configuration

from _common import emit, evaluate_spread, once
from tests.reference.mc import LoopMCOracle

SIMS = int(os.environ.get("REPRO_BENCH_SPREAD_SIMS", "100") or "100")
N_NODES = int(os.environ.get("REPRO_BENCH_SPREAD_NODES", "500") or "500")
K = 10
SEED = 5
SPEEDUP_FLOOR = 10.0
FULL_SCALE = (100, 500)  # (SIMS, N_NODES) at which the floor is asserted

BACKENDS = ("loop", "serial", "batched", "snapshot", "sketch")


def _spread_oracle(name, graph):
    if name == "loop":  # the baseline: an oracle instance on the legacy loop
        return LoopMCOracle(graph, WC, SIMS, np.random.default_rng(SEED))
    return name


def _graph():
    rng = np.random.default_rng(7)
    return WC.weighted(build(powerlaw_configuration(N_NODES, 2.3, 6.0, rng)), rng)


def _run():
    graph = _graph()
    lines = [
        f"CELF workload: k={K}, sigma estimated from {SIMS} "
        f"simulations/worlds, graph n={graph.n} m={graph.m} "
        f"(power-law WC analogue)",
        "",
        f"{'backend':<10} {'time':>9} {'sigma evals':>12} {'evals/s':>10} "
        f"{'speedup':>8} {'cache hits':>11} {'MC spread':>10}",
    ]
    base_throughput = None
    best_speedup = 0.0
    for name in BACKENDS:
        algo = registry.make(
            "CELF", mc_simulations=SIMS, spread_oracle=_spread_oracle(name, graph)
        )
        start = time.perf_counter()
        result = algo.select(graph, K, WC, rng=np.random.default_rng(SEED))
        elapsed = time.perf_counter() - start
        evals = result.extras["sigma_evaluations"]
        throughput = evals / elapsed if elapsed > 0 else float("inf")
        if base_throughput is None:
            base_throughput = throughput
            speedup = 1.0
        else:
            speedup = throughput / base_throughput
            best_speedup = max(best_speedup, speedup)
        quality = evaluate_spread(graph, result.seeds, WC).mean
        lines.append(
            f"{name:<10} {elapsed:8.3f}s {evals:>12,} {throughput:>10,.0f} "
            f"x{speedup:>7.2f} {result.extras['gain_cache_hits']:>11,} "
            f"{quality:>10.1f}"
        )
    return lines, best_speedup


def test_spread_engine(benchmark):
    lines, best_speedup = once(benchmark, _run)
    emit("spread_engine", "\n".join(lines))
    if (SIMS, N_NODES) >= FULL_SCALE:
        assert best_speedup >= SPEEDUP_FLOOR, (
            f"best backend only x{best_speedup:.2f} over the per-cascade "
            f"loop (floor x{SPEEDUP_FLOOR})"
        )
