"""Figs. 10a-b and Table 4 — SIMPATH vs LDAG across LT weight schemes (M5).

SIMPATH's own evaluation used the LT "parallel edges" model, where the
consolidated multigraph weights are small and path enumeration stays
cheap.  Under LT-uniform (1/|In(v)| — weight 1.0 on in-degree-1 nodes!)
the pruned path forest explodes and LDAG dominates.  This bench runs both
techniques on:

* the nethept analogue under LT-uniform ("Nethept"),
* the same topology under LT-parallel-edges with random multiplicities
  ("Nethept-P"),
* the dblp analogue under LT-uniform ("DBLP"),

and prints a Table-4-style grid plus Fig-10a/b time-vs-k series.
"""

import numpy as np

from repro.algorithms import registry
from repro.diffusion.models import LT
from repro.framework.metrics import run_with_budget
from repro.framework.results import render_series
from repro.graph.multigraph import MultiDiGraph, consolidate
from tests.reference import LegacyLDAG

from _common import emit, evaluate_spread, once, weighted_dataset

K_GRID = (10, 25, 50)
TIME_LIMIT = 25.0


def parallel_edges_variant(name: str, seed: int = 7):
    """The dataset's topology re-weighted by LT parallel edges.

    Each arc gets a random call multiplicity in 1..5, mimicking the
    phone-call multigraphs of the SIMPATH evaluation.
    """
    from repro.datasets import load

    graph = load(name)
    rng = np.random.default_rng(seed)
    mg = MultiDiGraph(graph.n)
    src = graph.edge_src
    for j in range(graph.m):
        mg.add_edge(int(src[j]), int(graph.out_dst[j]), count=int(rng.integers(1, 6)))
    return consolidate(mg)


def _series(graph, label):
    rows = {}
    for name in ("LDAG", "SIMPATH"):
        times = []
        status = "OK"
        for k in K_GRID:
            if status != "OK":
                times.append(status)
                continue
            record, __ = run_with_budget(
                registry.make(name),
                graph,
                k,
                LT,
                rng=np.random.default_rng(k),
                time_limit_seconds=TIME_LIMIT,
                track_memory=False,
            )
            status = record.status
            times.append(round(record.elapsed_seconds, 3) if record.ok else status)
        rows[name] = times
    return render_series(
        "k", list(K_GRID), rows,
        title=f"Fig 10a-b / Table 4: LDAG vs SIMPATH time (s) — {label}",
    ), rows


def test_fig10ab_table4_ldag_vs_simpath(benchmark):
    def experiment():
        outputs = {}
        workloads = [
            ("Nethept (LT-uniform)", weighted_dataset("nethept", LT)),
            ("Nethept-P (LT-parallel)", parallel_edges_variant("nethept")),
            ("DBLP (LT-uniform)", weighted_dataset("dblp", LT)),
        ]
        for label, graph in workloads:
            outputs[label] = _series(graph, label)
        return outputs

    outputs = once(benchmark, experiment)
    emit(
        "fig10ab_table4_simpath_ldag",
        "\n\n".join(text for text, __ in outputs.values()),
    )

    def final_time(rows, name):
        value = rows[name][-1]
        return value if isinstance(value, float) else float("inf")

    # Table 4's verdict: LDAG is at least as fast as SIMPATH at k_max on
    # every workload, and strictly dominant under LT-uniform.
    for label, (__, rows) in outputs.items():
        assert final_time(rows, "LDAG") <= final_time(rows, "SIMPATH") * 1.5, label
    uniform_rows = outputs["DBLP (LT-uniform)"][1]
    assert final_time(uniform_rows, "LDAG") < final_time(uniform_rows, "SIMPATH")


def test_fig10ab_quality_parity(benchmark):
    """Comparable spread (the race is about time) + path-engine speedup.

    The quality column doubles as the parity check for the vectorized
    path-proxy engine: LDAG is run on the engine and on the legacy loop
    in ``tests/reference``, the seed sets must be identical, and the
    elapsed times give the engine's speedup on the Table-4 workload.
    """

    def experiment():
        import time

        graph = weighted_dataset("nethept", LT)
        spreads = {}
        engine_times = {}
        seeds = {}
        for engine, algo in (
            ("legacy", LegacyLDAG()),
            ("flat", registry.make("LDAG")),
        ):
            start = time.perf_counter()
            res = algo.select(graph, 25, LT, rng=np.random.default_rng(3))
            engine_times[engine] = time.perf_counter() - start
            seeds[engine] = res.seeds
        spreads["LDAG"] = evaluate_spread(graph, seeds["flat"], LT).mean
        res = registry.make("SIMPATH").select(
            graph, 25, LT, rng=np.random.default_rng(3)
        )
        spreads["SIMPATH"] = evaluate_spread(graph, res.seeds, LT).mean
        return spreads, engine_times, seeds

    spreads, engine_times, seeds = once(benchmark, experiment)
    speedup = engine_times["legacy"] / engine_times["flat"]
    emit(
        "fig10ab_quality_parity",
        "\n".join(f"{n}: spread {v:.1f}" for n, v in spreads.items())
        + (
            f"\nLDAG path engine: legacy {engine_times['legacy']:.2f}s, "
            f"flat {engine_times['flat']:.2f}s (x{speedup:.2f}), "
            f"identical seeds: {seeds['flat'] == seeds['legacy']}"
        ),
    )
    assert seeds["flat"] == seeds["legacy"]
    assert abs(spreads["LDAG"] - spreads["SIMPATH"]) < 0.2 * max(
        spreads.values()
    )
