"""Myth M6 hands-on: "WC is equivalent to IC" — it is not.

WC *is* an instance of the Independent Cascade dynamics, but with weights
1/|In(v)| instead of a constant: low-degree users become easy targets and
hubs become hard ones.  This example runs the same technique on the same
topology under IC (W = 0.1), WC and LT and shows how the chosen seeds,
the reached audience and the cost all change — the reason benchmark
claims about "IC" made only under WC do not transfer.

Run with:  python examples/model_sensitivity.py
"""

import numpy as np

from repro import algorithms, datasets, diffusion


def main() -> None:
    topology = datasets.load("hepph")
    k = 15
    print(f"Topology: {topology}; k = {k}; technique: EaSyIM\n")
    print(f"{'Model':<6} {'Seeds (top 5)':<28} {'Spread':>8} {'% nodes':>8} "
          f"{'Time (s)':>9}")
    print("-" * 64)

    seed_sets = {}
    for model in diffusion.STANDARD_MODELS:
        graph = model.weighted(topology, np.random.default_rng(0))
        algo = algorithms.make("EaSyIM", path_length=3)
        result = algo.select(graph, k, model, rng=np.random.default_rng(1))
        estimate = diffusion.monte_carlo_spread(
            graph, result.seeds, model, r=1000, rng=np.random.default_rng(2)
        )
        seed_sets[model.name] = set(result.seeds)
        print(
            f"{model.name:<6} {str(result.seeds[:5]):<28} "
            f"{estimate.mean:>8.1f} {100 * estimate.mean / graph.n:>7.1f}% "
            f"{result.elapsed_seconds:>9.3f}"
        )

    overlap = seed_sets["IC"] & seed_sets["WC"]
    print(
        f"\nIC and WC agree on {len(overlap)}/{k} seeds — same dynamics, "
        f"different model. Claims proven only under WC say little about IC."
    )

    # The blow-up mechanism behind Figs. 1a/8: RR-set sizes under IC vs WC.
    rng = np.random.default_rng(3)
    for model in (diffusion.IC, diffusion.WC):
        graph = model.weighted(topology)
        roots = rng.integers(0, graph.n, size=200)
        sizes, __, __ = diffusion.sample_rr_sets(graph, model.dynamics, roots, rng)
        print(
            f"Average RR-set size under {model.name}: {np.mean(sizes):8.1f} "
            f"nodes (max {max(sizes)})"
        )
    print(
        "Constant-weight IC on a dense graph is epidemic: every RR set "
        "swallows a chunk of the graph, which is exactly why TIM+/IMM "
        "exhaust memory under IC while cruising under WC."
    )


if __name__ == "__main__":
    main()
