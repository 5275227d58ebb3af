"""The per-cascade Monte-Carlo loop and the threshold-form LT simulator.

:func:`repro.diffusion.simulation.cascade_sizes` replaced a Python loop
of one :func:`simulate_spread` call per cascade with a batched kernel
that grows a whole batch of cascades per numpy pass, and runs LT in its
live-edge form instead of drawing thresholds.  The kernel consumes the
RNG in another order, so the two agree only in distribution:
``tests/test_spread_statistical.py`` compares their samples by KS and
their means against the exhaustive oracle.  :class:`LoopMCOracle` runs
CELF's ``serial`` backend on this loop, the baseline of
``benchmarks/bench_spread_engine.py``.
"""

from __future__ import annotations

import numpy as np

from repro.diffusion._frontier import expand_slices
from repro.diffusion.independent_cascade import simulate_ic
from repro.diffusion.models import Dynamics, PropagationModel
from repro.diffusion.oracle import SequentialMCOracle
from repro.graph.digraph import DiGraph

__all__ = ["LoopMCOracle", "simulate_lt", "simulate_spread", "spread_samples"]


def simulate_lt(
    graph: DiGraph,
    seeds: np.ndarray | list[int],
    rng: np.random.Generator,
    thresholds: np.ndarray | None = None,
) -> np.ndarray:
    """Run one LT cascade from ``seeds``; return the active-node mask Va.

    ``thresholds`` may be supplied to share one threshold realization across
    calls (used by tests that check the live-edge equivalence); by default a
    fresh θ ~ U(0,1)^n is drawn per cascade, as the paper's setup specifies.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    active = np.zeros(graph.n, dtype=bool)
    if seeds.size == 0:
        return active
    if thresholds is None:
        theta = rng.random(graph.n)
    else:
        theta = np.asarray(thresholds, dtype=np.float64)
        if theta.shape[0] != graph.n:
            raise ValueError("thresholds must have one entry per node")

    accumulated = np.zeros(graph.n, dtype=np.float64)
    active[seeds] = True
    frontier = np.unique(seeds)
    out_dst, out_w, out_ptr = graph.out_dst, graph.out_w, graph.out_ptr
    while frontier.size:
        eidx = expand_slices(out_ptr, frontier)
        if eidx.size == 0:
            break
        dst = out_dst[eidx]
        # Each active node's weight counts exactly once: frontier nodes are
        # newly active and never re-enter the frontier.
        np.add.at(accumulated, dst, out_w[eidx])
        candidates = np.unique(dst)
        hit = candidates[
            ~active[candidates] & (accumulated[candidates] >= theta[candidates])
        ]
        if hit.size == 0:
            break
        frontier = hit
        active[frontier] = True
    return active


def simulate_spread(
    graph: DiGraph,
    seeds: np.ndarray | list[int],
    dynamics: Dynamics,
    rng: np.random.Generator,
) -> int:
    """One realization of Γ(S) under the given dynamics (Alg. 1)."""
    if dynamics is Dynamics.IC:
        active = simulate_ic(graph, seeds, rng)
    elif dynamics is Dynamics.LT:
        active = simulate_lt(graph, seeds, rng)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unsupported dynamics {dynamics!r}")
    return int(active.sum())


def spread_samples(
    graph: DiGraph,
    seeds: np.ndarray | list[int],
    dynamics: Dynamics,
    r: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``r`` samples of Γ(S), one :func:`simulate_spread` call each."""
    out = np.empty(r, dtype=np.float64)
    for i in range(r):
        out[i] = simulate_spread(graph, seeds, dynamics, rng)
    return out


class LoopMCOracle(SequentialMCOracle):
    """The ``serial`` spread oracle on the per-cascade loop."""

    def evaluate(self, nodes) -> float:
        self._tick_evaluation()
        model = self.model
        dynamics = model.dynamics if isinstance(model, PropagationModel) else model
        return float(
            spread_samples(self.graph, list(nodes), dynamics, self.r, self.rng).mean()
        )
