"""The GREEDY hill-climbing algorithm of Kempe et al. (Alg. 2).

Iteratively adds the node with the largest estimated marginal gain
σ(S ∪ {v}) − σ(S).  Provides the (1 − 1/e − ε) guarantee of Theorem 2 but
is non-scalable: every iteration re-estimates the spread of every node
(the paper benchmarks CELF/CELF++ instead for exactly this reason).

Gains are served by a pluggable :class:`~repro.diffusion.oracle.SpreadOracle`
(``spread_oracle=None`` runs one fresh Monte-Carlo estimate per gain on
the caller's RNG).  With the ``sketch`` backend, nodes
whose reach upper bound cannot beat the iteration's running best are
skipped without evaluation.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..diffusion.models import Dynamics, PropagationModel
from ..diffusion.simulation import DEFAULT_MC_SIMULATIONS
from ..graph.digraph import DiGraph
from .base import Budget, IMAlgorithm, SpreadOracleMixin

__all__ = ["Greedy"]


def _tele():
    # Lazy: algorithms are imported by the registry during framework
    # import, so a top-level framework import here would be circular.
    from ..framework.telemetry import current

    return current()


class Greedy(SpreadOracleMixin, IMAlgorithm):
    """Kempe et al.'s GREEDY with ``r`` MC simulations per estimate."""

    name = "GREEDY"
    supported = (Dynamics.IC, Dynamics.LT)
    external_parameter = "#MC Simulations"

    def __init__(
        self,
        mc_simulations: int = DEFAULT_MC_SIMULATIONS,
        spread_oracle: str | None = None,
        mc_workers: int | None = None,
    ) -> None:
        self._init_oracle(mc_simulations, spread_oracle, mc_workers)

    def _select(
        self,
        graph: DiGraph,
        k: int,
        model: PropagationModel,
        rng: np.random.Generator,
        budget: Budget | None,
    ) -> tuple[list[int], dict[str, Any]]:
        oracle, cache = self._build_oracle(graph, model, rng, budget)
        tele = _tele()
        seeds: list[int] = []
        in_seed = np.zeros(graph.n, dtype=bool)
        lookups: list[int] = []
        bound_skips = 0
        with tele.span("greedy.hill_climb"):
            for __ in range(k):
                best_v, best_gain = -1, -np.inf
                before = cache.misses
                for v in range(graph.n):
                    if in_seed[v]:
                        continue
                    if oracle.provides_bounds and oracle.gain_bound(v) <= best_gain:
                        bound_skips += 1
                        continue
                    self._tick(budget)
                    gain = cache.gain(oracle, v)
                    if gain > best_gain:
                        best_gain, best_v = gain, v
                seeds.append(best_v)
                in_seed[best_v] = True
                oracle.commit(best_v, best_gain)
                # True evaluations this iteration (memo hits don't count) —
                # the M1 "node lookups" metric of Appendix C.
                lookups.append(cache.misses - before)
        tele.count("greedy.iterations", len(seeds))
        return seeds, {
            "node_lookups_per_iteration": lookups,
            "estimated_spread": oracle.committed_sigma,
            "bound_skips": bound_skips,
            **self._oracle_extras(oracle, cache),
        }
