"""CELF and CELF++ — lazy-forward greedy (Sec. 4.1).

Both exploit submodularity: a node's marginal gain can only shrink as the
seed set grows, so a stale queue entry whose cached gain already trails the
current best need never be re-evaluated.

* CELF (Leskovec et al., KDD'07) keeps one cached gain per node.
* CELF++ (Goyal et al., WWW'11) additionally caches ``mg2`` — the node's
  marginal gain w.r.t. S ∪ {prev_best} — so that when ``prev_best`` is the
  seed just picked, the fresh gain is available without re-simulating.

Myth M1 machinery: both classes count *node lookups* (spread estimations)
per iteration, the execution-environment-independent metric of Appendix C.
CELF++'s look-ahead costs extra simulation work per lookup, which is why
its wall-clock time ends up on par with CELF despite slightly fewer
lookups — the behaviour the paper demonstrates in Figs. 9a-b/13.

Gain queries go through a pluggable spread oracle plus a marginal-gain
memo (:mod:`repro.diffusion.oracle`).  With a deterministic backend the
memo turns repeated (seed set, node) queries — including CELF++-style
look-ahead gains resurfacing later — into cache hits, so ``lookups``
counts true evaluations.  ``spread_oracle=None`` runs one fresh
Monte-Carlo estimate per gain on the caller's RNG (the ``serial``
backend).  The ``sketch`` backend lets CELF
seed its queue from reach upper bounds instead of an n-node evaluation
scan (the first pop of each bound entry triggers the real evaluation).

:func:`lazy_forward` is the one lazy-forward queue of the package: CELF,
CELF++, StaticGreedy (CELF over the snapshot oracle), PMC and SIMPATH
differ only in the gain they evaluate and what picking a seed commits.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Sequence

import numpy as np

from ..diffusion.models import Dynamics, PropagationModel
from ..diffusion.simulation import DEFAULT_MC_SIMULATIONS
from ..graph.digraph import DiGraph
from .base import Budget, IMAlgorithm, SpreadOracleMixin

__all__ = ["CELF", "CELFpp", "lazy_forward"]


def _tele():
    # Lazy: algorithms are imported by the registry during framework
    # import, so a top-level framework import here would be circular.
    from ..framework.telemetry import current

    return current()


def lazy_forward(
    gains: Sequence[float],
    k: int,
    evaluate: Callable[[int], float],
    commit: Callable[[int, float], None],
    *,
    first_round: int = 0,
    lookahead: int = 1,
) -> list[int]:
    """Lazy-forward greedy over initial per-node ``gains``; returns the seeds.

    The heap holds ``(-gain, counter, node, round)``, one entry per node: a
    pop either picks the node or pushes its re-scored entry.  An entry
    computed in the current round (``round == len(seeds)``) is picked and
    ``commit(node, gain)`` runs; any other is re-scored by ``evaluate``
    together with the next ``lookahead - 1`` entries, and the results are
    pushed back with the current round.  ``first_round=-1`` marks the
    initial values as upper bounds, so each is evaluated before it can be
    picked.

    The counter makes every key unique, so the pop sequence — and thus
    every tie-break — is the same as pushing the entries one by one.
    """
    counter = itertools.count()
    heap = [(-g, next(counter), v, first_round) for v, g in enumerate(gains)]
    heapq.heapify(heap)
    seeds: list[int] = []
    while heap and len(seeds) < k:
        neg_gain, __, v, round_tag = heapq.heappop(heap)
        if round_tag == len(seeds):
            seeds.append(v)
            commit(v, -neg_gain)
            continue
        batch = [v]
        while heap and len(batch) < lookahead:
            batch.append(heapq.heappop(heap)[2])
        for u in batch:
            heapq.heappush(heap, (-evaluate(u), next(counter), u, len(seeds)))
    return seeds


class CELF(SpreadOracleMixin, IMAlgorithm):
    """Cost-Effective Lazy Forward selection."""

    name = "CELF"
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
        lookups = [0]

        def evaluate(v: int) -> float:
            self._tick(budget)
            before = cache.misses
            gain = cache.gain(oracle, v)
            lookups[-1] += cache.misses - before
            return gain

        def commit(v: int, gain: float) -> None:
            oracle.commit(v, gain)
            if len(lookups) < k:
                lookups.append(0)

        with tele.span("celf.build_queue"):
            if oracle.provides_bounds:
                # Sketch backend: cheap upper bounds; each bound's first pop
                # evaluates for real.
                gains = [oracle.gain_bound(v) for v in range(graph.n)]
            else:
                gains = [evaluate(v) for v in range(graph.n)]
        with tele.span("celf.lazy_forward"):
            seeds = lazy_forward(
                gains, k, evaluate, commit,
                first_round=-1 if oracle.provides_bounds else 0,
            )
        return seeds, {
            "node_lookups_per_iteration": lookups[: max(len(seeds), 1)],
            "estimated_spread": oracle.committed_sigma,
            **self._oracle_extras(oracle, cache),
        }


class CELFpp(SpreadOracleMixin, IMAlgorithm):
    """CELF++ with the prev-best look-ahead optimization."""

    name = "CELF++"
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
        # Per-node state of the node's queue entry: prev_best (the best
        # node seen when its gain was computed), mg2 (its gain wrt
        # S + prev_best) and flag (|S| at computation time).
        mg2 = np.zeros(graph.n, dtype=np.float64)
        prev_best = np.full(graph.n, -1, dtype=np.int64)
        flag = np.zeros(graph.n, dtype=np.int64)
        lookups = [0]
        rounds, last_seed = 0, -1
        cur_best, cur_best_gain = -1, -np.inf

        def evaluate(v: int) -> float:
            nonlocal cur_best, cur_best_gain
            if prev_best[v] == last_seed and flag[v] == rounds - 1:
                # The saving: mg2 was computed against exactly this seed set.
                # With a deterministic backend the look-ahead landed in the
                # memo under this very (seed set, node) key, so the same
                # answer comes back as a hit — still zero true evaluations.
                gain = cache.gain(oracle, v) if oracle.deterministic else mg2[v]
            else:
                self._tick(budget)
                before = cache.misses
                gain = cache.gain(oracle, v)
                lookups[-1] += cache.misses - before
                prev_best[v] = cur_best
                if cur_best >= 0 and cur_best != v:
                    # Look-ahead: gain of v given the current front-runner is
                    # also computed now — the extra work CELF++ banks on.  Via
                    # the memo it becomes the hit serving v's next re-lookup.
                    mg2[v] = cache.gain(
                        oracle, v, extra=[cur_best], extra_gain=cur_best_gain
                    )
                else:
                    mg2[v] = gain
            flag[v] = rounds
            if gain > cur_best_gain:
                cur_best_gain, cur_best = gain, v
            return gain

        def commit(v: int, gain: float) -> None:
            nonlocal rounds, last_seed, cur_best, cur_best_gain
            oracle.commit(v, gain)
            rounds, last_seed = rounds + 1, v
            cur_best, cur_best_gain = -1, -np.inf
            if len(lookups) < k:
                lookups.append(0)

        with tele.span("celfpp.build_queue"):
            gains = [evaluate(v) for v in range(graph.n)]
        with tele.span("celfpp.lazy_forward"):
            seeds = lazy_forward(gains, k, evaluate, commit)
        return seeds, {
            "node_lookups_per_iteration": lookups[: max(len(seeds), 1)],
            "estimated_spread": oracle.committed_sigma,
            **self._oracle_extras(oracle, cache),
        }
