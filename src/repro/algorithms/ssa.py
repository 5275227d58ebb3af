"""SSA / D-SSA — Stop-and-Stare (Nguyen, Thai & Dinh, SIGMOD'16).

The benchmarking paper singles this out as the "highly promising technique
... published in SIGMOD 2016. Unfortunately, we could not include the
technique in our study due to how recently it is published. Nonetheless,
our benchmarking study will also evolve with the inclusion of more recent
techniques" (Sec. 7).  This module is that evolution: the platform's
newest RR-set member, benchmarked against TIM+/IMM in
``benchmarks/bench_evolution_ssa.py``.

The stop-and-stare idea: instead of computing a worst-case pool size θ
up front (TIM+/IMM), repeatedly

1. *stop* — draw a pool Λ of RR sets and greedily max-cover it,
2. *stare* — draw an **independent** verification pool of equal size and
   re-estimate the candidate seed set's influence on it,
3. accept when the verification estimate is within (1 − ε₁) of the
   optimistic max-cover estimate (the coverage was not over-fit);
   otherwise double the pool and repeat.

``DSSA`` is the dynamic variant of the same loop: rather than discarding
the verification pool, it becomes the next iteration's selection pool
(halving the sampling cost), and the acceptance threshold adapts to the
measured gap — the paper's D-SSA behaviourally.  Both scale their initial
pool with ``rr_scale`` like TIM+/IMM.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..diffusion.models import Dynamics, PropagationModel
from ..diffusion.rrpool import FlatRRPool, greedy_max_cover
from ..graph.digraph import DiGraph
from .base import Budget, IMAlgorithm
from .ris import log_comb

__all__ = ["SSA", "DSSA"]


class SSA(IMAlgorithm):
    """Stop-and-Stare with independent verification pools."""

    name = "SSA"
    supported = (Dynamics.IC, Dynamics.LT)
    external_parameter = "epsilon"

    def __init__(
        self,
        epsilon: float = 0.5,
        ell: float = 1.0,
        rr_scale: float = 1.0,
        max_rr_sets: int | None = 2_000_000,
        rr_workers: int | None = None,
    ) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.epsilon = epsilon
        self.ell = ell
        self.rr_scale = rr_scale
        self.max_rr_sets = max_rr_sets
        self.rr_workers = rr_workers
        # The paper splits eps into (eps1, eps2, eps3) with
        # (1+eps1)(1+eps2)(1+eps3) <= 1+eps; the reference code uses an
        # even three-way split.
        self.eps1 = self.eps2 = self.eps3 = epsilon / 3.0

    def _initial_pool_size(self, n: int, k: int) -> int:
        lam = (
            (2.0 + 2.0 * self.eps3 / 3.0)
            * (log_comb(n, k) + self.ell * math.log(max(n, 2)) + math.log(2))
            / self.eps3**2
        )
        return self._cap(lam)

    def _cap(self, count: float) -> int:
        count = int(math.ceil(count * self.rr_scale))
        if self.max_rr_sets is not None:
            count = min(count, self.max_rr_sets)
        return max(count, 8)

    def _sample(
        self,
        graph: DiGraph,
        dynamics: Dynamics,
        count: int,
        rng: np.random.Generator,
        budget: Budget | None,
    ) -> FlatRRPool:
        pool = FlatRRPool(graph.n)
        pool.extend(
            graph, dynamics, count, rng, workers=self.rr_workers, budget=budget
        )
        return pool

    def _select(
        self,
        graph: DiGraph,
        k: int,
        model: PropagationModel,
        rng: np.random.Generator,
        budget: Budget | None,
    ) -> tuple[list[int], dict[str, Any]]:
        if k == 0:
            return [], {"num_rr_sets": 0}
        n = graph.n
        pool_size = self._initial_pool_size(n, k)
        max_pool = self._cap(
            8.0 * n * (math.log(max(n, 2)) + log_comb(n, k)) / self.epsilon**2
        )
        total_sampled = 0
        iterations = 0
        seeds: list[int] = []
        coverage = 0.0
        while True:
            iterations += 1
            self._tick(budget)
            selection = self._sample(graph, model.dynamics, pool_size, rng, budget)
            total_sampled += len(selection)
            seeds, coverage = greedy_max_cover(
                selection, k, pad_priority=graph.out_degree(), budget=budget
            )
            optimistic = coverage * n
            verification = self._sample(
                graph, model.dynamics, pool_size, rng, budget
            )
            total_sampled += len(verification)
            verified = verification.coverage_fraction(seeds) * n
            if verified >= (1.0 - self.eps1) * optimistic:
                break
            if pool_size >= max_pool:
                break  # theoretical cap reached: accept the current answer
            pool_size = min(2 * pool_size, max_pool)
        return seeds, {
            "num_rr_sets": total_sampled,
            "stare_iterations": iterations,
            "coverage_fraction": coverage,
            "extrapolated_spread": coverage * n,
            "epsilon": self.epsilon,
            "rr_pool_bytes": selection.nbytes + verification.nbytes,
        }


class DSSA(SSA):
    """Dynamic Stop-and-Stare: verification pools are recycled."""

    name = "D-SSA"

    def _select(
        self,
        graph: DiGraph,
        k: int,
        model: PropagationModel,
        rng: np.random.Generator,
        budget: Budget | None,
    ) -> tuple[list[int], dict[str, Any]]:
        if k == 0:
            return [], {"num_rr_sets": 0}
        n = graph.n
        pool_size = self._initial_pool_size(n, k)
        max_pool = self._cap(
            8.0 * n * (math.log(max(n, 2)) + log_comb(n, k)) / self.epsilon**2
        )
        selection = self._sample(graph, model.dynamics, pool_size, rng, budget)
        total_sampled = len(selection)
        iterations = 0
        seeds: list[int] = []
        coverage = 0.0
        while True:
            iterations += 1
            self._tick(budget)
            seeds, coverage = greedy_max_cover(
                selection, k, pad_priority=graph.out_degree(), budget=budget
            )
            optimistic = coverage * n
            verification = self._sample(
                graph, model.dynamics, len(selection), rng, budget
            )
            total_sampled += len(verification)
            verified = verification.coverage_fraction(seeds) * n
            if verified >= (1.0 - self.eps1) * optimistic:
                break
            if len(selection) >= max_pool:
                break
            # Dynamic step: the verification pool joins the selection pool
            # (the sampling effort is never wasted).
            selection.absorb(verification)
        return seeds, {
            "num_rr_sets": total_sampled,
            "stare_iterations": iterations,
            "coverage_fraction": coverage,
            "extrapolated_spread": coverage * n,
            "epsilon": self.epsilon,
            "rr_pool_bytes": selection.nbytes + verification.nbytes,
        }
