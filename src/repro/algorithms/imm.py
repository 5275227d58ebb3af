"""IMM — Influence Maximization via Martingales (Tang, Shi & Xiao, SIGMOD'15).

Sec. 4.2 of the benchmarking paper.  IMM replaces TIM+'s KPT estimation
with a martingale-based search for a lower bound LB on OPT: it repeatedly
doubles the RR pool, runs greedy max-cover, and stops as soon as the
covered fraction certifies LB; then it tops the pool up to θ = λ*/LB and
returns the final max-cover seeds.  Crucially, the pool is *reused* across
phases (the martingale argument makes that sound), which is where its
speed-up over TIM+ comes from.

As with TIM+, the spread this algorithm itself reports is the coverage
extrapolation (myth M4 / Appendix A): inflated, and increasingly so at
larger ε because smaller pools over-fit the selected seeds.  The knobs
are :class:`~repro.algorithms.ris.EpsilonRR`'s, as for TIM+.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..diffusion.models import PropagationModel
from ..diffusion.rrpool import FlatRRPool
from ..graph.digraph import DiGraph
from .base import Budget
from .ris import EpsilonRR, cover, log_comb

__all__ = ["IMM"]


class IMM(EpsilonRR):
    """IMM with martingale-based sampling (Alg. 3 of the IMM paper)."""

    name = "IMM"

    def _select(
        self,
        graph: DiGraph,
        k: int,
        model: PropagationModel,
        rng: np.random.Generator,
        budget: Budget | None,
    ) -> tuple[list[int], dict[str, Any]]:
        if k == 0:
            return [], {"num_rr_sets": 0, "extrapolated_spread": 0.0}
        n = graph.n
        eps = self.epsilon
        log_n = math.log(max(n, 2))
        lcnk = log_comb(n, k)
        # ell is boosted so the union bound over both phases still gives
        # success probability 1 - 1/n^ell (IMM paper, Sec. 4.3).
        ell = self.ell * (1.0 + math.log(2) / log_n)

        eps_prime = math.sqrt(2.0) * eps
        lambda_prime = (
            (2.0 + 2.0 * eps_prime / 3.0)
            * (lcnk + ell * log_n + math.log(max(math.log2(max(n, 2)), 1.0)))
            * n
            / eps_prime**2
        )
        one_minus_inv_e = 1.0 - 1.0 / math.e
        alpha = math.sqrt(ell * log_n + math.log(2))
        beta = math.sqrt(one_minus_inv_e * (lcnk + ell * log_n + math.log(2)))
        lambda_star = 2.0 * n * (one_minus_inv_e * alpha + beta) ** 2 / eps**2

        pool = FlatRRPool(graph.n)
        lower_bound = 1.0
        phases = 0
        max_i = max(int(math.ceil(math.log2(max(n, 2)))) - 1, 1)
        for i in range(1, max_i + 1):
            phases = i
            x = n / 2.0**i
            theta_i = self._cap(lambda_prime / x)
            self._sample(graph, model.dynamics, theta_i, rng, budget, pool)
            __, coverage_i = cover(pool, graph, k, budget)
            if n * coverage_i >= (1.0 + eps_prime) * x:
                lower_bound = n * coverage_i / (1.0 + eps_prime)
                break

        theta = self._cap(lambda_star / lower_bound)
        self._sample(graph, model.dynamics, theta, rng, budget, pool)
        seeds, coverage = cover(pool, graph, k, budget)
        return seeds, {
            "lower_bound": lower_bound,
            "sampling_phases": phases,
            "theta": theta,
            "num_rr_sets": len(pool),
            "coverage_fraction": coverage,
            "extrapolated_spread": coverage * n,
            "epsilon": eps,
            "rr_pool_bytes": pool.nbytes,
        }
