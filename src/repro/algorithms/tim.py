"""TIM+ — Two-phase Influence Maximization (Tang, Xiao & Shi, SIGMOD'14).

Sec. 4.2 of the benchmarking paper.  Phase 1 estimates KPT (the expected
cascade cost of a random size-k seed set) and refines it to KPT+ with an
intermediate greedy pass; phase 2 samples θ = λ/KPT+ RR sets and greedily
max-covers them, giving a (1 − 1/e − ε) guarantee w.p. 1 − 1/n^ℓ.

Benchmark-relevant behaviours reproduced deliberately:

* The *reported* spread is the coverage extrapolation ``F(S)·n`` — the
  quantity the released TIM+ code prints (Appendix A), which the paper's
  myth M4 shows is inflated and *grows* with ε.  True σ(S) must be
  computed by MC simulation, as the benchmarking framework does.
* Under constant-weight IC on dense graphs the RR sets are huge, which is
  the memory blow-up of Figs. 1a/8 and M6; a memory budget turns that
  into a ``CRASHED`` status.

The knobs (``epsilon``, ``ell``, ``rr_scale``, ``max_rr_sets``,
``rr_workers``) are :class:`~repro.algorithms.ris.EpsilonRR`'s;
``rr_scale`` scales θ and the KPT-estimation batch sizes alike.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..diffusion.models import Dynamics, PropagationModel
from ..diffusion.rrpool import FlatRRPool
from ..graph.digraph import DiGraph
from .base import Budget
from .ris import EpsilonRR, cover, log_comb

__all__ = ["TIMPlus"]


class TIMPlus(EpsilonRR):
    """TIM+ with the KPT refinement step of the original paper."""

    name = "TIM+"

    def _kpt_estimation(
        self,
        graph: DiGraph,
        k: int,
        dynamics: Dynamics,
        rng: np.random.Generator,
        budget: Budget | None,
        pool: FlatRRPool,
    ) -> float:
        """Alg. 2 of the TIM paper: iterative-halving estimate of KPT."""
        n, m = graph.n, graph.m
        if m == 0:
            return 1.0
        log_n = math.log(max(n, 2))
        max_i = max(int(math.log2(max(n, 2))) - 1, 1)
        for i in range(1, max_i + 1):
            ci = self._cap((6 * self.ell * log_n + 6 * math.log(max_i + 1)) * 2**i)
            start = len(pool)
            self._sample(graph, dynamics, start + ci, rng, budget, pool)
            # kappa per sample, vectorized over the batch's widths.
            widths = pool.widths[start : start + ci].astype(np.float64)
            total = float(np.sum(1.0 - (1.0 - widths / m) ** k))
            if total / ci > 1.0 / 2**i:
                return max(n * total / (2.0 * ci), 1.0)
        return 1.0

    def _refine_kpt(
        self,
        graph: DiGraph,
        k: int,
        dynamics: Dynamics,
        kpt: float,
        rng: np.random.Generator,
        budget: Budget | None,
        pool: FlatRRPool,
    ) -> float:
        """Alg. 3 of the TIM paper: tighten KPT with an intermediate greedy."""
        n = graph.n
        log_n = math.log(max(n, 2))
        seeds, __ = cover(pool, graph, k, budget)
        eps_prime = 5.0 * (self.ell * self.epsilon**2 / (k + self.ell)) ** (1.0 / 3.0)
        theta_prime = self._cap(
            (2 + eps_prime) * self.ell * n * log_n / (eps_prime**2 * kpt)
        )
        probe = self._sample(graph, dynamics, theta_prime, rng, budget)
        fraction = probe.coverage_fraction(seeds)
        kpt_plus = fraction * n / (1.0 + eps_prime)
        return max(kpt_plus, kpt)

    # ------------------------------------------------------------------

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
        log_n = math.log(max(n, 2))
        pool = FlatRRPool(graph.n)
        kpt = self._kpt_estimation(graph, k, model.dynamics, rng, budget, pool)
        kpt_plus = self._refine_kpt(graph, k, model.dynamics, kpt, rng, budget, pool)

        lam = (
            (8 + 2 * self.epsilon)
            * n
            * (self.ell * log_n + log_comb(n, k) + math.log(2))
            / self.epsilon**2
        )
        theta = self._cap(lam / kpt_plus)
        final = self._sample(graph, model.dynamics, theta, rng, budget)
        seeds, coverage = cover(final, graph, k, budget)
        return seeds, {
            "kpt": kpt,
            "kpt_plus": kpt_plus,
            "theta": theta,
            "num_rr_sets": len(final),
            "coverage_fraction": coverage,
            "extrapolated_spread": coverage * n,
            "epsilon": self.epsilon,
            "rr_pool_bytes": final.nbytes,
        }
