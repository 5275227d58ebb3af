"""SIMPATH (Goyal, Lu & Lakshmanan, ICDM'11) — LT-only path enumeration.

Under LT, the spread of a set decomposes over simple paths:

    σ(S) = Σ_{u ∈ S} σ^{V−S+u}(u),   σ^W(u) = Σ_{simple paths P from u in W} weight(P)

(the empty path contributes 1 — the seed itself).  SIMPATH-SPREAD
enumerates simple paths by backtracking DFS, pruning any prefix whose
weight falls below η (default 1e-3).  The enumeration keeps its prefix
bookkeeping in flat parallel stacks (node / cursor / slice end / prefix
weight indexed by depth) rather than per-frame objects.

Seed selection runs on CELF's lazy-forward queue
(:func:`repro.algorithms.celf.lazy_forward`) with two of the original's
optimizations:

* shared through-counts: while computing σ(S) once per iteration, the
  weight of the paths passing through every node x is accumulated, so
  σ^{V−x}(S) = σ(S) − through(x) comes for free;
* look-ahead: the top-ℓ queue candidates are (re-)evaluated per iteration.

The original's third optimization, the vertex-cover start-up, is
available as an opt-in (``vertex_cover=True``): only nodes of a
deterministic maximal-matching cover C are enumerated directly, and for
u ∉ C (whose out-neighbors all lie in C)

    σ(u) = 1 + Σ_{(u,v) ∈ E} w(u,v) · (σ(v) − through_v(u)),

with through_v(u) collected during v's enumeration.  It stays off by
default because the η-pruning then happens from v's perspective (paths
are kept when their v-suffix clears η, not the full u-path), which
perturbs the initial CELF ranking — opting in trades byte-identical
seeds for skipping the |V| − |C| start-up enumerations.  ``path_workers``
fans the start-up σ pass over a process pool (the per-source
enumerations are independent and deterministic, so the result is
identical at any worker count).

The behaviour the paper diagnoses in M5 is reproduced: under LT-uniform
the edge weights are large on low-degree graphs, the pruned path forest
explodes, and SIMPATH falls far behind LDAG — it only looks competitive
under the parallel-edges LT weighting of its own evaluation.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..diffusion.models import Dynamics, PropagationModel
from ..diffusion.paths import _worker_chunks
from ..graph.digraph import DiGraph
from .base import Budget, IMAlgorithm
from .celf import lazy_forward

__all__ = ["SIMPATH", "simpath_spread", "vertex_cover"]


def simpath_spread(
    graph: DiGraph,
    source: int,
    allowed: np.ndarray,
    eta: float,
    through: np.ndarray | None = None,
    budget: Any = None,
) -> float:
    """σ^W(source): total weight of simple paths from ``source`` within W.

    ``allowed`` masks W (the source itself need not be in it).  When
    ``through`` is given, the weight of every enumerated path is added to
    ``through[x]`` for each non-source node x on it.
    """
    total = 1.0
    out_ptr, out_dst, out_w = graph.out_ptr, graph.out_dst, graph.out_w
    on_path = bytearray(graph.n)
    on_path[source] = 1
    # Flat parallel stacks indexed by depth; slots are reused across
    # backtracks instead of being reallocated.  ``path`` holds the nodes
    # of the current prefix in order.
    s_node = [source]
    s_cur = [int(out_ptr[source])]
    s_hi = [int(out_ptr[source + 1])]
    s_w = [1.0]
    path = [source]
    depth = 0
    steps = 0
    while depth >= 0:
        cursor = s_cur[depth]
        hi = s_hi[depth]
        weight = s_w[depth]
        advanced = False
        while cursor < hi:
            steps += 1
            if budget is not None and steps % 4096 == 0:
                budget.check()
            v = int(out_dst[cursor])
            pw = weight * float(out_w[cursor])
            cursor += 1
            if not allowed[v] or on_path[v] or pw < eta:
                continue
            total += pw
            if through is not None:
                # The whole path (source excluded) carries this weight:
                # removing any of its nodes removes the path.
                for x in path[1:]:
                    through[x] += pw
                through[v] += pw
            s_cur[depth] = cursor
            on_path[v] = 1
            depth += 1
            if depth == len(s_node):
                s_node.append(v)
                s_cur.append(int(out_ptr[v]))
                s_hi.append(int(out_ptr[v + 1]))
                s_w.append(pw)
            else:
                s_node[depth] = v
                s_cur[depth] = int(out_ptr[v])
                s_hi[depth] = int(out_ptr[v + 1])
                s_w[depth] = pw
            path.append(v)
            advanced = True
            break
        if not advanced:
            on_path[s_node[depth]] = 0
            path.pop()
            depth -= 1
    return total


def vertex_cover(graph: DiGraph) -> np.ndarray:
    """Deterministic maximal-matching vertex cover (boolean mask).

    Edges are scanned in CSR order; whenever neither endpoint is covered
    yet, both join the cover.  Every edge therefore has at least one
    covered endpoint, so the complement is an independent set whose
    out-neighbors all lie in the cover.
    """
    cov = bytearray(graph.n)
    ptr = graph.out_ptr.tolist()
    dst = graph.out_dst.tolist()
    for u in range(graph.n):
        for e in range(ptr[u], ptr[u + 1]):
            if cov[u]:
                break
            v = dst[e]
            if not cov[v]:
                cov[u] = 1
                cov[v] = 1
    return np.frombuffer(bytes(cov), dtype=np.uint8).astype(bool)


def _sigma_plain(graph: DiGraph, eta: float, nodes: np.ndarray,
                 budget: Any = None) -> np.ndarray:
    """σ(v) for each v in ``nodes`` over the full graph (worker-safe).

    Chunk-invariant operands lead — the pool's shared-args convention,
    so the graph ships once per worker (shm arena when big enough).
    """
    allowed = np.ones(graph.n, dtype=bool)
    return np.array([
        simpath_spread(graph, int(v), allowed, eta, budget=budget)
        for v in nodes
    ], dtype=np.float64)


def _sigma_cover(graph: DiGraph, eta: float, cov: np.ndarray,
                 vnodes: np.ndarray, budget: Any = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """σ(v) for covered nodes plus the independent-set contributions.

    Returns ``(sigmas, contrib)`` where ``contrib[u]`` accumulates
    ``w(u,v) · (σ(v) − through_v(u))`` over the processed v for every
    uncovered in-neighbor u — summable across chunks, so the pass fans
    out cleanly.  Chunk-invariant operands lead (shared-args convention).
    """
    n = graph.n
    allowed = np.ones(n, dtype=bool)
    in_ptr, in_src, in_w = graph.in_ptr, graph.in_src, graph.in_w
    sig = np.zeros(len(vnodes), dtype=np.float64)
    contrib = np.zeros(n, dtype=np.float64)
    tv = np.zeros(n, dtype=np.float64)
    for i, v in enumerate(vnodes):
        v = int(v)
        tv[:] = 0.0
        sv = simpath_spread(graph, v, allowed, eta, through=tv, budget=budget)
        sig[i] = sv
        lo, hi = int(in_ptr[v]), int(in_ptr[v + 1])
        us = in_src[lo:hi]
        keep = ~cov[us]
        if keep.any():
            um = us[keep]
            contrib[um] += in_w[lo:hi][keep] * (sv - tv[um])
    return sig, contrib


class SIMPATH(IMAlgorithm):
    """CELF-style greedy over SIMPATH-SPREAD evaluations."""

    name = "SIMPATH"
    supported = (Dynamics.LT,)
    external_parameter = None

    def __init__(self, eta: float = 1e-3, lookahead: int = 4,
                 vertex_cover: bool = False,
                 path_workers: int | None = None) -> None:
        if not 0.0 < eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if lookahead < 1:
            raise ValueError("lookahead must be positive")
        self.eta = eta
        self.lookahead = lookahead
        self.vertex_cover = vertex_cover
        self.path_workers = path_workers

    def _initial_sigmas(self, graph: DiGraph, budget: Budget | None) -> np.ndarray:
        """The start-up σ(v) pass: direct, cover-based, and/or fanned out."""
        n = graph.n
        workers = self.path_workers
        if self.vertex_cover:
            cov = vertex_cover(graph)
            vnodes = np.flatnonzero(cov)
            sigma = np.ones(n, dtype=np.float64)  # the empty path
            if workers is not None and workers > 1 and vnodes.size > 1:
                from ..framework.pool import run_chunks  # lazy: import cycle

                spans = _worker_chunks(vnodes.size, workers)
                parts = run_chunks(
                    _sigma_cover,
                    [(vnodes[lo:hi],) for lo, hi in spans],
                    workers=len(spans),
                    label="simpath.sigma_cover",
                    tick=lambda: self._tick(budget),
                    shared=(graph, self.eta, cov),
                )
                contrib = np.zeros(n, dtype=np.float64)
                for __, part in parts:
                    contrib += part
                sigma[vnodes] = np.concatenate([sig for sig, __ in parts])
            else:
                sig, contrib = _sigma_cover(graph, self.eta, cov, vnodes,
                                            budget=budget)
                sigma[vnodes] = sig
            rest = ~cov
            sigma[rest] += contrib[rest]
            return sigma
        if workers is not None and workers > 1 and n > 1:
            from ..framework.pool import run_chunks  # lazy: import cycle

            spans = _worker_chunks(n, workers)
            nodes = np.arange(n, dtype=np.int64)
            parts = run_chunks(
                _sigma_plain,
                [(nodes[lo:hi],) for lo, hi in spans],
                workers=len(spans),
                label="simpath.sigma_plain",
                tick=lambda: self._tick(budget),
                shared=(graph, self.eta),
            )
            return np.concatenate(parts)
        allowed = np.ones(n, dtype=bool)
        sigma = np.zeros(n, dtype=np.float64)
        for v in range(n):
            self._tick(budget)
            sigma[v] = simpath_spread(graph, v, allowed, self.eta, budget=budget)
        return sigma

    def _select(
        self,
        graph: DiGraph,
        k: int,
        model: PropagationModel,
        rng: np.random.Generator,
        budget: Budget | None,
    ) -> tuple[list[int], dict[str, Any]]:
        n = graph.n
        allowed = np.ones(n, dtype=bool)  # V − S
        chosen: list[int] = []
        sigma_s = 0.0
        through = np.zeros(n, dtype=np.float64)

        def evaluate(x: int) -> float:
            self._tick(budget)
            sigma_x = simpath_spread(graph, x, allowed, self.eta, budget=budget)
            # σ(S + x) = σ^{V−x}(S) + σ^{V−S}(x)
            return (sigma_s - through[x] + sigma_x) - sigma_s

        def commit(v: int, gain: float) -> None:
            nonlocal sigma_s
            chosen.append(v)
            allowed[v] = False
            if len(chosen) < k:
                # One σ(S) pass with through-counts for the next round.
                through[:] = 0.0
                sigma_s = 0.0
                for u in chosen:
                    self._tick(budget)
                    sigma_s += simpath_spread(
                        graph, u, allowed, self.eta, through=through, budget=budget
                    )

        seeds = lazy_forward(
            self._initial_sigmas(graph, budget), k, evaluate, commit,
            lookahead=self.lookahead,
        )
        return seeds, {
            "eta": self.eta,
            "lookahead": self.lookahead,
            "vertex_cover": self.vertex_cover,
        }
