"""Per-root dict/heap path-proxy loops (PMIA, LDAG, IRIE).

These are the original implementations that
:mod:`repro.diffusion.paths` replaced: one Python ``dict`` + ``heapq``
bounded max-product Dijkstra per source, and dict-walking dynamic
programs per structure.  The ``Legacy*`` subclasses swap them into the
product techniques' greedy loops, so a test can compare seed sets of
``PMIA()`` and ``LegacyPMIA()`` on the same graph.
"""

from __future__ import annotations

import heapq
from typing import Any

import numpy as np

from repro.algorithms.base import Budget
from repro.algorithms.irie import IRIE
from repro.algorithms.ldag import LDAG
from repro.algorithms.pmia import PMIA
from repro.diffusion.models import PropagationModel
from repro.graph.digraph import DiGraph

__all__ = [
    "LegacyIRIE",
    "LegacyLDAG",
    "LegacyPMIA",
    "build_ldag",
    "build_miia",
    "max_probability_paths",
]


# ----------------------------------------------------------------------
# PMIA: maximum-influence in-arborescences

class _Arborescence:
    """MIIA(root, θ): parent pointers toward the root + processing order."""

    __slots__ = ("root", "order", "parent", "weight", "children", "ap", "alpha")

    def __init__(
        self,
        root: int,
        order: list[int],
        parent: dict[int, int],
        weight: dict[int, float],
    ) -> None:
        self.root = root
        #: Nodes sorted farthest-first (leaves before the root).
        self.order = order
        #: parent[u] = next hop from u toward the root (root absent).
        self.parent = parent
        #: weight[u] = W(u, parent[u]).
        self.weight = weight
        self.children: dict[int, list[int]] = {u: [] for u in order}
        for u, x in parent.items():
            self.children[x].append(u)
        self.ap: dict[int, float] = {}
        self.alpha: dict[int, float] = {}

    @property
    def nodes(self) -> set[int]:
        return set(self.order)


def build_miia(
    graph: DiGraph,
    root: int,
    theta: float,
    blocked: np.ndarray | None = None,
) -> _Arborescence:
    """Max-probability in-arborescence of ``root``, pruned below ``theta``.

    ``blocked`` marks nodes that may not appear as *interior* nodes (the
    prefix exclusion: chosen seeds block influence paths through them).
    """
    best: dict[int, float] = {root: 1.0}
    parent: dict[int, int] = {}
    weight: dict[int, float] = {}
    settle_order: list[int] = []
    heap: list[tuple[float, int]] = [(-1.0, root)]
    while heap:
        neg_pp, x = heapq.heappop(heap)
        pp = -neg_pp
        # A node is pushed once per strict improvement, so stale entries
        # carry a pp below the final best[x]; comparing against best skips
        # them without a separate settled set (pushed values are strictly
        # increasing, so the equality fires exactly once per node).
        if pp < best[x]:
            continue
        settle_order.append(x)
        if blocked is not None and blocked[x] and x != root:
            continue  # a seed conducts nothing further upstream
        src, w = graph.in_neighbors(x)
        for y, wy in zip(src, w):
            y = int(y)
            nxt = pp * float(wy)
            if nxt >= theta and nxt > best.get(y, 0.0):
                best[y] = nxt
                parent[y] = x
                weight[y] = float(wy)
                heapq.heappush(heap, (-nxt, y))
    # parent/weight were overwritten on every improvement, so they are
    # consistent with `best`; order leaves-first = reverse settle order.
    order = list(reversed(settle_order))
    return _Arborescence(root, order, parent, weight)


class LegacyPMIA(PMIA):
    """PMIA on per-root ``build_miia`` calls and dict tree DPs."""

    @staticmethod
    def _forward_ap(arb: _Arborescence, in_seed: np.ndarray) -> None:
        """Exact IC activation probability on the tree (leaves first)."""
        ap: dict[int, float] = {}
        for x in arb.order:
            if in_seed[x]:
                ap[x] = 1.0
                continue
            miss = 1.0
            for y in arb.children[x]:
                miss *= 1.0 - ap[y] * arb.weight[y]
            ap[x] = 1.0 - miss
        arb.ap = ap

    @staticmethod
    def _backward_alpha(arb: _Arborescence, in_seed: np.ndarray) -> None:
        """α(root, u) by the MIA recursion (root first)."""
        alpha: dict[int, float] = {u: 0.0 for u in arb.order}
        if in_seed[arb.root]:
            arb.alpha = alpha
            return
        alpha[arb.root] = 1.0
        for x in reversed(arb.order):  # root towards the leaves
            ax = alpha[x]
            if ax == 0.0:
                continue
            if in_seed[x] and x != arb.root:
                continue
            kids = arb.children[x]
            if not kids:
                continue
            misses = [1.0 - arb.ap[y] * arb.weight[y] for y in kids]
            total_miss = 1.0
            for m in misses:
                total_miss *= m
            for y, miss_y in zip(kids, misses):
                # Product over siblings of y = total product / y's factor;
                # guard the miss_y == 0 case (a sibling with certain
                # activation) by recomputing directly.
                if miss_y > 1e-12:
                    siblings = total_miss / miss_y
                else:
                    siblings = 1.0
                    for z, miss_z in zip(kids, misses):
                        if z != y:
                            siblings *= miss_z
                alpha[y] = ax * arb.weight[y] * siblings
        arb.alpha = alpha

    def _gains(self, arb: _Arborescence, in_seed: np.ndarray) -> dict[int, float]:
        self._forward_ap(arb, in_seed)
        self._backward_alpha(arb, in_seed)
        return {
            u: arb.alpha[u] * (1.0 - arb.ap[u])
            for u in arb.order
            if not in_seed[u]
        }

    def _select(
        self,
        graph: DiGraph,
        k: int,
        model: PropagationModel,
        rng: np.random.Generator,
        budget: Budget | None,
    ) -> tuple[list[int], dict[str, Any]]:
        in_seed = np.zeros(graph.n, dtype=bool)
        arbs: list[_Arborescence] = []
        containing: list[set[int]] = [set() for __ in range(graph.n)]
        for v in range(graph.n):
            if v % 64 == 0:
                self._tick(budget)
            arb = build_miia(graph, v, self.theta)
            idx = len(arbs)
            arbs.append(arb)
            for u in arb.order:
                containing[u].add(idx)

        inc_inf = np.zeros(graph.n, dtype=np.float64)
        per_arb_gain: list[dict[int, float]] = []
        for arb in arbs:
            gains = self._gains(arb, in_seed)
            per_arb_gain.append(gains)
            for u, g in gains.items():
                inc_inf[u] += g

        seeds: list[int] = []
        for __ in range(k):
            self._tick(budget)
            s = int(np.where(in_seed, -np.inf, inc_inf).argmax())
            seeds.append(s)
            in_seed[s] = True
            # Prefix exclusion: rebuild every arborescence containing s
            # with the updated seed set banned from interior positions.
            for idx in sorted(containing[s]):
                for u, g in per_arb_gain[idx].items():
                    inc_inf[u] -= g
                old_nodes = arbs[idx].nodes
                rebuilt = build_miia(
                    graph, arbs[idx].root, self.theta, blocked=in_seed
                )
                arbs[idx] = rebuilt
                for u in old_nodes - rebuilt.nodes:
                    containing[u].discard(idx)
                for u in rebuilt.nodes - old_nodes:
                    containing[u].add(idx)
                gains = self._gains(rebuilt, in_seed)
                per_arb_gain[idx] = gains
                for u, g in gains.items():
                    inc_inf[u] += g
        return seeds, {
            "theta": self.theta,
            "avg_arborescence_size": float(
                np.mean([len(a.order) for a in arbs])
            ),
        }


# ----------------------------------------------------------------------
# LDAG: local directed acyclic graphs

class _LocalDAG:
    """LDAG(v, η): nodes, intra-DAG edges, and a valid processing order."""

    __slots__ = ("root", "nodes", "order", "in_edges", "ap", "alpha")

    def __init__(
        self,
        root: int,
        order: list[int],
        in_edges: dict[int, list[tuple[int, float]]],
    ) -> None:
        self.root = root
        # ``order`` sorts nodes by decreasing distance-to-root: every edge
        # goes from a node farther from the root to one nearer, i.e.
        # forward in ``order``.
        self.order = order
        self.nodes = set(order)
        self.in_edges = in_edges
        self.ap: dict[int, float] = {}
        self.alpha: dict[int, float] = {}


def build_ldag(graph: DiGraph, root: int, eta: float) -> _LocalDAG:
    """Construct LDAG(root, η) via max-probability-path Dijkstra.

    A node ``u`` enters the DAG when its best path probability to ``root``
    is >= η; the DAG keeps every graph edge (y, x) between members whose
    path probabilities strictly increase toward the root, which guarantees
    acyclicity.
    """
    # Dijkstra on the reverse graph maximizing the product of weights.
    # The settle order is the distance ranking: settled earlier = nearer to
    # the root (ties included), which breaks pp ties consistently.
    best: dict[int, float] = {root: 1.0}
    settle_rank: dict[int, int] = {}
    heap: list[tuple[float, int]] = [(-1.0, root)]
    while heap:
        neg_pp, x = heapq.heappop(heap)
        pp = -neg_pp
        # Stale entries (superseded by a later strict improvement) carry
        # pp < best[x]; the comparison skips them without a settled-set
        # membership probe (push values strictly increase per node).
        if pp < best[x]:
            continue
        settle_rank[x] = len(settle_rank)
        src, w = graph.in_neighbors(x)
        for y, wy in zip(src, w):
            y = int(y)
            nxt = pp * float(wy)
            if nxt >= eta and nxt > best.get(y, 0.0):
                best[y] = nxt
                heapq.heappush(heap, (-nxt, y))

    # Farthest-first processing order (descending settle rank); every kept
    # edge (y, x) has rank(y) > rank(x), so it points forward in ``order``
    # and the kept edge set is acyclic with the root last.
    order = sorted(settle_rank, key=lambda u: settle_rank[u], reverse=True)
    in_edges: dict[int, list[tuple[int, float]]] = {u: [] for u in settle_rank}
    for x in settle_rank:
        src, w = graph.in_neighbors(x)
        for y, wy in zip(src, w):
            y = int(y)
            if y in settle_rank and settle_rank[y] > settle_rank[x]:
                in_edges[x].append((y, float(wy)))
    return _LocalDAG(root, order, in_edges)


class LegacyLDAG(LDAG):
    """LDAG on per-root ``build_ldag`` calls and dict DAG DPs."""

    @staticmethod
    def _forward_ap(dag: _LocalDAG, in_seed: np.ndarray) -> None:
        """ap(x) for the current seed set: seeds have ap = 1."""
        ap: dict[int, float] = {}
        for x in dag.order:  # farthest first: all in-DAG parents come earlier
            if in_seed[x]:
                ap[x] = 1.0
                continue
            total = 0.0
            for y, wy in dag.in_edges[x]:
                total += ap[y] * wy
            ap[x] = min(total, 1.0)
        dag.ap = ap

    @staticmethod
    def _backward_alpha(dag: _LocalDAG, in_seed: np.ndarray) -> None:
        """α(u) = ∂ap(root)/∂ap(u); propagation stops at seeds."""
        alpha: dict[int, float] = {u: 0.0 for u in dag.order}
        if in_seed[dag.root]:
            # ap(root) is pinned at 1; nothing can change it.
            dag.alpha = alpha
            return
        alpha[dag.root] = 1.0
        for x in reversed(dag.order):  # nearest-to-root first
            ax = alpha[x]
            if ax == 0.0:
                continue
            if in_seed[x] and x != dag.root:
                # A seed's ap is pinned at 1: derivatives do not pass it.
                continue
            for y, wy in dag.in_edges[x]:
                alpha[y] += ax * wy
        dag.alpha = alpha

    def _dag_gains(self, dag: _LocalDAG, in_seed: np.ndarray) -> dict[int, float]:
        """Marginal gain contribution of each DAG member."""
        self._forward_ap(dag, in_seed)
        self._backward_alpha(dag, in_seed)
        return {
            u: dag.alpha[u] * (1.0 - dag.ap[u])
            for u in dag.order
            if not in_seed[u]
        }

    def _select(
        self,
        graph: DiGraph,
        k: int,
        model: PropagationModel,
        rng: np.random.Generator,
        budget: Budget | None,
    ) -> tuple[list[int], dict[str, Any]]:
        in_seed = np.zeros(graph.n, dtype=bool)
        dags: list[_LocalDAG] = []
        containing: list[list[int]] = [[] for __ in range(graph.n)]
        for v in range(graph.n):
            if v % 64 == 0:
                self._tick(budget)
            dag = build_ldag(graph, v, self.eta)
            idx = len(dags)
            dags.append(dag)
            for u in dag.nodes:
                containing[u].append(idx)

        # Global incremental-influence scores: IncInf[u] = Σ_DAGs gain.
        inc_inf = np.zeros(graph.n, dtype=np.float64)
        per_dag_gain: list[dict[int, float]] = []
        for dag in dags:
            gains = self._dag_gains(dag, in_seed)
            per_dag_gain.append(gains)
            for u, g in gains.items():
                inc_inf[u] += g

        seeds: list[int] = []
        total_dag_nodes = sum(len(d.nodes) for d in dags)
        for __ in range(k):
            self._tick(budget)
            masked = np.where(in_seed, -np.inf, inc_inf)
            s = int(masked.argmax())
            seeds.append(s)
            in_seed[s] = True
            # Only DAGs containing s change; swap their gain contributions.
            for idx in containing[s]:
                for u, g in per_dag_gain[idx].items():
                    inc_inf[u] -= g
                gains = self._dag_gains(dags[idx], in_seed)
                per_dag_gain[idx] = gains
                for u, g in gains.items():
                    inc_inf[u] += g
        return seeds, {
            "eta": self.eta,
            "total_dag_nodes": total_dag_nodes,
            "avg_dag_size": total_dag_nodes / max(graph.n, 1),
        }


# ----------------------------------------------------------------------
# IRIE: the influence-estimation step

def max_probability_paths(
    graph: DiGraph, source: int, threshold: float
) -> dict[int, float]:
    """Maximum path-propagation probability from ``source`` to each node.

    Dijkstra over -log(weight); paths whose product drops below
    ``threshold`` are pruned (the MIA/PMIA trick).  Returns only nodes with
    pp >= threshold, excluding the source itself.
    """
    best: dict[int, float] = {source: 1.0}
    heap: list[tuple[float, int]] = [(-1.0, source)]
    while heap:
        neg_pp, u = heapq.heappop(heap)
        pp = -neg_pp
        # Stale duplicate entries carry a pp below the final best[u]
        # (push values strictly increase per node); comparing against
        # best skips them without a settled-set membership probe.
        if pp < best[u]:
            continue
        dst, w = graph.out_neighbors(u)
        for v, wv in zip(dst, w):
            v = int(v)
            nxt = pp * float(wv)
            if nxt < threshold:
                continue
            if nxt > best.get(v, 0.0):
                best[v] = nxt
                heapq.heappush(heap, (-nxt, v))
    best.pop(source, None)
    return best


class LegacyIRIE(IRIE):
    """IRIE with the IE step on the dict/heap ``max_probability_paths``."""

    def _select(
        self,
        graph: DiGraph,
        k: int,
        model: PropagationModel,
        rng: np.random.Generator,
        budget: Budget | None,
    ) -> tuple[list[int], dict[str, Any]]:
        edge_src = graph.edge_src
        ap = np.zeros(graph.n, dtype=np.float64)
        seeds: list[int] = []
        in_seed = np.zeros(graph.n, dtype=bool)
        for __ in range(k):
            self._tick(budget)
            rank = self._rank(graph, ap, edge_src)
            v = int(np.where(in_seed, -np.inf, rank).argmax())
            seeds.append(v)
            in_seed[v] = True
            ap[v] = 1.0
            for u, pp in max_probability_paths(graph, v, self.ap_threshold).items():
                if not in_seed[u]:
                    ap[u] = 1.0 - (1.0 - ap[u]) * (1.0 - pp)
        return seeds, {}
