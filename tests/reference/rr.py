"""The per-set RR sampler, the list-walking RR max-cover and its pool.

:func:`repro.diffusion.rrpool.greedy_max_cover` replaced the list loop
with a vectorized cover over the flat CSR pool; the equivalence tests
assert both return byte-identical seed sets, and
``benchmarks/bench_rr_engine.py`` times one against the other.

:func:`random_rr_set` is the one-set-per-call reverse BFS / reverse walk
that :func:`repro.diffusion.rrpool.sample_rr_sets` replaced.  The batched
kernel consumes the RNG in another order, so the two agree only in
distribution: ``tests/test_rr_statistical.py`` compares their set sizes,
widths and per-node membership counts.

:func:`argsort_node_index` is the one-argsort inverted-index build that
:meth:`repro.diffusion.rrpool.FlatRRPool.inverted_index` replaced with a
chunked counting sort; the two must agree byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.diffusion.models import Dynamics
from repro.diffusion.rrpool import FlatRRPool, pad_seeds
from repro.graph.digraph import DiGraph

__all__ = [
    "RRCollection",
    "argsort_node_index",
    "greedy_max_cover_legacy",
    "random_rr_set",
]


def random_rr_set(
    graph: DiGraph,
    dynamics: Dynamics,
    rng: np.random.Generator,
    root: int | None = None,
) -> tuple[np.ndarray, int]:
    """Sample one RR set; returns ``(nodes, width)``.

    ``width`` counts the in-edges examined while growing the set — the
    quantity TIM+ uses to estimate KPT (expected cascade cost).  Because
    every visited node has its in-edges examined exactly once, ``width``
    equals the sum of in-degrees over the returned set (a property-tested
    invariant).
    """
    if graph.n == 0:
        raise ValueError("graph has no nodes")
    if root is None:
        root = int(rng.integers(0, graph.n))
    in_ptr, in_src, in_w = graph.in_ptr, graph.in_src, graph.in_w
    visited = {root}
    width = 0

    if dynamics is Dynamics.IC:
        frontier = [root]
        while frontier:
            v = frontier.pop()
            lo, hi = int(in_ptr[v]), int(in_ptr[v + 1])
            width += hi - lo
            if lo == hi:
                continue
            coins = rng.random(hi - lo)
            hits = np.nonzero(coins < in_w[lo:hi])[0]
            for j in hits:
                u = int(in_src[lo + j])
                if u not in visited:
                    visited.add(u)
                    frontier.append(u)
        return np.fromiter(visited, dtype=np.int64, count=len(visited)), width

    if dynamics is Dynamics.LT:
        v = root
        while True:
            lo, hi = int(in_ptr[v]), int(in_ptr[v + 1])
            width += hi - lo
            if lo == hi:
                break
            cumulative = np.cumsum(in_w[lo:hi])
            j = int(np.searchsorted(cumulative, rng.random(), side="right"))
            if j >= hi - lo:
                break  # residual probability 1 - sum(w): no live in-edge
            u = int(in_src[lo + j])
            if u in visited:
                break  # walk closed a cycle; the set cannot grow further
            visited.add(u)
            v = u
        return np.fromiter(visited, dtype=np.int64, count=len(visited)), width

    raise ValueError(f"unsupported dynamics {dynamics!r}")  # pragma: no cover


def argsort_node_index(pool: FlatRRPool) -> tuple[np.ndarray, np.ndarray]:
    """Inverted ``(node_ptr, node_sets)`` CSR by one stable argsort.

    Holds a pool-sized repeated set-id array and the argsort's order
    array on top of the index itself.
    """
    set_ids = np.repeat(np.arange(len(pool), dtype=np.int64), np.diff(pool.set_ptr))
    order = np.argsort(pool.set_nodes, kind="stable")
    node_sets = set_ids[order]
    counts = np.bincount(pool.set_nodes, minlength=pool.n)
    node_ptr = np.zeros(pool.n + 1, dtype=np.int64)
    np.cumsum(counts, out=node_ptr[1:])
    return node_ptr, node_sets


class RRCollection(FlatRRPool):
    """A :class:`FlatRRPool` with list views of its sets.

    ``sets[i]`` is the node array of RR set i; ``member_of[v]`` lists the
    ids of the sets containing node v.  Both are materialized from the
    CSR arrays on first access and cached until the pool grows, so a
    benchmark can build them before timing the legacy cover.
    """

    __slots__ = ("_sets_cache", "_member_cache")

    def __init__(self, n: int, sets: list[np.ndarray] | None = None) -> None:
        super().__init__(n)
        self._sets_cache: list[np.ndarray] | None = None
        self._member_cache: list[list[int]] | None = None
        for nodes in sets or []:
            self.add(nodes)

    def append_chunk(self, lengths, flat, widths) -> None:
        self._sets_cache = self._member_cache = None
        super().append_chunk(lengths, flat, widths)

    @property
    def sets(self) -> list[np.ndarray]:
        if self._sets_cache is None:
            ptr = self.set_ptr
            self._sets_cache = [
                self.set_nodes[ptr[i] : ptr[i + 1]] for i in range(len(self))
            ]
        return self._sets_cache

    @property
    def member_of(self) -> list[list[int]]:
        if self._member_cache is None:
            node_ptr, node_sets = self.node_index
            self._member_cache = [
                node_sets[node_ptr[v] : node_ptr[v + 1]].tolist()
                for v in range(self.n)
            ]
        return self._member_cache


def greedy_max_cover_legacy(
    collection: FlatRRPool,
    k: int,
    pad_priority: np.ndarray | None = None,
) -> tuple[list[int], float]:
    """The original list-walking greedy max-cover."""
    num_sets = len(collection)
    if num_sets == 0 or k <= 0:
        return [], 0.0
    n = collection.n
    if isinstance(collection, RRCollection):
        sets = collection.sets
        member_of = collection.member_of
    else:
        ptr, data = collection.set_ptr, collection.set_nodes
        sets = [data[ptr[i] : ptr[i + 1]] for i in range(num_sets)]
        node_ptr, node_sets = collection.node_index
        member_of = [
            node_sets[node_ptr[v] : node_ptr[v + 1]].tolist() for v in range(n)
        ]
    count = np.zeros(n, dtype=np.int64)
    for v in range(n):
        count[v] = len(member_of[v])
    covered = np.zeros(num_sets, dtype=bool)
    seeds: list[int] = []
    for __ in range(min(k, n)):
        v = int(count.argmax())
        if count[v] <= 0:
            # Nothing left to cover; pad with the highest-degree unseeded
            # nodes so exactly k seeds are returned, as the reference
            # codes do.
            priority = (
                pad_priority
                if pad_priority is not None
                else collection.membership_counts()
            )
            pad_seeds(seeds, k, n, priority)
            break
        seeds.append(v)
        newly = [i for i in member_of[v] if not covered[i]]
        for i in newly:
            covered[i] = True
            for u in sets[i]:
                count[int(u)] -= 1
        # count[v] is now 0 automatically (its uncovered sets were covered).
    return seeds[:k], float(covered.mean())
