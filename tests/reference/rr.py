"""The list-walking RR max-cover and the list-view pool it walks.

:func:`repro.diffusion.rrpool.greedy_max_cover` replaced this loop with
a vectorized cover over the flat CSR pool; the equivalence tests assert
both return byte-identical seed sets, and ``benchmarks/bench_rr_engine.py``
times one against the other.
"""

from __future__ import annotations

import numpy as np

from repro.diffusion.rrpool import FlatRRPool, pad_seeds

__all__ = ["RRCollection", "greedy_max_cover_legacy"]


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

    def add(self, nodes: np.ndarray, width: int = 0) -> None:
        self._sets_cache = self._member_cache = None
        super().add(nodes, width)

    def _append_chunk(self, lengths, flat, widths) -> None:
        self._sets_cache = self._member_cache = None
        super()._append_chunk(lengths, flat, widths)

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
