"""Compressed sparse row directed graph.

The social network of Definition 1 in the paper: an edge-weighted directed
graph ``G(V, E, W)``.  Nodes are the integers ``0 .. n-1``.  The structure is
immutable once built; edge-weight schemes produce a *new* :class:`DiGraph`
sharing the topology arrays (see :mod:`repro.graph.weights`).

Two adjacency views are kept:

* out-CSR (``out_ptr``, ``out_dst``, ``out_w``) — edges grouped by source,
  used by forward cascade simulation (IC/LT) and forward reachability.
* in-CSR (``in_ptr``, ``in_src``, ``in_w``) — edges grouped by target, used
  by reverse-reachable set sampling (TIM+/IMM) and by the weighted-cascade
  and linear-threshold weight schemes, which are functions of in-degree.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["DiGraph"]


class DiGraph:
    """Immutable edge-weighted directed graph in CSR form.

    Do not call the constructor directly; use :meth:`from_edges` or
    :meth:`from_arrays`.
    """

    __slots__ = (
        "n",
        "m",
        "out_ptr",
        "out_dst",
        "out_w",
        "in_ptr",
        "in_src",
        "in_w",
        "_in_perm",
        "_in_w_before",
    )

    def __init__(
        self,
        n: int,
        out_ptr: np.ndarray,
        out_dst: np.ndarray,
        out_w: np.ndarray,
        in_ptr: np.ndarray,
        in_src: np.ndarray,
        in_w: np.ndarray,
        in_perm: np.ndarray,
    ) -> None:
        self.n = int(n)
        self.m = int(out_dst.shape[0])
        self.out_ptr = out_ptr
        self.out_dst = out_dst
        self.out_w = out_w
        self.in_ptr = in_ptr
        self.in_src = in_src
        self.in_w = in_w
        # Permutation mapping out-CSR edge order -> in-CSR edge order, kept
        # so weight schemes can rebuild the in view without re-sorting.
        self._in_perm = in_perm
        self._in_w_before: np.ndarray | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        n: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray | None = None,
        dedup: bool = True,
    ) -> "DiGraph":
        """Build a graph from parallel ``src``/``dst`` arrays.

        Self-loops are dropped.  With ``dedup`` (the default), duplicate
        arcs are collapsed to one (keeping the first weight); pass
        ``dedup=False`` only when the caller guarantees uniqueness.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same shape")
        if src.size and (src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n):
            raise ValueError("edge endpoint out of range")
        if weights is None:
            w = np.ones(src.shape[0], dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != src.shape:
                raise ValueError("weights must align with edges")

        keep = src != dst
        src, dst, w = src[keep], dst[keep], w[keep]
        if dedup and src.size:
            key = src * n + dst
            __, first = np.unique(key, return_index=True)
            first.sort()
            src, dst, w = src[first], dst[first], w[first]

        # out-CSR: stable sort by source keeps deterministic edge order.
        order = np.argsort(src, kind="stable")
        src, dst, w = src[order], dst[order], w[order]
        out_ptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(out_ptr, src + 1, 1)
        np.cumsum(out_ptr, out=out_ptr)

        # in-CSR via a permutation of the out-order edges.
        in_perm = np.argsort(dst, kind="stable")
        in_src = src[in_perm]
        in_w = w[in_perm]
        in_ptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(in_ptr, dst + 1, 1)
        np.cumsum(in_ptr, out=in_ptr)

        return cls(n, out_ptr, dst, w, in_ptr, in_src, in_w, in_perm)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]] | Sequence[tuple[int, int]],
        weights: Sequence[float] | None = None,
        dedup: bool = True,
    ) -> "DiGraph":
        """Build a graph from an iterable of ``(u, v)`` pairs."""
        edge_list = list(edges)
        if edge_list:
            arr = np.asarray(edge_list, dtype=np.int64)
            src, dst = arr[:, 0], arr[:, 1]
        else:
            src = dst = np.empty(0, dtype=np.int64)
        w = None if weights is None else np.asarray(list(weights), dtype=np.float64)
        return cls.from_arrays(n, src, dst, w, dedup=dedup)

    def with_weights(self, out_order_weights: np.ndarray) -> "DiGraph":
        """Return a graph with the same topology and new per-edge weights.

        ``out_order_weights`` must align with :attr:`edge_src`/:attr:`edge_dst`
        (out-CSR edge order).
        """
        w = np.asarray(out_order_weights, dtype=np.float64)
        if w.shape[0] != self.m:
            raise ValueError(f"expected {self.m} weights, got {w.shape[0]}")
        return DiGraph(
            self.n,
            self.out_ptr,
            self.out_dst,
            w,
            self.in_ptr,
            self.in_src,
            w[self._in_perm],
            self._in_perm,
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def edge_src(self) -> np.ndarray:
        """Source endpoint of every edge, in out-CSR order."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.out_ptr))

    @property
    def edge_dst(self) -> np.ndarray:
        """Target endpoint of every edge, in out-CSR order."""
        return self.out_dst

    def out_neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """``(targets, weights)`` of edges leaving ``u`` — Out(u)."""
        lo, hi = self.out_ptr[u], self.out_ptr[u + 1]
        return self.out_dst[lo:hi], self.out_w[lo:hi]

    def in_neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """``(sources, weights)`` of edges entering ``v`` — In(v)."""
        lo, hi = self.in_ptr[v], self.in_ptr[v + 1]
        return self.in_src[lo:hi], self.in_w[lo:hi]

    @property
    def in_w_before(self) -> np.ndarray:
        """Per edge (out-CSR order), the summed weight of its head's
        in-edges that precede it in in-CSR order.

        Built on first use and kept with the graph, so per-call readers
        (the LT cascade kernel) pay the O(m) set-up once per graph.
        """
        if self._in_w_before is None:
            cum = np.concatenate(([0.0], np.cumsum(self.in_w)))
            ahead = cum[:-1] - np.repeat(cum[self.in_ptr[:-1]], np.diff(self.in_ptr))
            before = np.empty(self.m, dtype=np.float64)
            before[self._in_perm] = ahead  # in-CSR order -> out-CSR order
            self._in_w_before = before
        return self._in_w_before

    def out_degree(self, u: int | None = None):
        if u is None:
            return np.diff(self.out_ptr)
        return int(self.out_ptr[u + 1] - self.out_ptr[u])

    def in_degree(self, v: int | None = None):
        if v is None:
            return np.diff(self.in_ptr)
        return int(self.in_ptr[v + 1] - self.in_ptr[v])

    def weight(self, u: int, v: int) -> float:
        """W(u, v); raises ``KeyError`` if the arc does not exist."""
        dst, w = self.out_neighbors(u)
        hits = np.nonzero(dst == v)[0]
        if hits.size == 0:
            raise KeyError(f"no edge ({u}, {v})")
        return float(w[hits[0]])

    def has_edge(self, u: int, v: int) -> bool:
        dst, __ = self.out_neighbors(u)
        return bool((dst == v).any())

    def reverse(self) -> "DiGraph":
        """The transpose graph (used to build RR sets by forward search)."""
        src = self.edge_src
        return DiGraph.from_arrays(self.n, self.out_dst, src, self.out_w, dedup=False)

    def edges(self) -> Iterable[tuple[int, int, float]]:
        """Yield ``(u, v, w)`` triples in out-CSR order."""
        for u in range(self.n):
            lo, hi = self.out_ptr[u], self.out_ptr[u + 1]
            for j in range(lo, hi):
                yield u, int(self.out_dst[j]), float(self.out_w[j])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiGraph(n={self.n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.out_ptr, other.out_ptr)
            and np.array_equal(self.out_dst, other.out_dst)
            and np.allclose(self.out_w, other.out_w)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)
