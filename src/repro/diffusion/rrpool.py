"""Flat CSR-backed RR-set engine: sampling, storage and max-cover.

This is the hot path of every RR-sketch technique (RIS/TIM+/IMM/SSA,
Sec. 4.2 of the paper): sample reverse-reachable sets, hold them in a
pool, and greedily max-cover the pool.  The engine keeps the pool in two
compressed-sparse-row pairs instead of Python lists:

* set view  — ``set_ptr`` (``num_sets + 1``) / ``set_nodes``: the nodes
  of RR set ``i`` are ``set_nodes[set_ptr[i]:set_ptr[i + 1]]``.
* node view — ``node_ptr`` (``n + 1``) / ``node_sets``: the ids of the
  sets containing node ``v`` are ``node_sets[node_ptr[v]:node_ptr[v+1]]``
  (built lazily by one stable argsort, invalidated on append).

All four arrays are int64, so the pool's true memory footprint is just
:attr:`FlatRRPool.nbytes` — the quantity the Table-6 memory benchmark
wants, and impossible to read off a list-of-lists pool.

Sampling can fan out over a process pool (``workers > 1``) with worker
streams spawned from one ``SeedSequence``, mirroring
``monte_carlo_spread(workers=)``.  Determinism contract: a fixed
``(count, workers)`` pair on the same parent RNG state always produces
the same pool; serial (``workers in (None, 0, 1)``) and parallel pools
draw from different streams and agree only distributionally (see
``tests/test_rr_statistical.py``).

``greedy_max_cover`` is vectorized: per-node coverage counts live in one
int64 array updated with ``np.bincount`` over the members of newly
covered sets, so an iteration costs array ops instead of nested Python
loops.  It is seed-for-seed identical to the legacy list-based cover
(kept under ``tests/reference`` as the equivalence oracle).
"""

from __future__ import annotations

import numpy as np

from ..graph.digraph import DiGraph
from ._frontier import gather_csr as _gather_csr
from .models import Dynamics

__all__ = ["FlatRRPool", "greedy_max_cover", "random_rr_set"]


def _tele():
    # Lazy: a top-level framework import from diffusion would be circular
    # (framework → runner → algorithm registry → diffusion engines).
    from ..framework.telemetry import current

    return current()


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


def _sample_rr_chunk(
    graph: DiGraph,
    dynamics: Dynamics,
    count: int,
    seed_sequence_state: dict,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Worker for parallel sampling: ``count`` independent RR sets.

    Module-level so it pickles; the RNG is rebuilt from a spawned
    ``SeedSequence`` so parallel runs draw from well-separated streams.
    Returns ``(lengths, flat_nodes, widths)`` — cheap to ship back over
    the process pipe and appended to the pool as one chunk.
    """
    rng = np.random.default_rng(np.random.SeedSequence(**seed_sequence_state))
    lengths = np.empty(count, dtype=np.int64)
    widths = np.empty(count, dtype=np.int64)
    parts: list[np.ndarray] = []
    for i in range(count):
        nodes, width = random_rr_set(graph, dynamics, rng)
        lengths[i] = nodes.size
        widths[i] = width
        parts.append(nodes)
    flat = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return lengths, flat, widths


class FlatRRPool:
    """A pool of RR sets held as two int64 CSR pairs.

    Appends are O(1) amortized: new sets accumulate in a pending list and
    are compacted into the flat arrays on the next read of a CSR view.
    The inverted node→sets index is rebuilt lazily after any append.
    """

    __slots__ = (
        "n",
        "total_width",
        "_ptr",
        "_nodes",
        "_widths",
        "_pending_nodes",
        "_pending_widths",
        "_node_ptr",
        "_node_sets",
    )

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        self.n = int(n)
        self.total_width = 0
        self._ptr = np.zeros(1, dtype=np.int64)
        self._nodes = np.empty(0, dtype=np.int64)
        self._widths = np.empty(0, dtype=np.int64)
        self._pending_nodes: list[np.ndarray] = []
        self._pending_widths: list[int] = []
        self._node_ptr: np.ndarray | None = None
        self._node_sets: np.ndarray | None = None

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------

    def add(self, nodes: np.ndarray, width: int = 0) -> None:
        """Append one RR set to the pool."""
        self._pending_nodes.append(np.asarray(nodes, dtype=np.int64))
        self._pending_widths.append(int(width))
        self.total_width += int(width)
        self._node_ptr = self._node_sets = None

    def _append_chunk(
        self, lengths: np.ndarray, flat: np.ndarray, widths: np.ndarray
    ) -> None:
        """Append a whole sampled chunk (one worker's output) at once."""
        self._compact()
        self._ptr = np.concatenate(
            [self._ptr, self._ptr[-1] + np.cumsum(lengths, dtype=np.int64)]
        )
        self._nodes = np.concatenate([self._nodes, flat])
        self._widths = np.concatenate([self._widths, widths])
        self.total_width += int(widths.sum())
        self._node_ptr = self._node_sets = None

    def absorb(self, other: "FlatRRPool") -> None:
        """Append every set of ``other`` (D-SSA's pool recycling)."""
        if other.n != self.n:
            raise ValueError("pools cover different node universes")
        other._compact()
        if len(other) == 0:
            return
        self._append_chunk(np.diff(other._ptr), other._nodes, other._widths)

    def extend(
        self,
        graph: DiGraph,
        dynamics: Dynamics,
        count: int,
        rng: np.random.Generator,
        workers: int | None = None,
        budget=None,
    ) -> None:
        """Sample ``count`` additional RR sets from ``graph``.

        ``workers > 1`` fans the sampling out over a process pool; each
        worker's stream is spawned from one ``SeedSequence`` drawn from
        ``rng``, so a fixed ``(count, workers)`` pair is reproducible.
        ``budget`` (anything with ``check()``) is ticked per set when
        serial and per returned chunk when parallel, so preemptive limits
        still interrupt long sampling phases.
        """
        if count <= 0:
            return
        tele = _tele()
        with tele.span("rrpool.sample"):
            if workers is not None and workers > 1 and count > 1:
                self._extend_parallel(graph, dynamics, count, rng, workers, budget)
            else:
                for __ in range(count):
                    if budget is not None:
                        budget.check()
                    nodes, width = random_rr_set(graph, dynamics, rng)
                    self.add(nodes, width)
        tele.count("rrpool.rr_sets", count)

    def _extend_parallel(
        self,
        graph: DiGraph,
        dynamics: Dynamics,
        count: int,
        rng: np.random.Generator,
        workers: int,
        budget,
    ) -> None:
        # Lazy for the same circular-import reason as _tele.
        from ..framework.pool import run_chunks

        base = int(rng.integers(0, 2**63 - 1))
        chunks = np.full(workers, count // workers, dtype=np.int64)
        chunks[: count % workers] += 1
        chunks = chunks[chunks > 0]
        states = [{"entropy": base, "spawn_key": (i,)} for i in range(len(chunks))]
        _tele().count("rrpool.worker_chunks", len(chunks))
        # Each chunk is fully determined by its spawn-key state, so the
        # resilient pool can replay lost chunks byte-identically; results
        # are committed in chunk order, keeping the pool layout identical
        # at any completion (or recovery) order.  The graph and dynamics
        # are chunk-invariant, so they ride the shared-args transport
        # (shm arena or one pickle per worker) instead of every tuple.
        parts = run_chunks(
            _sample_rr_chunk,
            [(int(c), s) for c, s in zip(chunks, states)],
            workers=len(chunks),
            label="rrpool.sample",
            tick=budget.check if budget is not None else None,
            shared=(graph, dynamics),
        )
        for lengths, flat, widths in parts:
            self._append_chunk(lengths, flat, widths)

    # ------------------------------------------------------------------
    # CSR views
    # ------------------------------------------------------------------

    def _compact(self) -> None:
        if not self._pending_nodes:
            return
        lens = np.fromiter(
            (a.size for a in self._pending_nodes),
            dtype=np.int64,
            count=len(self._pending_nodes),
        )
        self._ptr = np.concatenate([self._ptr, self._ptr[-1] + np.cumsum(lens)])
        self._nodes = np.concatenate([self._nodes, *self._pending_nodes])
        self._widths = np.concatenate(
            [self._widths, np.asarray(self._pending_widths, dtype=np.int64)]
        )
        self._pending_nodes = []
        self._pending_widths = []

    @property
    def set_ptr(self) -> np.ndarray:
        """Set-view CSR offsets (``num_sets + 1`` int64)."""
        self._compact()
        return self._ptr

    @property
    def set_nodes(self) -> np.ndarray:
        """Set-view CSR payload: node ids, grouped by set."""
        self._compact()
        return self._nodes

    @property
    def widths(self) -> np.ndarray:
        """Per-set width (in-edges examined while sampling it)."""
        self._compact()
        return self._widths

    @property
    def node_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Inverted ``(node_ptr, node_sets)`` CSR, built lazily.

        Within a node's slice, set ids appear in insertion order (the
        argsort is stable), matching the legacy ``member_of`` lists.
        """
        if self._node_ptr is None:
            with _tele().span("rrpool.invert_index"):
                self._compact()
                set_ids = np.repeat(
                    np.arange(len(self), dtype=np.int64), np.diff(self._ptr)
                )
                order = np.argsort(self._nodes, kind="stable")
                self._node_sets = set_ids[order]
                counts = np.bincount(self._nodes, minlength=self.n)
                node_ptr = np.zeros(self.n + 1, dtype=np.int64)
                np.cumsum(counts, out=node_ptr[1:])
                self._node_ptr = node_ptr
        return self._node_ptr, self._node_sets

    def nodes_of(self, i: int) -> np.ndarray:
        """Node array of RR set ``i``."""
        ptr = self.set_ptr
        return self._nodes[ptr[i] : ptr[i + 1]]

    def sets_of(self, v: int) -> np.ndarray:
        """Ids of the RR sets containing node ``v``."""
        node_ptr, node_sets = self.node_index
        return node_sets[node_ptr[v] : node_ptr[v + 1]]

    def membership_counts(self) -> np.ndarray:
        """Number of pool sets containing each node (length ``n``)."""
        return np.bincount(self.set_nodes, minlength=self.n).astype(np.int64)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the CSR arrays, in bytes.

        Counts both the set view and, when materialized, the inverted
        node view — the real resident cost of the pool that Table-6-style
        memory benchmarks should charge the technique with.
        """
        return sum(self.nbytes_detail().values())

    def nbytes_detail(self) -> dict[str, int]:
        """:attr:`nbytes` split into ``set_view`` and ``node_index`` (0
        until the inverted index's lazy build)."""
        self._compact()
        node_index = 0
        if self._node_ptr is not None:
            node_index = int(self._node_ptr.nbytes + self._node_sets.nbytes)
        return {
            "set_view": int(
                self._ptr.nbytes + self._nodes.nbytes + self._widths.nbytes
            ),
            "node_index": node_index,
        }

    def __len__(self) -> int:
        return self._ptr.shape[0] - 1 + len(self._pending_nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n}, sets={len(self)})"

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------

    def coverage_fraction(self, seeds: np.ndarray | list[int]) -> float:
        """Fraction of RR sets intersected by ``seeds`` (= σ(S)/n estimate)."""
        num_sets = len(self)
        if num_sets == 0:
            return 0.0
        seed_arr = np.asarray(seeds, dtype=np.int64)
        if seed_arr.size == 0:
            return 0.0
        node_ptr, node_sets = self.node_index
        covered = np.zeros(num_sets, dtype=bool)
        covered[_gather_csr(node_ptr, node_sets, seed_arr)] = True
        return float(covered.mean())


def pad_seeds(
    seeds: list[int], k: int, n: int, priority: np.ndarray
) -> list[int]:
    """Top ``seeds`` up to ``k`` with unseeded nodes by descending priority.

    Ties break toward the lower node id.  Mutates and returns ``seeds``.
    """
    order = np.lexsort(
        (np.arange(n), -np.asarray(priority, dtype=np.float64))
    )
    chosen = set(seeds)
    for u in order:
        if len(seeds) >= k:
            break
        u = int(u)
        if u not in chosen:
            seeds.append(u)
            chosen.add(u)
    return seeds


def greedy_max_cover(
    pool: FlatRRPool,
    k: int,
    pad_priority: np.ndarray | None = None,
) -> tuple[list[int], float]:
    """Greedy maximum coverage of the RR pool (Sec. 4.2 seed selection).

    Returns the chosen seeds and the fraction of sets covered.  Marginal
    coverage counts live in one int64 array; covering a seed's sets
    decrements the counts of their members via ``np.bincount``, so each
    of the ``k`` rounds is pure array work.

    When the pool is exhausted before ``k`` seeds are found, the answer
    is padded with the highest-priority unseeded nodes: ``pad_priority``
    should be the graph's out-degree array (what the reference codes pad
    by); when omitted, the pool's own membership counts — the best degree
    proxy the pool can compute without the graph — are used.
    """
    num_sets = len(pool)
    if num_sets == 0 or k <= 0:
        return [], 0.0
    with _tele().span("rrpool.max_cover"):
        n = pool.n
        set_ptr, set_nodes = pool.set_ptr, pool.set_nodes
        node_ptr, node_sets = pool.node_index
        count = np.bincount(set_nodes, minlength=n).astype(np.int64)
        covered = np.zeros(num_sets, dtype=bool)
        seeds: list[int] = []
        for __ in range(min(k, n)):
            v = int(count.argmax())
            if count[v] <= 0:
                priority = (
                    pad_priority
                    if pad_priority is not None
                    else pool.membership_counts()
                )
                pad_seeds(seeds, k, n, priority)
                break
            seeds.append(v)
            ids = node_sets[node_ptr[v] : node_ptr[v + 1]]
            newly = ids[~covered[ids]]
            covered[newly] = True
            members = _gather_csr(set_ptr, set_nodes, newly)
            if members.size:
                count -= np.bincount(members, minlength=n)
    return seeds[:k], float(covered.mean())
