"""Flat CSR-backed RR-set engine: sampling, storage and max-cover.

This is the hot path of every RR-sketch technique (RIS/TIM+/IMM/SSA,
Sec. 4.2 of the paper): sample reverse-reachable sets, hold them in a
pool, and greedily max-cover the pool.  The engine keeps the pool in two
compressed-sparse-row pairs instead of Python lists:

* set view  — ``set_ptr`` (``num_sets + 1``) / ``set_nodes``: the nodes
  of RR set ``i`` are ``set_nodes[set_ptr[i]:set_ptr[i + 1]]``.
* node view — ``node_ptr`` (``n + 1``) / ``node_sets``: the ids of the
  sets containing node ``v`` are ``node_sets[node_ptr[v]:node_ptr[v+1]]``
  (built lazily by a chunked counting sort, invalidated on append).

All four arrays are int64, so the pool's true memory footprint is just
:attr:`FlatRRPool.nbytes` — the quantity the Table-6 memory benchmark
wants, and impossible to read off a list-of-lists pool.

Sampling is batched (:func:`sample_rr_sets`): a batch of
``rr_batch_size(n)`` roots — enough for a ``(set, node)`` visited bitmap
of about 1 MiB — grows all of its RR sets together, with one pass of
numpy calls per IC BFS level or LT walk step instead of several Python
calls per node.  IC levels are processed in slices of at most
``RR_SLICE_EDGES`` in-edges, which bounds the transient arrays on dense
graphs (where one IC set holds most of the graph) and the work between
two budget checks.  Both sizes are module constants, not options.  The
IC level loop is :func:`repro.diffusion._frontier.grow_levels`, which
the Monte-Carlo cascade kernel runs on the out-CSR.

Sampling can fan out over a process pool (``workers > 1``) with worker
streams spawned from one ``SeedSequence``, mirroring
``monte_carlo_spread(workers=)``; each chunk runs the same batched
sampler, so its output is fixed by its spawn-key state and a lost chunk
replays byte-identically.  Determinism contract: a fixed
``(count, workers)`` pair on the same parent RNG state always produces
the same pool.  The pool also depends on how sampling is split into
calls: ``extend(a)`` then ``extend(b)`` draws both calls' roots before
their coins and so differs from ``extend(a + b)`` on the same RNG.
Serial (``workers in (None, 0, 1)``) and parallel pools draw from
different streams, and the batched sampler consumes coins in another
order than the per-set reference loop (``tests/reference/rr.py``); all
of them agree only distributionally (see ``tests/test_rr_statistical.py``).

``greedy_max_cover`` is vectorized: per-node coverage counts live in one
int64 array updated with ``np.bincount`` over the members of newly
covered sets, so an iteration costs array ops instead of nested Python
loops.  It is seed-for-seed identical to the legacy list-based cover
(kept under ``tests/reference`` as the equivalence oracle).
"""

from __future__ import annotations

import numpy as np

from ..graph.digraph import DiGraph
from ._frontier import capped_runs, gather_csr as _gather_csr, grow_levels
from .models import Dynamics

__all__ = [
    "INDEX_CHUNK_ENTRIES",
    "RR_BATCH_CELLS",
    "RR_SLICE_EDGES",
    "FlatRRPool",
    "greedy_max_cover",
    "rr_batch_size",
    "sample_rr_sets",
]


def _tele():
    # Lazy: a top-level framework import from diffusion would be circular
    # (framework → runner → algorithm registry → diffusion engines).
    from ..framework.telemetry import current

    return current()


#: Visited-bitmap cells of one sampling batch: a batch holds
#: ``max(1, RR_BATCH_CELLS // n)`` roots, so its ``(set, node)`` bitmap
#: stays near 1 MiB at any graph size.
RR_BATCH_CELLS = 2**20

#: In-edges one IC level slice may examine (a single node with more
#: in-edges forms its own slice).  It bounds the slice's transient arrays
#: and the work between two budget checks.
RR_SLICE_EDGES = 2**16


#: Pool entries one chunk of the inverted-index build sorts, or one
#: max-cover gather reads (in whole sets; a longer set forms its own).
#: It bounds their transient arrays to about 3 MiB, and the index
#: build's work between two budget checks.
INDEX_CHUNK_ENTRIES = 2**16


def rr_batch_size(n: int) -> int:
    """Roots per sampling batch on an ``n``-node graph."""
    return max(1, RR_BATCH_CELLS // n)


def sample_rr_sets(
    graph: DiGraph,
    dynamics: Dynamics,
    roots: np.ndarray,
    rng: np.random.Generator,
    budget=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample one RR set per root; returns ``(lengths, flat_nodes, widths)``.

    Roots are processed in batches of :func:`rr_batch_size` and every set
    of a batch grows at once, keyed by ``set * n + node`` in one visited
    bitmap: IC runs a level-synchronous reverse BFS, LT advances every
    reverse random walk one step at a time.  Sets sharing a root share no
    state.  Each member has its in-edges examined exactly once in its set
    (IC: one independent coin per in-edge; LT: one in-edge picked with
    probability ``w``, or none), so ``widths`` — the in-edges examined,
    TIM+'s KPT input — equals each set's total in-degree.  Nodes come out
    sorted by id within a set.  ``budget.check()`` runs once per IC level
    slice and once per LT walk step.
    """
    if graph.n == 0:
        raise ValueError("graph has no nodes")
    roots = np.asarray(roots, dtype=np.int64)
    if roots.size and (roots.min() < 0 or roots.max() >= graph.n):
        raise ValueError("roots must be node ids of the graph")
    if dynamics is Dynamics.IC:
        grow = _grow_ic
    elif dynamics is Dynamics.LT:
        grow = _grow_lt
    else:  # pragma: no cover
        raise ValueError(f"unsupported dynamics {dynamics!r}")
    n = graph.n
    in_degree = np.diff(graph.in_ptr)
    step = rr_batch_size(n)
    visited = np.zeros(min(step, roots.size) * n, dtype=bool)
    parts = []
    for lo in range(0, roots.size, step):
        batch = roots[lo : lo + step]
        keys = np.arange(batch.size, dtype=np.int64) * n + batch
        keys = grow(graph, visited, keys, rng, budget)
        keys.sort()  # every member key, in (set, node) order
        visited[keys] = False  # clean bitmap for the next batch
        set_ids, nodes = np.divmod(keys, n)
        lengths = np.bincount(set_ids, minlength=batch.size)
        starts = np.concatenate(([0], np.cumsum(lengths[:-1])))
        widths = np.add.reduceat(in_degree[nodes], starts)
        parts.append((lengths, nodes, widths.astype(np.int64, copy=False)))
    if not parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    return tuple(np.concatenate(p) for p in zip(*parts))


def _grow_ic(graph, visited, frontier, rng, budget) -> np.ndarray:
    """Reverse BFS from every key of ``frontier`` at once, level by level.

    One coin per in-edge; marks members in ``visited`` and returns every
    member key.
    """
    in_w = graph.in_w

    def live(edge, row, frontier):
        return rng.random(edge.size) < in_w[edge]

    return grow_levels(
        graph.in_ptr, graph.in_src, graph.n, visited, frontier, live,
        RR_SLICE_EDGES, budget,
    )


def _grow_lt(graph, visited, walkers, rng, budget) -> np.ndarray:
    """Advance every reverse random walk one step at a time.

    Marks members in ``visited`` and returns every member key.  A walk
    at ``v`` picks in-edge ``j`` with probability ``w_j`` (no edge
    with the residual ``1 - sum(w)``) by locating ``cum[in_ptr[v]] + r``
    in the global prefix sums of the in-weights; it stops on a revisit.
    """
    n = graph.n
    in_ptr, in_src = graph.in_ptr, graph.in_src
    cum = np.concatenate(([0.0], np.cumsum(graph.in_w)))
    visited[walkers] = True
    members = [walkers]
    while walkers.size:
        if budget is not None:
            budget.check()
        nodes = walkers % n
        target = cum[in_ptr[nodes]] + rng.random(walkers.size)
        edge = np.searchsorted(cum, target, side="right") - 1
        moved = edge < in_ptr[nodes + 1]
        walkers = (walkers - nodes)[moved] + in_src[edge[moved]]
        walkers = walkers[~visited[walkers]]
        visited[walkers] = True
        members.append(walkers)
    return np.concatenate(members)


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
    roots = rng.integers(0, graph.n, size=count)
    return sample_rr_sets(graph, dynamics, roots, rng)


class FlatRRPool:
    """A pool of RR sets held as two int64 CSR pairs.

    Sets arrive in whole sampled chunks (:meth:`append_chunk`), so the
    set view is always flat; the inverted node→sets index is rebuilt
    lazily after any append.
    """

    __slots__ = (
        "n",
        "total_width",
        "_ptr",
        "_nodes",
        "_widths",
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
        self._node_ptr: np.ndarray | None = None
        self._node_sets: np.ndarray | None = None

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------

    def add(self, nodes: np.ndarray, width: int = 0) -> None:
        """Append one RR set to the pool (a one-set chunk)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        self.append_chunk(
            np.array([nodes.size], dtype=np.int64),
            nodes,
            np.array([width], dtype=np.int64),
        )

    def append_chunk(
        self, lengths: np.ndarray, flat: np.ndarray, widths: np.ndarray
    ) -> None:
        """Append a whole sampled chunk: ``(lengths, flat_nodes, widths)``."""
        self._node_ptr = self._node_sets = None  # stale: free it first
        self._ptr = np.concatenate(
            [self._ptr, self._ptr[-1] + np.cumsum(lengths, dtype=np.int64)]
        )
        self._nodes = np.concatenate([self._nodes, flat])
        self._widths = np.concatenate([self._widths, widths])
        self.total_width += int(widths.sum())

    def absorb(self, other: "FlatRRPool") -> None:
        """Append every set of ``other`` (D-SSA's pool recycling)."""
        if other.n != self.n:
            raise ValueError("pools cover different node universes")
        if len(other) == 0:
            return
        self.append_chunk(np.diff(other._ptr), other._nodes, other._widths)

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

        Serial sampling draws ``count`` uniform roots from ``rng`` and
        hands them to :func:`sample_rr_sets`.  ``workers > 1`` fans the
        sampling out over a process pool; each worker's stream is spawned
        from one ``SeedSequence`` drawn from ``rng``, so a fixed
        ``(count, workers)`` pair is reproducible.  ``budget`` (anything
        with ``check()``) is ticked inside the sampler when serial (per
        IC level slice, per LT walk step) and per returned chunk when
        parallel, so preemptive limits still interrupt long sampling
        phases.
        """
        if count <= 0:
            return
        tele = _tele()
        with tele.span("rrpool.sample"):
            if workers is not None and workers > 1 and count > 1:
                self._extend_parallel(graph, dynamics, count, rng, workers, budget)
            else:
                roots = rng.integers(0, graph.n, size=count)
                self.append_chunk(
                    *sample_rr_sets(graph, dynamics, roots, rng, budget)
                )
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
            self.append_chunk(lengths, flat, widths)

    # ------------------------------------------------------------------
    # CSR views
    # ------------------------------------------------------------------

    @property
    def set_ptr(self) -> np.ndarray:
        """Set-view CSR offsets (``num_sets + 1`` int64)."""
        return self._ptr

    @property
    def set_nodes(self) -> np.ndarray:
        """Set-view CSR payload: node ids, grouped by set."""
        return self._nodes

    @property
    def widths(self) -> np.ndarray:
        """Per-set width (in-edges examined while sampling it)."""
        return self._widths

    @property
    def node_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Inverted ``(node_ptr, node_sets)`` CSR, built lazily."""
        return self.inverted_index()

    def inverted_index(self, budget=None) -> tuple[np.ndarray, np.ndarray]:
        """Inverted ``(node_ptr, node_sets)`` CSR, built on first use.

        A counting sort: ``node_ptr`` comes from one ``bincount``, then
        set-aligned chunks of about ``INDEX_CHUNK_ENTRIES`` entries are
        sorted by node and their set ids scattered at a per-node cursor,
        so the build holds no pool-sized transient.  Within a node's
        slice, set ids appear in insertion order, matching the legacy
        ``member_of`` lists.  ``budget.check()`` runs once per chunk.
        """
        if self._node_ptr is None:
            with _tele().span("rrpool.invert_index"):
                self._node_ptr, self._node_sets = self._count_sort(budget)
        return self._node_ptr, self._node_sets

    def _count_sort(self, budget) -> tuple[np.ndarray, np.ndarray]:
        ptr, nodes = self._ptr, self._nodes
        node_ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(nodes, minlength=self.n), out=node_ptr[1:])
        node_sets = np.empty(nodes.size, dtype=np.int64)
        cursor = node_ptr[:-1].copy()
        narrow = self.n <= 2**16
        for first, stop in capped_runs(ptr[1:], INDEX_CHUNK_ENTRIES):
            if budget is not None:
                budget.check()
            chunk = nodes[ptr[first] : ptr[stop]]
            # A stable argsort of 16-bit keys runs as a radix sort.
            keys = chunk.astype(np.uint16) if narrow else chunk
            order = np.argsort(keys, kind="stable")
            ranked = chunk[order]
            # Runs of equal nodes in sorted order; a run's entries take
            # consecutive slots from its node's cursor, in set order.
            change = np.concatenate(([True], ranked[1:] != ranked[:-1]))
            runs = np.flatnonzero(change)
            run_len = np.diff(np.append(runs, ranked.size))
            heads = ranked[runs]
            slot = np.repeat(cursor[heads] - runs, run_len)
            slot += np.arange(ranked.size)
            set_ids = np.repeat(
                np.arange(first, stop, dtype=np.int64), np.diff(ptr[first : stop + 1])
            )
            node_sets[slot] = set_ids[order]
            cursor[heads] += run_len
        return node_ptr, node_sets

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
        return self._ptr.shape[0] - 1

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
    budget=None,
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
    ``budget.check()`` runs once per round (and per inverted-index chunk
    when the index is built here).
    """
    num_sets = len(pool)
    if num_sets == 0 or k <= 0:
        return [], 0.0
    with _tele().span("rrpool.max_cover"):
        n = pool.n
        set_ptr, set_nodes = pool.set_ptr, pool.set_nodes
        node_ptr, node_sets = pool.inverted_index(budget)
        count = np.bincount(set_nodes, minlength=n).astype(np.int64)
        # Members of newly covered sets are gathered at most about
        # INDEX_CHUNK_ENTRIES at a time: a seed covering most of the pool
        # (an epidemic IC graph's first pick) holds no pool-sized
        # transient.
        covered = np.zeros(num_sets, dtype=bool)
        seeds: list[int] = []
        for __ in range(min(k, n)):
            if budget is not None:
                budget.check()
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
            ends = np.cumsum(set_ptr[newly + 1] - set_ptr[newly])
            for lo, hi in capped_runs(ends, INDEX_CHUNK_ENTRIES):
                members = _gather_csr(set_ptr, set_nodes, newly[lo:hi])
                count -= np.bincount(members, minlength=n)
    return seeds[:k], float(covered.mean())
