"""Vectorized path-proxy engine for the MIA/LDAG family (PMIA, LDAG, IRIE).

The proxy-based techniques all start from the same primitive: bounded
max-product Dijkstra — the best path-propagation probability ``pp`` from a
source to every node whose product stays above a threshold (θ of PMIA,
η of LDAG, the 1/320 AP cutoff of IRIE's IE step).  The original
implementations (``max_probability_paths``, ``build_miia``,
``build_ldag``, kept under ``tests/reference`` as equivalence oracles)
run one Python ``dict`` + ``heapq`` loop per source; this module
replaces them with a **batched frontier-relaxation kernel** processing
many sources per call over the shared CSR gathers, plus flat
**local-structure stores** whose ap/alpha dynamic programs are
vectorized array sweeps.

Exactness guarantees (the engine is a drop-in, not an approximation):

* ``pp`` values are *bitwise* identical to the legacy helpers.  Both
  compute each candidate as ``pp(parent) * w`` — the same left-to-right
  float product along the same winning path — and take the max over the
  same candidate set; ``np.maximum.at`` and a binary heap agree on
  maxima.  Edge weights must be probabilities (at most 1).
* The **settle order** (which fixes PMIA's processing order, LDAG's edge
  orientation and all downstream float-accumulation orders) is replayed
  exactly.  Legacy order is non-increasing in ``pp``; inside a plateau of
  equal ``pp`` it is *chronological heap order*: nodes reached from a
  strictly-higher plateau are present from the start and pop by id, while
  nodes reached through an intra-plateau weight-1-style edge only become
  poppable once their achiever settles.  The kernel sorts by
  ``(-pp, id)``.  A plateau's heap order is id order exactly when every
  member without an external achiever (other than the source) has an
  intra-plateau achiever with a smaller id; only the other plateaus are
  replayed with a heap, from their first member that breaks the rule.
  Such plateaus are not rare: under WC and uniform LT every in-degree-1
  node makes a weight-1.0 tie.  One PMIA/WC plus LDAG/LT selection on
  livejournal (k = 2) has 47,788 plateaus with a member lacking an
  external achiever; 20,752 of them break the id-order rule.
* **Parents** follow the legacy last-writer rule: the achiever
  (``pp(x) * w == pp(y)`` exactly, conducting) with the earliest settle
  rank.  PMIA's children lists are rebuilt in legacy dict-insertion
  order — first-push order, i.e. sorted by ``(first pusher's settle
  rank, child id)`` (in-CSR slices list sources in ascending id order).
* **Blocked nodes** (PMIA's prefix exclusion) receive a ``pp`` and a
  settle position but conduct nothing: they are dropped from frontier
  expansion and from achiever/pusher candidacy, exactly like the legacy
  ``continue`` after settling.

Kernel mechanics: each call allocates one dense scratch (``pp``, a
reached bitmap and an int64 stamp/position array, rows × n) that every
batch reuses and clears cell by cell.  The settle sort is one stable
argsort of the packed key ``row * span + (bits(1.0) - bits(pp))``: for
positive floats the IEEE bit pattern is monotone, and the row cap per
batch (``2**63 // span``, computed from the threshold) keeps the key
inside int64.

The structure stores keep each arborescence/DAG as small arrays in settle
order with a per-structure edge list pre-sorted for the sweeps; the
ap/alpha passes then process one settle *rank* at a time across every
structure, with ``np.add.at`` / ``np.multiply.at`` (element-order
sequential) reproducing the legacy per-node accumulation order exactly.

Incremental invalidation: the greedy loops key dirty sets off the
``containing[]`` inverted index (node → structures it appears in); each
round only the dirty structures are re-swept.  PMIA rebuilds, as one
batched kernel call, only the dirty trees where the new seed can push
(``TreeStore.pushing``): in any other tree the kernel prunes the seed
before expanding it, blocked or not, so the rebuild would return the
same arrays bit for bit.  ``path_workers`` fans the initial build out
over a process pool (contiguous root chunks, flat arrays shipped back,
deterministic merge — the kernel draws no randomness, so unlike
``rr_workers``/``mc_workers`` no SeedSequence spawning is needed and
results are independent of the worker count).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

import numpy as np

from ._frontier import expand_slices

__all__ = [
    "PathBatch",
    "batched_max_prob_paths",
    "LocalTree",
    "LocalDag",
    "TreeStore",
    "DagStore",
    "build_tree_store",
    "build_dag_store",
]

#: Cap on batch rows so the dense (rows × n) pp scratch stays small.  The
#: sweet spot is a scratch that fits the last-level cache: the kernel's
#: scatter/gather traffic is random-access within it, and measured build
#: times on the largest catalog graph are ~2x worse at 8x this size.
_MAX_DENSE = 500_000


def _tele():
    # Lazy: a top-level framework import from diffusion would be circular
    # (framework → runner → algorithm registry → diffusion engines).
    from ..framework.telemetry import current

    return current()


def _can_push(pp, wmax, threshold):
    """Whether a node settled at ``pp`` whose best edge weighs ``wmax`` can
    relax any edge to ``threshold`` or above (``pp <= 1`` and products
    only shrink).  The kernel drops frontier nodes that fail it before
    expansion; ``TreeStore.pushing`` uses the same float product to find
    the trees that blocking a node cannot change."""
    return pp * wmax >= threshold


def _concat_parts(parts: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """Merge per-batch (or per-chunk) flat results, rows in part order."""
    if not parts:  # no sources
        i64 = np.empty(0, dtype=np.int64)
        f64 = np.empty(0, dtype=np.float64)
        return np.zeros(1, dtype=np.int64), i64, f64, i64, f64, i64
    if len(parts) == 1:
        return parts[0]
    ptrs = [parts[0][0]]
    for part in parts[1:]:
        ptrs.append(part[0][1:] + ptrs[-1][-1])
    return tuple([np.concatenate(ptrs)] + [
        np.concatenate([part[j] for part in parts]) for j in range(1, 6)
    ])


class PathBatch:
    """Flat per-source CSR of bounded max-probability paths.

    For source ``i``, ``slice(i)`` covers nodes in exact legacy settle
    order (the source itself first).  ``parent_pos`` indexes into the same
    slice (-1 for the source); ``parent_w`` is the weight of the edge to
    the parent; ``first_rank`` is the settle rank of the first pusher
    (-1 for the source) — the key that orders PMIA children lists.
    """

    __slots__ = ("sources", "threshold", "ptr", "node", "pp", "parent_pos",
                 "parent_w", "first_rank")

    def __init__(self, sources, threshold, ptr, node, pp, parent_pos,
                 parent_w, first_rank) -> None:
        self.sources = sources
        self.threshold = threshold
        self.ptr = ptr
        self.node = node
        self.pp = pp
        self.parent_pos = parent_pos
        self.parent_w = parent_w
        self.first_rank = first_rank

    def __len__(self) -> int:
        return len(self.sources)

    def size(self, i: int) -> int:
        return int(self.ptr[i + 1] - self.ptr[i])

    def slice(self, i: int) -> slice:
        return slice(int(self.ptr[i]), int(self.ptr[i + 1]))

    def pp_dict(self, i: int) -> dict[int, float]:
        """``{node: pp}`` excluding the source — legacy helper shape."""
        sl = self.slice(i)
        return {
            int(u): float(p)
            for u, p in zip(self.node[sl.start + 1:sl.stop], self.pp[sl.start + 1:sl.stop])
        }


def _kernel_chunk(
    graph,
    threshold: float,
    reverse: bool,
    blocked: np.ndarray | None,
    sources: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Serial batched kernel over one chunk of sources (worker-safe).

    Returns flat ``(ptr, node, pp, parent_pos, parent_w, first_rank)``.
    The chunk-invariant operands lead and ``sources`` trails, matching
    the pool's shared-args convention (``fn(*shared, *args)``).
    """
    n = graph.n
    if reverse:  # search toward the source along in-edges (MIIA / LDAG)
        ptr, adj, w = graph.in_ptr, graph.in_src, graph.in_w
    else:  # forward from the source (IRIE's IE step)
        ptr, adj, w = graph.out_ptr, graph.out_dst, graph.out_w
    conduct = None if blocked is None else ~np.asarray(blocked, dtype=bool)

    # Per-node best edge weight: a frontier node x with pp(x) * wmax(x)
    # below the threshold cannot produce a single successful relaxation,
    # so the kernel drops it before expansion — on probability-pruned
    # searches the overwhelming share of frontier nodes sit just above
    # the threshold and die here.
    wmax = np.zeros(n, dtype=np.float64)
    nz = np.flatnonzero(np.diff(ptr) > 0)
    if nz.size:
        wmax[nz] = np.maximum.reduceat(w, ptr[nz])
        if wmax.max() > 1.0:
            raise ValueError("edge weights must be probabilities (at most 1)")

    # Settle order sorts on one packed key per reached cell:
    # row * span + (bits(1.0) - bits(pp)).  Every reached pp lies in
    # [threshold, 1] and is positive, where the IEEE bit pattern is
    # monotone, so the key orders rows, then pp descending; the row cap
    # keeps the largest key inside int64.
    sources = np.asarray(sources, dtype=np.int64)
    top, low = np.array([1.0, max(threshold, 0.0)]).view(np.int64).tolist()
    span = max(top - low, 0) + 1
    step = max(1, min(len(sources), _MAX_DENSE // max(n, 1), 2**63 // span))
    # One scratch per call, cleared cell by cell after each batch: the
    # dense pp, a reached bitmap (its flatnonzero is the batch's keys in
    # (row, id) order) and an int64 stamp/position array.
    cells = step * n
    scratch = (
        np.zeros(cells, dtype=np.float64),
        np.zeros(cells, dtype=bool),
        np.empty(cells, dtype=np.int64),
    )
    parts = [
        _kernel_batch(n, ptr, adj, w, sources[lo:lo + step], threshold,
                      conduct, wmax, top, span, scratch)
        for lo in range(0, len(sources), step)
    ]
    return _concat_parts(parts)


def _kernel_batch(n, ptr, adj, w, sources, threshold, conduct, wmax, top,
                  span, scratch):
    pp, reached, stamp = scratch
    B = len(sources)
    rows = np.arange(B, dtype=np.int64)
    skeys = rows * n + sources
    pp[skeys] = 1.0
    reached[skeys] = True

    # Phase 1 — frontier relaxation (Bellman-Ford flavoured scatter-max).
    # Candidates are pp(parent) * w, exactly the heap's push values; the
    # converged maxima are therefore bitwise equal to Dijkstra's.  Every
    # above-threshold relaxation pair (x, y, edge) is cached as it is
    # produced: phase 2/3 consume exactly these pairs, so caching them
    # here spares a full CSR re-scan over the reached set later.
    fb, fv = rows, sources
    pk_y: list[np.ndarray] = []  # flat key of the relaxed target y
    pk_x: list[np.ndarray] = []  # flat key of the relaxing node x
    pk_e: list[np.ndarray] = []  # edge index of the (x, y) edge
    while fv.size:
        if conduct is not None:
            keep = conduct[fv] | (fv == sources[fb])
            fb, fv = fb[keep], fv[keep]
        xkey = fb * n + fv
        ppx = pp[xkey]
        # Hopeless-frontier prune: even the best edge cannot reach the
        # threshold, so expansion would contribute nothing.
        keep = _can_push(ppx, wmax[fv], threshold)
        fb, fv, xkey, ppx = fb[keep], fv[keep], xkey[keep], ppx[keep]
        if fv.size == 0:
            break
        counts = (ptr[fv + 1] - ptr[fv]).astype(np.int64, copy=False)
        eidx = expand_slices(ptr, fv)
        if eidx.size == 0:
            break
        cand = np.repeat(ppx, counts) * w[eidx]
        keys = np.repeat(fb * n, counts) + adj[eidx]
        oki = np.flatnonzero(cand >= threshold)
        if oki.size == 0:
            break
        ky = keys[oki]
        cv = cand[oki]
        pk_y.append(ky)
        pk_x.append(np.repeat(xkey, counts)[oki])
        pk_e.append(eidx[oki])
        # Scatter-max without a sort: only candidates above the current
        # value can improve a key, maximum.at keeps the largest, and the
        # stamp scratch keeps one entry per improved key.  The next
        # frontier comes out in candidate order; nothing downstream
        # depends on frontier order (see phase 2).
        better = cv > pp[ky]
        kb = ky[better]
        if kb.size == 0:
            break
        np.maximum.at(pp, kb, cv[better])
        idx = np.arange(kb.size, dtype=np.int64)
        stamp[kb] = idx
        upd = kb[stamp[kb] == idx]
        reached[upd] = True
        fb, fv = np.divmod(upd, n)

    # Phase 2 — settle order: (-pp, id) within each row, then replay the
    # plateaus whose chronological order differs from id order.
    flat = np.flatnonzero(reached[:B * n])  # (row, id) order
    rpp = pp[flat]
    pp[flat] = 0.0  # the scratch is clean again for the next batch
    reached[flat] = False
    rb = flat // n
    # flat is (row, id)-sorted, so a stable sort on the packed (row, -pp)
    # key gives the full (row, -pp, id) order.
    order = np.argsort(rb * span + (top - rpp.view(np.int64)), kind="stable")
    flat, rb, rpp = flat[order], rb[order], rpp[order]
    rv = flat - rb * n
    R = rv.size
    row_counts = np.bincount(rb, minlength=B)
    row_ptr = np.concatenate(([0], np.cumsum(row_counts, dtype=np.int64)))
    final_rank = np.arange(R, dtype=np.int64) - row_ptr[rb]

    newp = np.r_[True, (rb[1:] != rb[:-1]) | (rpp[1:] != rpp[:-1])]
    plat_id = np.cumsum(newp) - 1
    plat_start = np.flatnonzero(newp)
    plat_size = np.diff(np.r_[plat_start, R])

    # Everything order/parent related derives from the phase-1 pair
    # cache: an "achiever" of y is a conducting reached x with
    # pp(x) * w == pp(y).  The cache is a superset of all final-valid
    # pusher pairs — each x's *last* frontier visit relaxes with its
    # final pp(x), and pp only ever increases, so earlier visits merely
    # contribute duplicates.  Every consumer below is free of pair order
    # and tolerates duplicates: flags, per-position minima, and the
    # replay's pushed guard.  Both endpoints of every cached pair are
    # reached (cand >= threshold was scatter-maxed into y; x sat on the
    # frontier) and x conducts (phase 1 drops non-conducting frontier
    # nodes), so no sentinel filtering is needed.
    if pk_y:
        kall_y = np.concatenate(pk_y)
        kall_x = np.concatenate(pk_x)
        kall_e = np.concatenate(pk_e)
    else:
        kall_y = kall_x = kall_e = np.empty(0, dtype=np.int64)
    pos = np.arange(R, dtype=np.int64)
    stamp[flat] = pos
    seg = stamp[kall_y]
    xseg = stamp[kall_x]
    aw = w[kall_e]
    axpp = rpp[xseg]
    aval = axpp * aw
    is_ach = aval == rpp[seg]
    is_source = rv == sources[rb]
    src_seg = is_source[seg]

    # A plateau's heap order is id order exactly when every member with
    # no external achiever (and not the source) has an intra-plateau
    # achiever with a smaller id: by induction over ids, each member is
    # then in the heap by the time every smaller id has popped.  Within a
    # plateau, position order is id order, so positions stand in for ids.
    ready = np.zeros(R, dtype=bool)
    ready[seg[is_ach & (axpp > rpp[seg])]] = True
    ready |= is_source
    intra = np.flatnonzero(is_ach & (axpp == rpp[seg]) & ~src_seg)
    iy, ix = seg[intra], xseg[intra]
    first_ach = np.full(R, R, dtype=np.int64)
    np.minimum.at(first_ach, iy, ix)
    late = ~ready & (first_ach >= pos)
    if late.any():
        final_rank = _replay_plateaus(
            final_rank, plat_id, plat_start, plat_size, late, ready,
            first_ach, iy, ix,
        )

    # Phase 3 — parents (first-settling achiever) and first-push ranks,
    # as per-position minima over the pairs.  Achiever pairs are a subset
    # of pusher pairs (aval == pp(y) >= the threshold).  The parent key
    # packs (settle rank, pair index): duplicates of the winning pair
    # carry the same rank and edge, and the pair index breaks the tie in
    # cache order.
    arank = final_rank[xseg]
    parent_pos = np.full(R, -1, dtype=np.int64)
    parent_w = np.zeros(R, dtype=np.float64)
    first_rank = np.full(R, -1, dtype=np.int64)
    push = np.flatnonzero((aval >= threshold) & ~src_seg)
    if push.size:
        big = np.iinfo(np.int64).max
        fr = np.full(R, big, dtype=np.int64)
        np.minimum.at(fr, seg[push], arank[push])
        hit = fr < big
        first_rank[hit] = fr[hit]
        ach = push[is_ach[push]]
        npair = kall_y.size
        best = np.full(R, big, dtype=np.int64)
        np.minimum.at(best, seg[ach], arank[ach] * npair + ach)
        hit = np.flatnonzero(best < big)
        picks = best[hit] % npair
        parent_pos[hit] = arank[picks]
        parent_w[hit] = aw[picks]

    # Reorder to settle order by inverting the rank permutation (cheaper
    # than another sort: final_rank is a permutation within each row).
    out = np.empty(R, dtype=np.int64)
    out[row_ptr[rb] + final_rank] = pos
    return (row_ptr, rv[out], rpp[out], parent_pos[out], parent_w[out],
            first_rank[out])


def _replay_plateaus(final_rank, plat_id, plat_start, plat_size, late,
                     ready, first_ach, iy, ix):
    """Legacy heap order inside every plateau holding a ``late`` member
    (``late``: neither ready nor pushed by a smaller id).

    Members start poppable when ``ready`` (an external achiever, or the
    source); the rest enter the heap when an intra-plateau achiever pops
    (pairs ``ix`` → ``iy``, as positions).  Under WC and uniform LT every
    in-degree-1 node makes a weight-1.0 tie, so this runs on tens of
    thousands of plateaus per livejournal pass.  Members before a
    plateau's first late one pop in id order (the induction of the
    caller holds on that prefix), so each heap starts there, holding the
    later members that are ready or that the prefix pushed
    (``first_ach`` is each member's smallest intra-achiever position).
    The loop runs on the suffixes' positions, renumbered densely (order
    is kept, so position order is still id order), with one CSR of intra
    pairs and one bytearray of pushed flags.
    """
    lpos = np.flatnonzero(late)
    lp = plat_id[lpos]
    head = np.flatnonzero(np.r_[True, lp[1:] != lp[:-1]])
    plats, cut = lp[head], lpos[head]  # each plateau's first late member
    lens = plat_start[plats] + plat_size[plats] - cut
    ends = np.cumsum(lens)
    M = int(ends[-1])
    slots = np.arange(M, dtype=np.int64) + np.repeat(cut - (ends - lens), lens)
    local = np.full(final_rank.size, -1, dtype=np.int64)
    local[slots] = np.arange(M, dtype=np.int64)
    init = ready[slots] | (first_ach[slots] < np.repeat(cut, lens))
    lx, ly = local[ix], local[iy]
    keep = (lx >= 0) & (ly >= 0)
    lx, ly = lx[keep], ly[keep]
    succ = ly[np.argsort(lx, kind="stable")].tolist()
    sptr = np.zeros(M + 1, dtype=np.int64)
    np.cumsum(np.bincount(lx, minlength=M), out=sptr[1:])
    sptr = sptr.tolist()
    starts = np.flatnonzero(init)
    bounds = np.searchsorted(starts, np.r_[0, ends]).tolist()
    starts = starts.tolist()
    pushed = bytearray(init.tobytes())
    heappop, heappush = heapq.heappop, heapq.heappush
    pops: list[int] = []
    for j in range(len(bounds) - 1):
        heap = starts[bounds[j]:bounds[j + 1]]  # ascending: already a heap
        while heap:
            u = heappop(heap)
            pops.append(u)
            for y in succ[sptr[u]:sptr[u + 1]]:
                if not pushed[y]:
                    pushed[y] = 1
                    heappush(heap, y)
    # The i-th pop of a suffix takes the suffix's i-th rank; a member the
    # replay never reached would leave the two lists unequal.
    final_rank[slots[np.asarray(pops, dtype=np.int64)]] = final_rank[slots]
    return final_rank


def _worker_chunks(count: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous (lo, hi) chunks, one per worker, sizes as even as possible."""
    workers = max(1, min(workers, count))
    sizes = np.full(workers, count // workers, dtype=np.int64)
    sizes[: count % workers] += 1
    ends = np.cumsum(sizes)
    return [(int(e - s), int(e)) for s, e in zip(sizes, ends)]


def batched_max_prob_paths(
    graph,
    sources,
    threshold: float,
    *,
    reverse: bool = False,
    blocked: np.ndarray | None = None,
    workers: int | None = None,
    tick: Callable[[], None] | None = None,
) -> PathBatch:
    """Bounded max-product Dijkstra for many sources in one call.

    ``reverse=True`` searches along in-edges toward each source (the
    MIIA/LDAG orientation); ``reverse=False`` searches forward along
    out-edges (IRIE's IE step).  ``blocked`` nodes settle but conduct
    nothing (PMIA's prefix exclusion; a blocked source still conducts).
    ``workers`` > 1 fans contiguous source chunks over a process pool —
    the kernel is deterministic, so the result is identical at any
    worker count.  ``tick`` is called between chunks (budget checks).
    """
    sources = np.asarray(sources, dtype=np.int64)
    tele = _tele()
    with tele.span("paths.dijkstra_batch"):
        if workers is not None and workers > 1 and len(sources) > 1:
            from ..framework.pool import run_chunks  # lazy: import cycle

            spans = _worker_chunks(len(sources), workers)
            tele.count("paths.worker_chunks", len(spans))
            # The kernel is deterministic, so the resilient pool can
            # replay a lost chunk exactly; parts merge in span order.
            # The graph and search parameters are chunk-invariant and
            # ride the shared-args transport (shm arena when big enough).
            merged = _concat_parts(run_chunks(
                _kernel_chunk,
                [(sources[lo:hi],) for lo, hi in spans],
                workers=len(spans),
                label="paths.dijkstra_batch",
                tick=tick,
                shared=(graph, threshold, reverse, blocked),
            ))
        else:
            merged = _kernel_chunk(graph, threshold, reverse, blocked, sources)
            if tick is not None:
                tick()
    tele.count("paths.dijkstra_sources", len(sources))
    return PathBatch(sources, threshold, *merged)


# ---------------------------------------------------------------------------
# Local structure stores (MIA arborescences and LDAGs as flat sub-DAGs)
# ---------------------------------------------------------------------------


class LocalTree:
    """One MIIA arborescence in flat form (nodes in settle order, root first).

    ``e_*`` lists the child→parent edges sorted by (parent position,
    first-push rank, child id) — legacy children-list order — so the tree
    DPs can multiply sibling misses in the exact legacy sequence.
    """

    __slots__ = ("root", "nodes", "pp", "parent_pos", "parent_w",
                 "e_tpos", "e_cpos", "e_w")

    def __init__(self, root, nodes, pp, parent_pos, parent_w,
                 e_tpos, e_cpos, e_w) -> None:
        self.root = root
        self.nodes = nodes
        self.pp = pp
        self.parent_pos = parent_pos
        self.parent_w = parent_w
        self.e_tpos = e_tpos
        self.e_cpos = e_cpos
        self.e_w = e_w

    def __len__(self) -> int:
        return len(self.nodes)


class LocalDag:
    """One LDAG in flat form (nodes in settle order, root first).

    Edges are the kept graph edges (y → x with rank(y) > rank(x)) as
    (target position, source position, weight), sorted by target position
    with the in-CSR order preserved inside each target — the legacy
    ``in_edges[x]`` accumulation order.
    """

    __slots__ = ("root", "nodes", "pp", "e_tpos", "e_spos", "e_w")

    def __init__(self, root, nodes, pp, e_tpos, e_spos, e_w) -> None:
        self.root = root
        self.nodes = nodes
        self.pp = pp
        self.e_tpos = e_tpos
        self.e_spos = e_spos
        self.e_w = e_w

    def __len__(self) -> int:
        return len(self.nodes)


def _trees_from_batch(batch: PathBatch) -> list[LocalTree]:
    # Children ordering for every tree in one global stable lexsort: the
    # structure index is the outermost key, so per-tree slices of the
    # sorted edge list are exactly the per-tree (parent position,
    # first-push rank, child id) orders.
    ptr = batch.ptr
    S = len(batch)
    M = batch.node.size
    srow = np.repeat(np.arange(S, dtype=np.int64), np.diff(ptr))
    local = np.arange(M, dtype=np.int64) - ptr[srow]
    child = np.flatnonzero(local > 0)  # every non-root entry is an edge
    # One composite integer key replaces a 4-key lexsort (~8x faster):
    # all operands are bounded by the batch size / row sizes, so the
    # packed key stays in ~42 bits.
    nd = batch.node[child]
    fr = batch.first_rank[child]
    ppos = batch.parent_pos[child]
    sr = srow[child]
    if child.size:
        m1 = int(ppos.max()) + 1
        m2 = int(fr.max()) + 1
        m3 = int(nd.max()) + 1
        if S * m1 * m2 * m3 < 2 ** 62:  # Python ints: no silent overflow
            comp = ((sr * m1 + ppos) * m2 + fr) * m3 + nd
            eo = child[np.argsort(comp, kind="stable")]
        else:  # pragma: no cover - graphs beyond the packed-key range
            eo = child[np.lexsort((nd, fr, ppos, sr))]
    else:
        eo = child
    e_cpos_all = local[eo]
    e_tpos_all = batch.parent_pos[eo]
    e_w_all = batch.parent_w[eo]
    e_ptr = ptr[1:] - np.arange(1, S + 1, dtype=np.int64)  # minus the roots
    e_ptr = np.concatenate(([0], e_ptr))
    trees: list[LocalTree] = []
    sources = batch.sources.tolist()
    for i in range(S):
        sl = batch.slice(i)
        el = slice(int(e_ptr[i]), int(e_ptr[i + 1]))
        trees.append(LocalTree(
            sources[i], batch.node[sl], batch.pp[sl],
            batch.parent_pos[sl], batch.parent_w[sl],
            e_tpos_all[el], e_cpos_all[el], e_w_all[el],
        ))
    return trees


def _dag_chunk(graph, eta, roots) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Kernel chunk + intra-DAG edge extraction (worker-safe).

    Edges are recovered in row blocks against a reused dense
    (row, node) → settle-rank scratch, with non-member sources
    compressed away before the weight gather.  Chunk-invariant operands
    lead (the pool's shared-args convention).
    """
    flat = _kernel_chunk(graph, eta, True, None, roots)
    ptr, node = flat[0], flat[1]
    n = graph.n
    nr = len(roots)
    step = max(1, min(nr, _MAX_DENSE // max(n, 1)))
    rank_flat = np.full(step * n, -1, dtype=np.int64)
    rows, tpos, spos, ws = [], [], [], []
    for lo in range(0, nr, step):
        hi = min(lo + step, nr)
        mlo, mhi = int(ptr[lo]), int(ptr[hi])
        nd = node[mlo:mhi]
        lptr = ptr[lo:hi + 1] - ptr[lo]
        srow = np.repeat(np.arange(hi - lo, dtype=np.int64), np.diff(lptr))
        rank = np.arange(mhi - mlo, dtype=np.int64) - lptr[srow]
        nflat = srow * n + nd
        rank_flat[nflat] = rank
        cnts = (graph.in_ptr[nd + 1] - graph.in_ptr[nd]).astype(np.int64, copy=False)
        eidx = expand_slices(graph.in_ptr, nd)
        es = np.repeat(np.arange(nd.size, dtype=np.int64), cnts)
        ey = graph.in_src[eidx].astype(np.int64, copy=False)
        eyrank = rank_flat[srow[es] * n + ey]
        kidx = np.flatnonzero(eyrank > rank[es])  # non-members carry -1
        es_k = es[kidx]
        rows.append(srow[es_k] + lo)
        tpos.append(rank[es_k])
        spos.append(eyrank[kidx])
        ws.append(graph.in_w[eidx[kidx]])
        rank_flat[nflat] = -1  # reset the scratch for the next block
    e_row = np.concatenate(rows) if rows else np.empty(0, np.int64)
    e_tpos = np.concatenate(tpos) if tpos else np.empty(0, np.int64)
    e_spos = np.concatenate(spos) if spos else np.empty(0, np.int64)
    e_w = np.concatenate(ws) if ws else np.empty(0, np.float64)
    e_ptr = np.searchsorted(e_row, np.arange(nr + 1, dtype=np.int64))
    return flat, (e_ptr, e_tpos, e_spos, e_w)


def _dags_from_chunk(roots, flat, edges) -> list[LocalDag]:
    ptr = flat[0]
    e_ptr, e_tpos, e_spos, e_w = edges
    dags: list[LocalDag] = []
    for i in range(len(roots)):
        sl = slice(int(ptr[i]), int(ptr[i + 1]))
        el = slice(int(e_ptr[i]), int(e_ptr[i + 1]))
        dags.append(LocalDag(
            int(roots[i]), flat[1][sl], flat[2][sl],
            e_tpos[el], e_spos[el], e_w[el],
        ))
    return dags


class _Sweep:
    """The structures of one ``gains`` call as flat arrays for the
    rank-at-a-time DP sweeps.

    Nodes are concatenated in structure order (``starts`` delimits them).
    Each edge is (target, other end, weight) in that flat numbering — the
    other end is a tree child or a DAG source — stably ordered by target
    rank, so every rank keeps each structure's legacy edge order;
    ``edges(r)`` is rank ``r``'s slice.  ``members(r)`` is the flat
    position of rank ``r`` in every structure that has one.
    """

    def __init__(self, structures: list, others: list, in_seed: np.ndarray) -> None:
        sizes = np.array([len(st) for st in structures], dtype=np.int64)
        self.starts = np.concatenate(([0], np.cumsum(sizes)))
        self.size = int(self.starts[-1])
        self.max_size = int(sizes.max()) if sizes.size else 0
        if structures:
            self.nodes = np.concatenate([st.nodes for st in structures])
            tr = np.concatenate([st.e_tpos for st in structures])
            fo = np.concatenate(others)
            fw = np.concatenate([st.e_w for st in structures])
        else:
            self.nodes = tr = fo = np.empty(0, dtype=np.int64)
            fw = np.empty(0, dtype=np.float64)
        shift = np.repeat(self.starts[:-1], [len(o) for o in others])
        # A stable argsort of 16-bit keys runs as a radix sort.
        keys = tr.astype(np.uint16) if self.max_size <= 2**16 else tr
        eo = np.argsort(keys, kind="stable")
        tr, shift = tr[eo], shift[eo]
        self.target, self.other, self.w = tr + shift, fo[eo] + shift, fw[eo]
        self.rank_bounds = np.searchsorted(
            tr, np.arange(self.max_size + 1, dtype=np.int64)
        )
        size_order = np.argsort(-sizes, kind="stable")
        self.starts_by_size = self.starts[size_order]
        self.n_at_rank = np.searchsorted(
            -sizes[size_order], -np.arange(self.max_size + 1, dtype=np.int64),
            side="left",
        )
        self.seedm = in_seed[self.nodes]

    def edges(self, r: int) -> slice:
        return slice(self.rank_bounds[r], self.rank_bounds[r + 1])

    def members(self, r: int) -> np.ndarray:
        return self.starts_by_size[: self.n_at_rank[r]] + r

    def split(self, gains: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-structure ``(nodes, gain)`` of the non-seed members."""
        keep = ~self.seedm
        nodes, gains = self.nodes[keep], gains[keep]
        ptr = np.concatenate(([0], np.cumsum(keep, dtype=np.int64)))
        bounds = ptr[self.starts].tolist()
        return [
            (nodes[lo:hi], gains[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])
        ]


class _StoreBase:
    """Shared shape: per-structure records + the containing inverted index."""

    def __init__(self, graph, structures: list) -> None:
        self.graph = graph
        self.structures = structures
        # Inverted index (node → structures it appears in) as a CSR built
        # from one stable argsort of the (member, structure) pairs; the
        # stable sort keeps structure ids ascending inside each node
        # group.  Per-node sets materialize lazily, only once ``rebuild``
        # first mutates a node's membership — store construction itself
        # never pays for set building.
        if structures:
            sizes = np.array([len(st) for st in structures], dtype=np.int64)
            allnodes = np.concatenate([st.nodes for st in structures])
            alli = np.repeat(np.arange(len(structures), dtype=np.int64), sizes)
            # A stable argsort of 16-bit keys runs as a radix sort.
            narrow = graph.n <= 2**16
            order = np.argsort(
                allnodes.astype(np.uint16) if narrow else allnodes, kind="stable"
            )
            sn = allnodes[order]
            self._inv_ids = alli[order]
            self._inv_ptr = np.searchsorted(sn, np.arange(graph.n + 1, dtype=np.int64))
        else:
            self._inv_ids = np.empty(0, dtype=np.int64)
            self._inv_ptr = np.zeros(graph.n + 1, dtype=np.int64)
        self._overlay: dict[int, set[int]] = {}

    def __len__(self) -> int:
        return len(self.structures)

    def sizes(self) -> np.ndarray:
        return np.array([len(st) for st in self.structures], dtype=np.int64)

    def _containing_mutable(self, u: int) -> set[int]:
        """The (lazily materialized) mutable membership set of node ``u``."""
        s = self._overlay.get(u)
        if s is None:
            lo, hi = int(self._inv_ptr[u]), int(self._inv_ptr[u + 1])
            s = set(self._inv_ids[lo:hi].tolist())
            self._overlay[u] = s
        return s

    def dirty(self, seed: int) -> list[int]:
        """Structures invalidated by inserting ``seed`` (ascending index)."""
        s = self._overlay.get(seed)
        if s is not None:
            return sorted(s)
        lo, hi = int(self._inv_ptr[seed]), int(self._inv_ptr[seed + 1])
        return self._inv_ids[lo:hi].tolist()


class TreeStore(_StoreBase):
    """All MIIA arborescences of a graph + the batched tree DPs (PMIA)."""

    def __init__(self, graph, theta: float, trees: list[LocalTree]) -> None:
        super().__init__(graph, trees)
        self.theta = theta

    def pushing(self, idxs: list[int], seed: int) -> list[int]:
        """The arborescences of ``idxs`` that blocking ``seed`` can change.

        Blocking ``seed`` changes MIIA(v) only if v != seed (a blocked
        root still conducts) and the kernel expands ``seed`` there:
        ``pp_v(seed) * wmax(seed) >= θ``, with ``wmax`` the largest
        in-weight of ``seed`` — the kernel's own hopeless-frontier test
        (:func:`_can_push`).  In every other arborescence the kernel prunes
        ``seed`` before expanding it, blocked or not, so a rebuild would
        return the same arrays bit for bit; they keep their arrays and
        their membership.  (Their ap/alpha still change: ``gains`` must
        re-sweep every structure holding ``seed``.)
        """
        trees = [self.structures[i] for i in idxs]
        nodes = np.concatenate([t.nodes for t in trees])
        ends = np.cumsum([len(t) for t in trees])
        hit = np.flatnonzero(nodes == seed)
        pp_seed = np.zeros(len(trees), dtype=np.float64)
        pp_seed[np.searchsorted(ends, hit, side="right")] = (
            np.concatenate([t.pp for t in trees])[hit]
        )
        lo, hi = self.graph.in_ptr[seed], self.graph.in_ptr[seed + 1]
        wmax = self.graph.in_w[lo:hi].max() if hi > lo else 0.0
        roots = np.array([t.root for t in trees], dtype=np.int64)
        keep = _can_push(pp_seed, wmax, self.theta) & (roots != seed)
        return [i for i, k in zip(idxs, keep.tolist()) if k]

    def rebuild(self, idxs: list[int], blocked: np.ndarray,
                tick: Callable[[], None] | None = None) -> None:
        """Re-derive the arborescences of ``idxs`` with ``blocked`` seeds
        banned from interior positions, updating ``containing``."""
        if not idxs:
            return
        tele = _tele()
        n = self.graph.n
        with tele.span("paths.rebuild"):
            ids = np.asarray(idxs, dtype=np.int64)
            batch = batched_max_prob_paths(
                self.graph, [self.structures[i].root for i in idxs], self.theta,
                reverse=True, blocked=blocked, tick=tick,
            )
            # Membership changes as (structure, node) keys: old-only keys
            # leave ``containing``, new-only keys join it.
            old = [self.structures[i].nodes for i in idxs]
            old_keys = np.repeat(ids * n, [len(a) for a in old]) + np.concatenate(old)
            new_keys = np.repeat(ids * n, np.diff(batch.ptr)) + batch.node
            for key in np.setdiff1d(old_keys, new_keys, assume_unique=True).tolist():
                self._containing_mutable(key % n).discard(key // n)
            for key in np.setdiff1d(new_keys, old_keys, assume_unique=True).tolist():
                self._containing_mutable(key % n).add(key // n)
            for i, tree in zip(idxs, _trees_from_batch(batch)):
                self.structures[i] = tree
        tele.count("paths.structures_rebuilt", len(idxs))

    def gains(self, idxs: list[int], in_seed: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-structure ``(nodes, gain)`` for non-seed members.

        The DP replays the legacy tree passes rank-by-rank: ap leaves
        first (sibling misses multiplied in children order), alpha root
        first (total-miss / own-miss with the legacy tiny-miss fallback).
        """
        with _tele().span("paths.ap_sweep"):
            return self._gains(idxs, in_seed)

    def _gains(self, idxs: list[int], in_seed: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        trees = [self.structures[i] for i in idxs]
        sw = _Sweep(trees, [t.e_cpos for t in trees], in_seed)
        ft, fc, fw, seedm = sw.target, sw.other, sw.w, sw.seedm

        ap = np.zeros(sw.size, dtype=np.float64)
        miss = np.ones(sw.size, dtype=np.float64)
        for r in range(sw.max_size - 1, -1, -1):
            el = sw.edges(r)
            if el.start != el.stop:
                np.multiply.at(miss, ft[el], 1.0 - ap[fc[el]] * fw[el])
            mem = sw.members(r)
            ap[mem] = np.where(seedm[mem], 1.0, 1.0 - miss[mem])

        alpha = np.zeros(sw.size, dtype=np.float64)
        roots_flat = sw.starts[:-1]
        alpha[roots_flat] = np.where(seedm[roots_flat], 0.0, 1.0)
        for r in range(sw.max_size):
            el = sw.edges(r)
            if el.start == el.stop:
                continue
            ft_s, fc_s, fw_s = ft[el], fc[el], fw[el]
            m = 1.0 - ap[fc_s] * fw_s
            bnd = np.flatnonzero(np.r_[True, ft_s[1:] != ft_s[:-1]])
            cmp_idx = np.cumsum(np.r_[False, ft_s[1:] != ft_s[:-1]])
            tot = np.ones(bnd.size, dtype=np.float64)
            np.multiply.at(tot, cmp_idx, m)
            siblings = np.empty(m.size, dtype=np.float64)
            okm = m > 1e-12
            siblings[okm] = tot[cmp_idx[okm]] / m[okm]
            for j in np.flatnonzero(~okm):
                p = cmp_idx[j]
                lo = bnd[p]
                hi = bnd[p + 1] if p + 1 < bnd.size else m.size
                sib = 1.0
                for q in range(lo, hi):
                    if q != j:
                        sib *= m[q]
                siblings[j] = sib
            apar = alpha[ft_s]
            if r > 0:
                apar = np.where(seedm[ft_s], 0.0, apar)
            alpha[fc_s] = apar * fw_s * siblings

        return sw.split(alpha * (1.0 - ap))


class DagStore(_StoreBase):
    """All LDAGs of a graph + the batched linear-threshold DPs (LDAG)."""

    def __init__(self, graph, eta: float, dags: list[LocalDag]) -> None:
        super().__init__(graph, dags)
        self.eta = eta

    def gains(self, idxs: list[int], in_seed: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-structure ``(nodes, gain)`` for non-seed members.

        ap: rank-descending sweep of ``min(Σ ap(y)·w, 1)`` (in-CSR order
        inside each target); alpha: rank-ascending propagation stopping
        at seeds — both in legacy float-accumulation order.
        """
        with _tele().span("paths.ap_sweep"):
            return self._gains(idxs, in_seed)

    def _gains(self, idxs: list[int], in_seed: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        dags = [self.structures[i] for i in idxs]
        sw = _Sweep(dags, [d.e_spos for d in dags], in_seed)
        ft, fs, fw, seedm = sw.target, sw.other, sw.w, sw.seedm

        ap = np.zeros(sw.size, dtype=np.float64)
        acc = np.zeros(sw.size, dtype=np.float64)
        for r in range(sw.max_size - 1, -1, -1):
            el = sw.edges(r)
            if el.start != el.stop:
                np.add.at(acc, ft[el], ap[fs[el]] * fw[el])
            mem = sw.members(r)
            ap[mem] = np.where(seedm[mem], 1.0, np.minimum(acc[mem], 1.0))

        alpha = np.zeros(sw.size, dtype=np.float64)
        roots_flat = sw.starts[:-1]
        alpha[roots_flat] = np.where(seedm[roots_flat], 0.0, 1.0)
        for r in range(sw.max_size):
            el = sw.edges(r)
            if el.start == el.stop:
                continue
            ft_s, fs_s, fw_s = ft[el], fs[el], fw[el]
            contrib = alpha[ft_s] * fw_s
            if r > 0:
                contrib = np.where(seedm[ft_s], 0.0, contrib)
            np.add.at(alpha, fs_s, contrib)

        return sw.split(alpha * (1.0 - ap))


def build_tree_store(
    graph,
    theta: float,
    *,
    workers: int | None = None,
    tick: Callable[[], None] | None = None,
) -> TreeStore:
    """MIIA(v, θ) for every node of the graph, batched (and optionally
    fanned over a process pool)."""
    with _tele().span("paths.build_structures"):
        batch = batched_max_prob_paths(
            graph, np.arange(graph.n, dtype=np.int64), theta,
            reverse=True, workers=workers, tick=tick,
        )
        return TreeStore(graph, theta, _trees_from_batch(batch))


def build_dag_store(
    graph,
    eta: float,
    *,
    workers: int | None = None,
    tick: Callable[[], None] | None = None,
) -> DagStore:
    """LDAG(v, η) for every node of the graph, batched (and optionally
    fanned over a process pool)."""
    tele = _tele()
    with tele.span("paths.build_structures"):
        roots = np.arange(graph.n, dtype=np.int64)
        if workers is not None and workers > 1 and graph.n > 1:
            from ..framework.pool import run_chunks  # lazy: import cycle

            spans = _worker_chunks(graph.n, workers)
            tele.count("paths.worker_chunks", len(spans))
            parts = run_chunks(
                _dag_chunk,
                [(roots[lo:hi],) for lo, hi in spans],
                workers=len(spans),
                label="paths.build_structures",
                tick=tick,
                shared=(graph, eta),
            )
            dags: list[LocalDag] = []
            for (lo, hi), (flat, edges) in zip(spans, parts):
                dags.extend(_dags_from_chunk(roots[lo:hi], flat, edges))
        else:
            flat, edges = _dag_chunk(graph, eta, roots)
            dags = _dags_from_chunk(roots, flat, edges)
            if tick is not None:
                tick()
    return DagStore(graph, eta, dags)
