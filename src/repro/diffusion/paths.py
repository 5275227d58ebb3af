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
  same candidate set; scatter-max and a binary heap agree on maxima.
* The **settle order** (which fixes PMIA's processing order, LDAG's edge
  orientation and all downstream float-accumulation orders) is replayed
  exactly.  Legacy order is non-increasing in ``pp``; inside a plateau of
  equal ``pp`` it is *chronological heap order*: nodes reached from a
  strictly-higher plateau are present from the start and pop by id, while
  nodes reached through an intra-plateau weight-1-style edge only become
  poppable once their achiever settles.  The kernel sorts by
  ``(-pp, id)`` and then replays only the plateaus that contain a member
  without an external achiever with a tiny heap simulation (rare: it
  requires an exact ``pp(x) * w == pp(y)`` tie with ``pp(x) == pp(y)``).
* **Parents** follow the legacy last-writer rule: the achiever
  (``pp(x) * w == pp(y)`` exactly, conducting) with the earliest settle
  rank.  PMIA's children lists are rebuilt in legacy dict-insertion
  order — first-push order, i.e. sorted by ``(first pusher's settle
  rank, child id)`` (in-CSR slices list sources in ascending id order).
* **Blocked nodes** (PMIA's prefix exclusion) receive a ``pp`` and a
  settle position but conduct nothing: they are dropped from frontier
  expansion and from achiever/pusher candidacy, exactly like the legacy
  ``continue`` after settling.

The structure stores keep each arborescence/DAG as small arrays in settle
order with a per-structure edge list pre-sorted for the sweeps; the
ap/alpha passes then process one settle *rank* at a time across every
structure, with ``np.add.at`` / ``np.multiply.at`` (element-order
sequential) reproducing the legacy per-node accumulation order exactly.

Incremental invalidation: the greedy loops key dirty sets off the
``containing[]`` inverted index (node → structures it appears in); each
round only the dirty structures are re-swept — and for PMIA rebuilt, as
one batched kernel call over the dirty roots.  ``path_workers`` fans the
initial build out over a process pool (contiguous root chunks, flat
arrays shipped back, deterministic merge — the kernel draws no
randomness, so unlike ``rr_workers``/``mc_workers`` no SeedSequence
spawning is needed and results are independent of the worker count).
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


def _scatter_max(pp: np.ndarray, keys: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Segmented max of ``vals`` into ``pp[keys]``; returns improved keys."""
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    vs = vals[order]
    bounds = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    uniq = ks[bounds]
    seg_max = np.maximum.reduceat(vs, bounds)
    improved = seg_max > pp[uniq]
    uniq = uniq[improved]
    pp[uniq] = seg_max[improved]
    return uniq


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
    # below the threshold cannot produce a single successful relaxation
    # (pp <= 1 and products only shrink), so the kernel drops it before
    # expansion — on probability-pruned searches the overwhelming share
    # of frontier nodes sit just above the threshold and die here.
    wmax = np.zeros(n, dtype=np.float64)
    nz = np.flatnonzero(np.diff(ptr) > 0)
    if nz.size:
        wmax[nz] = np.maximum.reduceat(w, ptr[nz])

    sources = np.asarray(sources, dtype=np.int64)
    step = max(1, min(len(sources), _MAX_DENSE // max(n, 1)))
    parts: list[tuple[np.ndarray, ...]] = []
    for lo in range(0, len(sources), step):
        parts.append(_kernel_batch(
            n, ptr, adj, w, sources[lo:lo + step], threshold, conduct, wmax,
        ))
    if len(parts) == 1:
        return parts[0]
    ptrs = [parts[0][0]]
    for part in parts[1:]:
        ptrs.append(part[0][1:] + ptrs[-1][-1])
    return tuple([np.concatenate(ptrs)] + [
        np.concatenate([part[j] for part in parts]) for j in range(1, 6)
    ])


def _kernel_batch(n, ptr, adj, w, sources, threshold, conduct, wmax):
    B = len(sources)
    pp = np.zeros(B * n, dtype=np.float64)
    rows = np.arange(B, dtype=np.int64)
    pp[rows * n + sources] = 1.0

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
        keep = ppx * wmax[fv] >= threshold
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
        pk_y.append(ky)
        pk_x.append(np.repeat(xkey, counts)[oki])
        pk_e.append(eidx[oki])
        upd = _scatter_max(pp, ky, cand[oki])
        if upd.size == 0:
            break
        fb, fv = np.divmod(upd, n)

    # Phase 2 — settle order: (-pp, id) within each row, then replay the
    # plateaus whose chronological order the sort cannot know.
    flat = np.flatnonzero(pp)
    rb, rv = np.divmod(flat, n)
    rpp = pp[flat]
    # ``flat`` is already (row, id)-sorted and lexsort is stable, so two
    # keys give the full (row, -pp, id) order.
    order = np.lexsort((-rpp, rb))
    rb, rv, rpp = rb[order], rv[order], rpp[order]
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
    # contribute duplicates (every consumer below tolerates them:
    # scatter flags, per-segment argmins with equal ranks, and the
    # replay's pushed-set guard are all idempotent).  Both endpoints of
    # every cached pair are reached (cand >= threshold was scatter-maxed
    # into y; x sat on the frontier) and x conducts (phase 1 drops
    # non-conducting frontier nodes), so no sentinel filtering is needed.
    if pk_y:
        kall_y = np.concatenate(pk_y)
        kall_x = np.concatenate(pk_x)
        kall_e = np.concatenate(pk_e)
    else:
        kall_y = kall_x = kall_e = np.empty(0, dtype=np.int64)
    posflat = np.empty(B * n, dtype=np.int64)
    posflat[rb * n + rv] = np.arange(R, dtype=np.int64)
    seg = posflat[kall_y]
    xseg = posflat[kall_x]
    aw = w[kall_e]
    axpp = rpp[xseg]
    aval = axpp * aw
    is_ach = aval == rpp[seg]
    is_source = rv == sources[rb]
    src_seg = is_source[seg]

    has_ext = np.zeros(R, dtype=bool)
    ext = is_ach & (axpp > rpp[seg])
    has_ext[seg[ext]] = True
    needs_fix = ~has_ext & ~is_source
    fix_plat = np.zeros(plat_start.size, dtype=bool)
    fix_plat[plat_id[needs_fix]] = True
    sim_mask = fix_plat & (plat_size > 1)
    sim_plats = np.flatnonzero(sim_mask)
    if sim_plats.size:
        # Pre-convert everything the replay loops touch to Python lists in
        # one vectorized pass each — per-element numpy scalar indexing
        # would dominate on tie-heavy weightings (WC/LT-uniform graphs
        # are full of exact 1/in-degree products and weight-1.0 chains).
        intra = np.flatnonzero(is_ach & (axpp == rpp[seg]) & ~src_seg)
        ipl = plat_id[seg[intra]]
        sel = sim_mask[ipl]
        intra, ipl = intra[sel], ipl[sel]
        io = np.argsort(ipl, kind="stable")
        intra = intra[io]
        bounds = np.searchsorted(ipl[io], sim_plats)
        bounds = np.r_[bounds, intra.size].tolist()
        intra_u = rv[xseg[intra]].tolist()
        intra_y = rv[seg[intra]].tolist()
        ready0 = (has_ext | is_source)
        rv_list = rv.tolist()
        ready0_list = ready0.tolist()
        ranks = final_rank.tolist()
        for j, p in enumerate(sim_plats.tolist()):
            s0 = int(plat_start[p])
            sz = int(plat_size[p])
            members = rv_list[s0:s0 + sz]  # ascending id = provisional order
            pos = {u: s0 + i for i, u in enumerate(members)}
            adjm: dict[int, list[int]] = {}
            for e in range(bounds[j], bounds[j + 1]):
                adjm.setdefault(intra_u[e], []).append(intra_y[e])
            ready = [u for u, ok in zip(members, ready0_list[s0:s0 + sz]) if ok]
            heapq.heapify(ready)
            pushed = set(ready)
            base = ranks[s0]
            settled = 0
            while ready:
                u = heapq.heappop(ready)
                ranks[pos[u]] = base + settled
                settled += 1
                for y in adjm.get(u, ()):
                    if y not in pushed:
                        pushed.add(y)
                        heapq.heappush(ready, y)
            # Defensive: every member is reachable through its achiever
            # chain; if the replay ever missed one, fall back to id order.
            if settled != sz:  # pragma: no cover
                for u in sorted(u for u in members if u not in pushed):
                    ranks[pos[u]] = base + settled
                    settled += 1
        final_rank = np.asarray(ranks, dtype=np.int64)

    # Phase 3 — parents (first-settling achiever) and first-push ranks.
    # Achiever pairs are a subset of pusher pairs (aval == pp(y) >= the
    # threshold), so one (segment, rank) sort serves both argmins: the
    # first entry per segment is the first pusher, and the first
    # achiever-flagged entry per segment is the parent.
    arank = final_rank[xseg]
    parent_pos = np.full(R, -1, dtype=np.int64)
    parent_w = np.zeros(R, dtype=np.float64)
    first_rank = np.full(R, -1, dtype=np.int64)
    push = np.flatnonzero((aval >= threshold) & ~src_seg)
    if push.size:
        pseg = seg[push]
        prank = arank[push]
        span = int(prank.max()) + 1
        po = push[np.argsort(pseg * span + prank, kind="stable")]
        so = seg[po]
        first = np.flatnonzero(np.r_[True, so[1:] != so[:-1]])
        first_rank[so[first]] = arank[po[first]]
        # Per segment, the smallest sorted position carrying an achiever
        # (a big sentinel marks non-achievers; duplicates of the winning
        # pair carry the same rank and edge, so any of them is the same
        # parent).
        pos_idx = np.where(is_ach[po], np.arange(po.size, dtype=np.int64),
                           po.size)
        amin = np.minimum.reduceat(pos_idx, first)
        hasa = amin < po.size
        segs_a = so[first][hasa]
        picks = po[amin[hasa]]
        parent_pos[segs_a] = arank[picks]
        parent_w[segs_a] = aw[picks]

    # Reorder to settle order by inverting the rank permutation (cheaper
    # than another sort: final_rank is a permutation within each row).
    out = np.empty(R, dtype=np.int64)
    out[row_ptr[rb] + final_rank] = np.arange(R, dtype=np.int64)
    return (row_ptr, rv[out], rpp[out], parent_pos[out], parent_w[out],
            first_rank[out])


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
            parts = run_chunks(
                _kernel_chunk,
                [(sources[lo:hi],) for lo, hi in spans],
                workers=len(spans),
                label="paths.dijkstra_batch",
                tick=tick,
                shared=(graph, threshold, reverse, blocked),
            )
            ptrs = [parts[0][0]]
            for part in parts[1:]:
                ptrs.append(part[0][1:] + ptrs[-1][-1])
            merged = tuple([np.concatenate(ptrs)] + [
                np.concatenate([part[j] for part in parts]) for j in range(1, 6)
            ])
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
            order = np.argsort(allnodes, kind="stable")
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

    def rebuild(self, idxs: list[int], blocked: np.ndarray,
                tick: Callable[[], None] | None = None) -> None:
        """Re-derive the arborescences of ``idxs`` with ``blocked`` seeds
        banned from interior positions, updating ``containing``."""
        tele = _tele()
        with tele.span("paths.rebuild"):
            roots = np.array([self.structures[i].root for i in idxs], dtype=np.int64)
            batch = batched_max_prob_paths(
                self.graph, roots, self.theta, reverse=True, blocked=blocked,
                tick=tick,
            )
            for i, tree in zip(idxs, _trees_from_batch(batch)):
                old = self.structures[i]
                old_nodes = set(int(u) for u in old.nodes)
                new_nodes = set(int(u) for u in tree.nodes)
                for u in old_nodes - new_nodes:
                    self._containing_mutable(u).discard(i)
                for u in new_nodes - old_nodes:
                    self._containing_mutable(u).add(i)
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
        sizes = np.array([len(t) for t in trees], dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(sizes)))
        T = int(starts[-1])
        fnodes = np.concatenate([t.nodes for t in trees]) if trees else np.empty(0, np.int64)
        ft = np.concatenate([t.e_tpos + s for t, s in zip(trees, starts)]) if trees else np.empty(0, np.int64)
        fc = np.concatenate([t.e_cpos + s for t, s in zip(trees, starts)]) if trees else np.empty(0, np.int64)
        fw = np.concatenate([t.e_w for t in trees]) if trees else np.empty(0, np.float64)
        tr = np.concatenate([t.e_tpos for t in trees]) if trees else np.empty(0, np.int64)
        eo = np.argsort(tr, kind="stable")
        ft, fc, fw, tr = ft[eo], fc[eo], fw[eo], tr[eo]
        max_size = int(sizes.max()) if sizes.size else 0
        rank_bounds = np.searchsorted(tr, np.arange(max_size + 1, dtype=np.int64))
        size_order = np.argsort(-sizes, kind="stable")
        starts_by_size = starts[size_order]
        n_at_rank = np.searchsorted(-sizes[size_order], -np.arange(max_size + 1, dtype=np.int64), side="left")

        seedm = in_seed[fnodes]
        ap = np.zeros(T, dtype=np.float64)
        miss = np.ones(T, dtype=np.float64)
        for r in range(max_size - 1, -1, -1):
            el = slice(rank_bounds[r], rank_bounds[r + 1])
            if el.start != el.stop:
                np.multiply.at(miss, ft[el], 1.0 - ap[fc[el]] * fw[el])
            mem = starts_by_size[: n_at_rank[r]] + r
            ap[mem] = np.where(seedm[mem], 1.0, 1.0 - miss[mem])

        alpha = np.zeros(T, dtype=np.float64)
        roots_flat = starts[:-1]
        alpha[roots_flat] = np.where(seedm[roots_flat], 0.0, 1.0)
        for r in range(max_size):
            el = slice(rank_bounds[r], rank_bounds[r + 1])
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

        gains = alpha * (1.0 - ap)
        out: list[tuple[np.ndarray, np.ndarray]] = []
        for i in range(len(trees)):
            sl = slice(int(starts[i]), int(starts[i + 1]))
            keep = ~seedm[sl]
            out.append((fnodes[sl][keep], gains[sl][keep]))
        return out


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
        sizes = np.array([len(d) for d in dags], dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(sizes)))
        T = int(starts[-1])
        fnodes = np.concatenate([d.nodes for d in dags]) if dags else np.empty(0, np.int64)
        ft = np.concatenate([d.e_tpos + s for d, s in zip(dags, starts)]) if dags else np.empty(0, np.int64)
        fs = np.concatenate([d.e_spos + s for d, s in zip(dags, starts)]) if dags else np.empty(0, np.int64)
        fw = np.concatenate([d.e_w for d in dags]) if dags else np.empty(0, np.float64)
        tr = np.concatenate([d.e_tpos for d in dags]) if dags else np.empty(0, np.int64)
        eo = np.argsort(tr, kind="stable")
        ft, fs, fw, tr = ft[eo], fs[eo], fw[eo], tr[eo]
        max_size = int(sizes.max()) if sizes.size else 0
        rank_bounds = np.searchsorted(tr, np.arange(max_size + 1, dtype=np.int64))
        size_order = np.argsort(-sizes, kind="stable")
        starts_by_size = starts[size_order]
        n_at_rank = np.searchsorted(-sizes[size_order], -np.arange(max_size + 1, dtype=np.int64), side="left")

        seedm = in_seed[fnodes]
        ap = np.zeros(T, dtype=np.float64)
        acc = np.zeros(T, dtype=np.float64)
        for r in range(max_size - 1, -1, -1):
            el = slice(rank_bounds[r], rank_bounds[r + 1])
            if el.start != el.stop:
                np.add.at(acc, ft[el], ap[fs[el]] * fw[el])
            mem = starts_by_size[: n_at_rank[r]] + r
            ap[mem] = np.where(seedm[mem], 1.0, np.minimum(acc[mem], 1.0))

        alpha = np.zeros(T, dtype=np.float64)
        roots_flat = starts[:-1]
        alpha[roots_flat] = np.where(seedm[roots_flat], 0.0, 1.0)
        for r in range(max_size):
            el = slice(rank_bounds[r], rank_bounds[r + 1])
            if el.start == el.stop:
                continue
            ft_s, fs_s, fw_s = ft[el], fs[el], fw[el]
            contrib = alpha[ft_s] * fw_s
            if r > 0:
                contrib = np.where(seedm[ft_s], 0.0, contrib)
            np.add.at(alpha, fs_s, contrib)

        gains = alpha * (1.0 - ap)
        out: list[tuple[np.ndarray, np.ndarray]] = []
        for i in range(len(dags)):
            sl = slice(int(starts[i]), int(starts[i + 1]))
            keep = ~seedm[sl]
            out.append((fnodes[sl][keep], gains[sl][keep]))
        return out


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
