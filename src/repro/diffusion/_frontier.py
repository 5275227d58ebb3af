"""Vectorized CSR walks, shared by every frontier-style walker.

One primitive underlies the per-cascade IC simulator, the path engine's
Dijkstra frontiers and the RR pool's set gathering: given CSR offsets
and a set of row ids, produce the flat index array of every payload slot
belonging to those rows in a single numpy expression (no per-row Python
loop).  ``expand_slices`` returns the *indices*; ``gather_csr``
additionally gathers the payload.  Both are int64-overflow-safe (the
cumulative sum is forced to int64 even when the inputs arrive as int32)
and short-circuit empty frontiers, so callers never pay array setup for
a finished walk.

``grow_levels`` is the one level loop of every batched breadth-first
walker: it grows many independent walks at once, keyed
``walk * n + node``.  The RR sampler runs it on the in-CSR (one
reverse-reachable IC set per walk), the Monte-Carlo kernel on the
out-CSR (one cascade per walk), and live-edge-world reachability
(:func:`repro.diffusion.snapshots.reach_keys`, behind the snapshot and
sketch oracles) on the out-CSR too (one world per walk).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "capped_runs",
    "expand_slices",
    "gather_csr",
    "grow_levels",
]


def expand_slices(ptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Flat indices of the CSR slices ``ptr[i]:ptr[i+1]`` for ``i in ids``."""
    ids = np.asarray(ids)
    if ids.size == 0:  # empty-frontier fast path
        return np.empty(0, dtype=np.int64)
    starts = ptr[ids].astype(np.int64, copy=False)
    counts = (ptr[ids + 1] - ptr[ids]).astype(np.int64, copy=False)
    # int64-safe cumsum: with int32 ptr inputs the running total could
    # otherwise wrap on pools past 2^31 slots.
    ends = np.cumsum(counts, dtype=np.int64)
    total = int(ends[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # For each slot, its offset within its row's slice, then shift by the
    # slice start: classic CSR expansion without a Python loop.
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + within


def gather_csr(ptr: np.ndarray, data: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Concatenate the CSR slices ``data[ptr[i]:ptr[i+1]]`` for ``i in ids``."""
    idx = expand_slices(ptr, ids)
    if idx.size == 0:
        return np.empty(0, dtype=data.dtype)
    return data[idx]


def capped_runs(ends: np.ndarray, cap: int):
    """Yield ``(lo, hi)`` runs of consecutive rows holding at most ``cap``
    entries, given the rows' cumulative entry counts ``ends``; a row with
    more forms its own run."""
    lo = 0
    while lo < ends.size:
        floor = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, floor + cap, side="right")), lo + 1)
        yield lo, hi
        lo = hi


def grow_levels(
    ptr: np.ndarray,
    nbr: np.ndarray,
    n: int,
    visited: np.ndarray,
    frontier: np.ndarray,
    live,
    slice_edges: int,
    budget=None,
) -> np.ndarray:
    """Breadth-first growth of many walks at once, one level per pass.

    Each key ``walk * n + node`` of ``frontier`` is a start member of its
    walk.  A level examines the CSR edges (``ptr``/``nbr``) of every
    frontier key exactly once, in slices of at most ``slice_edges`` edges
    (a node with more forms its own slice), which bounds the transient
    arrays and the work between two ``budget.check()`` calls.
    ``live(edge, row, frontier)`` returns which edges of a slice fire:
    ``edge`` holds their CSR ids and ``row`` the frontier position each
    leaves.  A fired edge keys its head into its tail's walk; an
    unvisited head joins the next level once, however many edges reach
    it.  Marks members in ``visited`` and returns every member key,
    level by level.
    """
    visited[frontier] = True
    members = [frontier]
    while frontier.size:
        nodes = frontier % n
        base = frontier - nodes  # key of each frontier entry's walk
        starts = ptr[nodes]
        counts = ptr[nodes + 1] - starts
        ends = np.cumsum(counts, dtype=np.int64)
        offset = starts - ends + counts  # edge id minus level position
        found = []
        for lo, hi in capped_runs(ends, slice_edges):
            if budget is not None:
                budget.check()
            floor = int(ends[lo - 1]) if lo else 0
            total = int(ends[hi - 1]) - floor
            if total:
                row = np.repeat(np.arange(lo, hi), counts[lo:hi])
                edge = np.arange(floor, floor + total) + offset[row]
                fired = live(edge, row, frontier)
                keys = base[row[fired]] + nbr[edge[fired]]
                keys = keys[~visited[keys]]
                if keys.size > 1:  # a node hit twice in one walk joins once
                    keys.sort()
                    first = np.concatenate(([True], keys[1:] != keys[:-1]))
                    keys = keys[first]
                visited[keys] = True
                found.append(keys)
        frontier = np.concatenate(found) if found else frontier[:0]
        members.append(frontier)
    return np.concatenate(members)
