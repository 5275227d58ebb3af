"""The dense multi-world reach loop of the snapshot oracle.

:class:`repro.diffusion.oracle.SnapshotOracle` once advanced all R
live-edge worlds together on an ``R×n`` frontier matrix: per level it
gathered the out-edges of the union frontier once and masked them per
world by the ``R×m`` live matrix.  It now grows ``world * n + node`` keys
on the shared level loop
(:func:`repro.diffusion.snapshots.reach_keys`), which pays only for live
state.  Reach counts are exact integers either way, so
``tests/test_properties.py`` compares the oracle's σ, gains and
committed σ with this loop's counts for equality.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.diffusion._frontier import expand_slices
from repro.graph.digraph import DiGraph

__all__ = ["dense_reach"]


def dense_reach(
    graph: DiGraph,
    live: np.ndarray,
    sources: Sequence[int],
    blocked: np.ndarray,
) -> np.ndarray:
    """Per-world mask of nodes newly reachable from ``sources``.

    ``live`` is the ``R×m`` live matrix and ``blocked`` an ``R×n`` mask.
    Blocked nodes neither count nor propagate: a node reachable only
    through a blocked node is itself already covered (reachability is
    transitive within a world), so stopping there is exact.
    """
    newly = np.zeros_like(blocked)
    src_idx = np.asarray(list(sources), dtype=np.int64)
    if src_idx.size == 0:
        return newly
    newly[:, src_idx] = True
    newly &= ~blocked
    frontier = newly.copy()
    out_ptr, out_dst = graph.out_ptr, graph.out_dst
    while frontier.any():
        union = np.nonzero(frontier.any(axis=0))[0]
        eidx = expand_slices(out_ptr, union)
        if eidx.size == 0:
            break
        counts = out_ptr[union + 1] - out_ptr[union]
        src = np.repeat(union, counts)
        hit = frontier[:, src] & live[:, eidx]
        w_idx, e_pos = np.nonzero(hit)
        if w_idx.size == 0:
            break
        cand = np.zeros_like(newly)
        cand[w_idx, out_dst[eidx][e_pos]] = True
        cand &= ~blocked & ~newly
        if not cand.any():
            break
        newly |= cand
        frontier = cand
    return newly
