"""Shared fixtures for the test suite (exact oracles live in oracles.py)."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.framework.shm import SEGMENT_PREFIX
from repro.graph.digraph import DiGraph


def own_shm_segments() -> list[str]:
    """Names of the shared-memory segments this process published that are
    still in ``/dev/shm``.

    Segment names carry the creating pid, so another process's live arena
    (a concurrent benchmark run, say) is not taken for a leak.  Every
    arena the suite asserts on is published by the test process itself:
    a pool nested in an isolated child runs serially and publishes none.
    """
    prefix = f"{SEGMENT_PREFIX}_{os.getpid()}_"
    try:
        return sorted(f for f in os.listdir("/dev/shm") if f.startswith(prefix))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def line_graph():
    """0 -> 1 -> 2 -> 3 with weights 0.5 each."""
    return DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], weights=[0.5, 0.5, 0.5])


@pytest.fixture
def diamond_graph():
    """0 -> {1, 2} -> 3."""
    return DiGraph.from_edges(
        4, [(0, 1), (0, 2), (1, 3), (2, 3)], weights=[0.5, 0.5, 0.5, 0.5]
    )


@pytest.fixture
def star_graph():
    """Hub 0 pointing to 1..5 with weight 0.3."""
    return DiGraph.from_edges(6, [(0, i) for i in range(1, 6)], weights=[0.3] * 5)


@pytest.fixture
def two_cliques():
    """Two directed 3-cliques {0,1,2} and {3,4,5} joined by a weak bridge."""
    edges = []
    for group in ((0, 1, 2), (3, 4, 5)):
        for u in group:
            for v in group:
                if u != v:
                    edges.append((u, v))
    edges.append((2, 3))
    weights = [0.6] * (len(edges) - 1) + [0.05]
    return DiGraph.from_edges(6, edges, weights=weights)
