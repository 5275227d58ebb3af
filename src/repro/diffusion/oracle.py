"""Spread oracles: interchangeable σ(S) backends for the greedy family.

Every simulation-based technique in the paper's line-up (GREEDY, CELF,
CELF++, StaticGreedy, PMC) reduces to the same query stream: marginal
gains σ(S ∪ {v}) − σ(S) against a slowly growing committed seed set, plus
occasional σ evaluations of arbitrary sets.  A :class:`SpreadOracle`
answers that stream; four backends trade accuracy structure for speed:

``serial``
    Fresh Monte Carlo per query on the caller's RNG (one
    ``monte_carlo_spread`` call per query), so every query draws new
    noise from the one shared stream.
``batched``
    Fresh Monte Carlo with the per-query RNG *derived from the query
    content*, so a repeated query returns the identical estimate and
    memoization is transparent; ``mc_workers`` fans each query out over
    the process pool.
``snapshot``
    The coin-flip technique of Sec. 4.3 generalized: presample R live-edge
    worlds once (the sampler PMC also uses, in
    :mod:`repro.diffusion.snapshots`) and answer every query by
    reachability grown in all R worlds at once, keyed ``world * n +
    node`` on the level loop RR sets and Monte-Carlo cascades share.
    StaticGreedy is CELF on this backend.  Marginal gains BFS only the
    *uncovered* region, so CELF's queue re-evaluations stop re-sampling
    and get cheaper as the seed set grows.
``sketch``
    The snapshot backend plus per-world bottom-k reachability sketches
    (Cohen's pruned rank-order construction), giving O(1)
    approximate-but-cheap gain upper bounds that let lazy greedy skip
    exact evaluations whose bound cannot win.

On top, :class:`GainCache` memoizes gains keyed by (frozen seed set,
node).  With a deterministic backend the cache is exact and transparent
— enabling it cannot change any algorithm's output, only turn repeated
lookups into hits (the M1 "node lookups" metric then counts true
evaluations).  With the stochastic ``serial`` backend the cache is
bypassed, because replaying a cached value would shift the shared RNG
stream and silently change seeded runs.
"""

from __future__ import annotations

import abc
import os
from collections import OrderedDict
from typing import Any, Sequence

import numpy as np

from ..graph.digraph import DiGraph
from .models import Dynamics, PropagationModel
from .simulation import monte_carlo_spread
from .snapshots import reach_keys, sample_live_masks

__all__ = [
    "ORACLE_BACKENDS",
    "BoundedMemo",
    "SpreadOracle",
    "SequentialMCOracle",
    "BatchedMCOracle",
    "SnapshotOracle",
    "SketchOracle",
    "GainCache",
    "make_oracle",
]

#: CLI / constructor spelling of each backend.
ORACLE_BACKENDS = ("serial", "batched", "snapshot", "sketch")

#: Bottom-k sketch size of the sketch backend's reach estimates.
SKETCH_K = 8

#: Factor inflating sketch reach estimates into gain bounds, to absorb
#: sketch error.
SKETCH_SLACK = 1.25

#: Default entry bound for the oracle memo caches.  Generous enough that a
#: batch selection run (at most a few k·n gain queries) never evicts — the
#: byte-identity contract of the memoized greedy family is untouched — but
#: finite, so a resident server answering an unbounded query stream holds
#: a bounded working set.
DEFAULT_MEMO_ENTRIES = 1 << 16


def _env_entries(name: str, default: int) -> int:
    raw = os.environ.get(name, "")
    try:
        return int(raw) if raw else default
    except ValueError:
        return default


class BoundedMemo:
    """LRU-bounded mapping used by every oracle-side memo cache.

    A plain dict here is a slow memory leak in a long-lived process: each
    distinct (seed set, node) or seed-set key is kept forever, which is
    invisible in one batch run and unbounded in a server answering
    millions of queries.  ``max_entries`` (env-tunable per cache) bounds
    the working set; eviction is least-recently-used, so the hot keys of
    a greedy run — the committed-prefix queries — stay resident.
    """

    __slots__ = ("max_entries", "counter", "evictions", "_data")

    def __init__(
        self,
        max_entries: int | None = None,
        *,
        env: str | None = None,
        counter: str | None = None,
    ) -> None:
        if max_entries is None:
            max_entries = (
                _env_entries(env, DEFAULT_MEMO_ENTRIES)
                if env
                else DEFAULT_MEMO_ENTRIES
            )
        self.max_entries = max(1, int(max_entries))
        self.counter = counter
        self.evictions = 0
        self._data: OrderedDict[Any, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def get(self, key, default=None):
        try:
            value = self._data[key]
        except KeyError:
            return default
        self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        data = self._data
        if key in data:
            data[key] = value
            data.move_to_end(key)
            return
        data[key] = value
        if len(data) > self.max_entries:
            data.popitem(last=False)
            self.evictions += 1
            if self.counter is not None:
                _tele().count(self.counter)

    def clear(self) -> None:
        self._data.clear()


def _tele():
    # Lazy: a top-level framework import from diffusion would be circular
    # (framework → runner → algorithm registry → diffusion engines).
    from ..framework.telemetry import current

    return current()


def _dynamics_of(model: PropagationModel | Dynamics) -> Dynamics:
    return model.dynamics if isinstance(model, PropagationModel) else model


def _seed_key(nodes) -> tuple[int, ...]:
    """Canonical (sorted, deduplicated) key for a seed set."""
    return tuple(sorted({int(v) for v in nodes}))


class SpreadOracle(abc.ABC):
    """σ(S) and marginal-gain backend shared by the greedy family.

    The oracle tracks the *committed* seed set — the seeds an algorithm
    has definitively picked — because every backend can answer gains
    against the committed set far more cheaply than against an arbitrary
    one.  ``deterministic`` declares whether a repeated query returns the
    identical answer; only deterministic backends are safe to memoize.
    """

    name: str = "abstract"
    deterministic: bool = False
    #: Whether :meth:`gain_bound` returns usable bounds (sketch backend).
    provides_bounds: bool = False

    def __init__(self) -> None:
        self.committed: list[int] = []
        self.committed_sigma: float = 0.0
        #: True σ evaluations performed (the cost metric of Appendix C).
        self.evaluations: int = 0

    def _tick_evaluation(self) -> None:
        self.evaluations += 1
        _tele().count("oracle.sigma_evaluations")

    @abc.abstractmethod
    def evaluate(self, nodes: Sequence[int]) -> float:
        """σ of an arbitrary seed set (one true evaluation)."""

    def evaluate_many(self, seed_sets: Sequence[Sequence[int]]) -> list[float]:
        """σ of several seed sets in one call.

        The base implementation loops; backends that can amortize work
        across sets (shared cache pass, shared world state) override it.
        The serving layer's request coalescer funnels concurrent σ
        queries through here, so one override turns N client requests
        into one oracle evaluation.
        """
        return [self.evaluate(s) for s in seed_sets]

    @abc.abstractmethod
    def gain(
        self, v: int, extra: Sequence[int] = (), extra_gain: float = 0.0
    ) -> float:
        """Marginal gain of ``v`` w.r.t. committed ∪ ``extra``.

        ``extra_gain`` — the caller's estimate of σ(S ∪ extra) − σ(S) —
        is the baseline correction backends without a deterministic σ
        cache (the serial backend) subtract; deterministic backends
        recompute the baseline themselves and ignore it.
        """

    def gain_bound(self, v: int) -> float | None:
        """Cheap upper bound on any future gain of ``v``, or None."""
        return None

    def commit(self, v: int, gain: float | None = None) -> None:
        """Record that ``v`` joined the seed set with the given gain."""
        if gain is None:
            gain = self.gain(v)
        self.committed.append(int(v))
        self.committed_sigma += float(gain)

    def stats(self) -> dict:
        return {"backend": self.name, "evaluations": self.evaluations}


class SequentialMCOracle(SpreadOracle):
    """Fresh MC on the caller's RNG: one ``monte_carlo_spread`` per query.

    Seeded runs are reproducible, but every query advances the shared
    stream, so the backend is not deterministic per query and is never
    memoized.
    """

    name = "serial"
    deterministic = False

    def __init__(
        self,
        graph: DiGraph,
        model: PropagationModel | Dynamics,
        r: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.graph = graph
        self.model = model
        self.r = int(r)
        self.rng = rng

    def evaluate(self, nodes: Sequence[int]) -> float:
        self._tick_evaluation()
        return monte_carlo_spread(
            self.graph, list(nodes), self.model, r=self.r, rng=self.rng
        ).mean

    def gain(
        self, v: int, extra: Sequence[int] = (), extra_gain: float = 0.0
    ) -> float:
        baseline = self.committed_sigma + float(extra_gain)
        return self.evaluate(self.committed + list(extra) + [int(v)]) - baseline


class BatchedMCOracle(SpreadOracle):
    """Monte Carlo with content-derived RNG streams.

    The generator for a query is spawned from ``(entropy, seed-set key)``,
    so σ of a given set is a pure function of the oracle's construction
    seed — repeated queries agree exactly, committed-set baselines are
    cached, and the memo cache is transparent.  ``workers > 1`` reuses
    the ``SeedSequence``-spawned process pool of ``monte_carlo_spread``.
    """

    name = "batched"
    deterministic = True

    def __init__(
        self,
        graph: DiGraph,
        model: PropagationModel | Dynamics,
        r: int,
        rng: np.random.Generator,
        workers: int | None = None,
    ) -> None:
        super().__init__()
        self.graph = graph
        self.model = model
        self.r = int(r)
        self.workers = workers
        self._entropy = int(rng.integers(0, 2**63 - 1))
        self._sigma_cache = BoundedMemo(
            env="REPRO_SIGMA_CACHE_MAX", counter="oracle.sigma_cache_evictions"
        )

    def _sigma(self, key: tuple[int, ...]) -> float:
        if not key:
            return 0.0
        cached = self._sigma_cache.get(key)
        if cached is not None:
            return cached
        query_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self._entropy, spawn_key=key)
        )
        value = monte_carlo_spread(
            self.graph,
            list(key),
            self.model,
            r=self.r,
            rng=query_rng,
            workers=self.workers,
        ).mean
        self._tick_evaluation()
        self._sigma_cache.put(key, value)
        return value

    def evaluate(self, nodes: Sequence[int]) -> float:
        return self._sigma(_seed_key(nodes))

    def gain(
        self, v: int, extra: Sequence[int] = (), extra_gain: float = 0.0
    ) -> float:
        base = self.committed + list(extra)
        return self._sigma(_seed_key(base + [int(v)])) - self._sigma(_seed_key(base))


class SnapshotOracle(SpreadOracle):
    """σ(S) by cached reachability over R presampled live-edge worlds.

    Every query grows reachability in all R worlds at once, keyed
    ``world * n + node`` (:func:`~repro.diffusion.snapshots.reach_keys`,
    on the level loop RR sets and Monte-Carlo cascades share), coin flips
    replaced by the presampled ``R×m`` live matrix; σ is the number of
    reached keys over R.  The committed seed set's per-world reachability
    (``covered``) persists, so marginal-gain BFS stops at covered nodes
    (anything beyond them is already covered) and iterations get
    progressively cheaper — the StaticGreedy/PMC property, available to
    every oracle-backed greedy.
    """

    name = "snapshot"
    deterministic = True

    def __init__(
        self,
        graph: DiGraph,
        model: PropagationModel | Dynamics,
        num_worlds: int,
        rng: np.random.Generator,
        budget=None,
    ) -> None:
        super().__init__()
        if num_worlds < 1:
            raise ValueError("num_worlds must be positive")
        self.graph = graph
        self.num_worlds = int(num_worlds)
        with _tele().span("oracle.snapshot_sample"):
            self.live = sample_live_masks(
                graph, _dynamics_of(model), self.num_worlds, rng, budget=budget
            )
        self.covered = np.zeros((self.num_worlds, graph.n), dtype=bool)
        self._sigma_cache = BoundedMemo(
            env="REPRO_SIGMA_CACHE_MAX", counter="oracle.sigma_cache_evictions"
        )

    def _reach(self, sources: Sequence[int], visited: np.ndarray) -> np.ndarray:
        """Keys ``world * n + node`` newly reachable from ``sources``;
        marks them in the flat ``R*n`` bitmap ``visited``."""
        return reach_keys(self.graph, self.live, sources, visited)

    # -- oracle interface ----------------------------------------------

    def evaluate(self, nodes: Sequence[int]) -> float:
        return self.evaluate_many([nodes])[0]

    def evaluate_many(self, seed_sets: Sequence[Sequence[int]]) -> list[float]:
        """σ of several sets in one oracle call.

        One pass resolves cache hits and dedups repeated sets; each
        distinct miss then runs the reach kernel once, all under a single
        ``oracle.sigma_batch`` span, on one visited bitmap cleared after
        every set.  A set's value is its reached-key count over R, so it
        does not depend on the batch it came in.
        """
        keys = [_seed_key(s) for s in seed_sets]
        values: dict[tuple[int, ...], float | None] = {(): 0.0}
        for key in keys:
            if key not in values:
                values[key] = self._sigma_cache.get(key)
        misses = [key for key, value in values.items() if value is None]
        if misses:
            with _tele().span("oracle.sigma_batch"):
                visited = np.zeros(self.num_worlds * self.graph.n, dtype=bool)
                for key in misses:
                    reached = self._reach(key, visited)
                    visited[reached] = False
                    values[key] = reached.size / self.num_worlds
            _tele().count("oracle.batch_evaluations")
            for key in misses:
                self._tick_evaluation()
                self._sigma_cache.put(key, values[key])
        return [values[key] for key in keys]

    @property
    def nbytes(self) -> int:
        """Resident bytes of the warm artifact (the serving LRU's unit)."""
        return sum(self.nbytes_detail().values())

    def nbytes_detail(self) -> dict[str, int]:
        """Byte breakdown of the presampled state, mirroring
        :meth:`FlatRRPool.nbytes_detail`."""
        return {
            "live_worlds": int(self.live.nbytes),
            "covered": int(self.covered.nbytes),
        }

    def gain(
        self, v: int, extra: Sequence[int] = (), extra_gain: float = 0.0
    ) -> float:
        self._tick_evaluation()
        visited = self.covered.flatten()
        if extra:
            self._reach(extra, visited)
        return self._reach([int(v)], visited).size / self.num_worlds

    def commit(self, v: int, gain: float | None = None) -> None:
        # ``covered`` is C-contiguous, so its flat view marks it in place.
        reached = self._reach([int(v)], self.covered.reshape(-1))
        self.committed.append(int(v))
        # Per-world identity: sum of committed marginals == world-average
        # σ of the committed set, regardless of the gain the caller saw.
        self.committed_sigma += reached.size / self.num_worlds
        self._sigma_cache.clear()


def _bottom_k_reach_estimates(
    n: int,
    rptr: np.ndarray,
    rpred: np.ndarray,
    ranks: np.ndarray,
    k: int,
) -> np.ndarray:
    """Per-node reach-size estimates in one world via bottom-k sketches.

    Cohen's pruned construction: process nodes in increasing rank order
    and reverse-BFS each rank to every node that reaches it, pruning at
    nodes whose sketch already holds k smaller ranks (their predecessors
    received those ranks through them already).  A node visited fewer
    than k times has its reach counted exactly; otherwise the kth-smallest
    rank gives the classic (k−1)/rank_k estimator.
    """
    cnt = np.zeros(n, dtype=np.int64)
    kth = np.full(n, np.inf)
    mark = np.full(n, -1, dtype=np.int64)
    full_nodes = 0
    for bfs_id, w in enumerate(np.argsort(ranks, kind="stable")):
        if full_nodes == n:
            break
        w = int(w)
        rank_w = ranks[w]
        stack = [w]
        mark[w] = bfs_id
        while stack:
            u = stack.pop()
            if cnt[u] >= k:
                continue  # sketch full: prune, predecessors already served
            cnt[u] += 1
            if cnt[u] == k:
                kth[u] = rank_w
                full_nodes += 1
            for p in rpred[rptr[u] : rptr[u + 1]]:
                p = int(p)
                if mark[p] != bfs_id:
                    mark[p] = bfs_id
                    stack.append(p)
    estimates = cnt.astype(np.float64)
    full = cnt >= k
    if full.any():
        estimates[full] = np.maximum((k - 1) / kth[full], float(k))
    return estimates


class SketchOracle(SnapshotOracle):
    """Snapshot oracle + bottom-k sketch upper bounds on gains.

    Marginal gains under snapshot reuse only shrink as the seed set grows
    (submodularity, per world), so a node's world-average *total* reach
    bounds every gain it will ever post.  The sketches estimate that
    reach in O(k·m) per world at build time; :data:`SKETCH_SLACK` inflates
    the estimate to absorb sketch error.  Bounds are approximate, not proofs:
    lazy greedy using them trades the exactness guarantee for skipped
    evaluations (quantified in ``benchmarks/bench_spread_engine.py``).
    """

    name = "sketch"
    deterministic = True
    provides_bounds = True

    def __init__(
        self,
        graph: DiGraph,
        model: PropagationModel | Dynamics,
        num_worlds: int,
        rng: np.random.Generator,
        budget=None,
    ) -> None:
        super().__init__(graph, model, num_worlds, rng, budget=budget)
        with _tele().span("oracle.sketch_bounds"):
            self._bounds = self._build_bounds(rng, budget)

    def _build_bounds(self, rng: np.random.Generator, budget) -> np.ndarray:
        graph, n = self.graph, self.graph.n
        in_ptr, in_src = graph.in_ptr, graph.in_src
        owners = np.repeat(np.arange(n, dtype=np.int64), np.diff(in_ptr))
        totals = np.zeros(n, dtype=np.float64)
        for i in range(self.num_worlds):
            if budget is not None:
                budget.check()
            # Reverse adjacency of world i: in-CSR edges whose out-order
            # twin is live.  in-CSR is grouped by destination, so the
            # filtered arrays are already a valid CSR payload.
            live_in = self.live[i][graph._in_perm]
            idx = np.nonzero(live_in)[0]
            rptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(owners[idx], minlength=n), out=rptr[1:])
            totals += _bottom_k_reach_estimates(
                n, rptr, in_src[idx], rng.random(n), SKETCH_K
            )
        return totals / self.num_worlds * SKETCH_SLACK

    def gain_bound(self, v: int) -> float | None:
        return float(self._bounds[int(v)])

    def nbytes_detail(self) -> dict[str, int]:
        detail = super().nbytes_detail()
        detail["sketch_bounds"] = int(self._bounds.nbytes)
        return detail


class GainCache:
    """Marginal-gain memo keyed by (frozen seed set, node).

    Shared by GREEDY/CELF/CELF++: with a deterministic oracle, a repeated
    (S, v) query — including CELF++'s look-ahead gains resurfacing after
    their ``prev_best`` was picked — becomes a hit instead of a true
    evaluation.  With a stochastic oracle the cache deliberately bypasses
    itself: replaying a memoized value would skip RNG draws and silently
    change every subsequent estimate of a seeded run.

    The memo is bounded (``REPRO_GAIN_CACHE_MAX`` entries, LRU): in a
    resident server every distinct (seed set, node) pair ever queried
    would otherwise be kept for the life of the process.  The default
    bound is far above what one selection run generates, so batch-path
    hit patterns — and therefore seeds — are unchanged.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        self._memo = BoundedMemo(
            max_entries,
            env="REPRO_GAIN_CACHE_MAX",
            counter="oracle.gain_cache_evictions",
        )
        self.hits = 0
        self.misses = 0

    def gain(
        self,
        oracle: SpreadOracle,
        v: int,
        extra: Sequence[int] = (),
        extra_gain: float = 0.0,
    ) -> float:
        if not oracle.deterministic:
            self.misses += 1
            _tele().count("oracle.gain_cache_misses")
            return oracle.gain(v, extra, extra_gain)
        key = (_seed_key(oracle.committed + list(extra)), int(v))
        cached = self._memo.get(key)
        if cached is not None:
            self.hits += 1
            _tele().count("oracle.gain_cache_hits")
            return cached
        self.misses += 1
        _tele().count("oracle.gain_cache_misses")
        value = oracle.gain(v, extra, extra_gain)
        self._memo.put(key, value)
        return value

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._memo),
            "evictions": self._memo.evictions,
        }


def make_oracle(
    spec: "str | SpreadOracle | None",
    graph: DiGraph,
    model: PropagationModel | Dynamics,
    rng: np.random.Generator,
    *,
    mc_simulations: int,
    mc_workers: int | None = None,
    budget=None,
) -> SpreadOracle:
    """Resolve a backend spec (CLI string, instance, or None) to an oracle.

    ``None`` picks the serial backend, or the content-keyed batched
    backend when ``mc_workers > 1``, since that backend owns the worker
    knob.  The snapshot and sketch backends
    presample ``mc_simulations`` worlds, so snapshot noise is comparable
    to the MC noise the algorithm was configured for.
    """
    if isinstance(spec, SpreadOracle):
        return spec
    if spec is None:
        spec = "batched" if (mc_workers or 0) > 1 else "serial"
    name = str(spec).lower()
    if name in ("serial", "sequential"):
        return SequentialMCOracle(graph, model, mc_simulations, rng)
    if name in ("batched", "mc"):
        return BatchedMCOracle(graph, model, mc_simulations, rng, workers=mc_workers)
    if name == "snapshot":
        return SnapshotOracle(graph, model, mc_simulations, rng, budget=budget)
    if name == "sketch":
        return SketchOracle(graph, model, mc_simulations, rng, budget=budget)
    raise ValueError(
        f"unknown spread oracle {spec!r}; options: {', '.join(ORACLE_BACKENDS)}"
    )
