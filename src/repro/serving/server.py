"""The influence-query server: warm artifacts behind an asyncio front.

``repro serve`` turns the batch harness into a resident service.  One
process loads the graph catalog once, then answers concurrent queries
over a newline-delimited JSON protocol (stdlib ``asyncio.start_server``;
no dependencies):

``topk``
    ``k`` seeds for (dataset, model, algorithm, params, seed).  The RR
    baseline keeps its sampled :class:`FlatRRPool` warm, so any ``k`` is
    a vectorized max-cover over the cached index; every other technique
    caches its finished selection, warm for all ``k' <= k`` via the
    greedy prefix property.  Either way a warm query never re-runs
    selection — the Cohen-style "seed selection is an index lookup"
    pivot.
``sigma``
    σ(S) from a warm deterministic oracle (snapshot live-edge worlds by
    default).  Concurrent requests against the same oracle **coalesce**:
    the first arrival waits one coalescing window and the whole batch is
    answered by a single ``evaluate_many`` — one artifact-lock
    acquisition, one executor hop, one shared σ-memo pass.
``gain``
    Marginal gain of ``v`` given ``S`` from the same warm oracle.

Plus ``ping`` / ``catalog`` / ``stats`` / ``shutdown`` housekeeping.

Failure semantics: a bad request errors only its own response envelope
(``ok: false`` with a message); the connection and server live on.  A
request line longer than :data:`MAX_REQUEST_BYTES` is the exception: it
gets one ``RequestTooLarge`` envelope and its connection is closed,
since the rest of the line cannot be framed without buffering it.  An
artifact build is single-flighted — concurrent cold requests for the
same key share one construction.  Heavy work runs on one executor
thread, so engine code never runs concurrently with itself; each task
collects engine telemetry (``oracle.*``, ``rrpool.*`` spans/counters)
under its own handle, folded into the server's handle so ``repro trace``
shows engine cost under each ``serving.*`` phase.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Awaitable, Callable

import numpy as np

from ..framework.telemetry import Telemetry, activate, new_node, write_trace
from .artifacts import Artifact, ArtifactLRU, artifact_key
from .catalog import ServingCatalog

__all__ = [
    "DEFAULT_PORT",
    "MAX_REQUEST_BYTES",
    "ServingConfig",
    "ServingRequestError",
    "InfluenceServer",
    "ServerHandle",
    "run_server",
    "start_in_thread",
]

DEFAULT_PORT = 7477

#: Longest request line the server reads, in bytes (asyncio's default is
#: 64 KiB, a few thousand seed ids).
MAX_REQUEST_BYTES = 1 << 20

#: Seconds an over-limit connection may go on sending after its
#: ``RequestTooLarge`` envelope before the server stops reading it.
_LINGER_SECONDS = 2.0

#: σ backends a resident server may use: repeated queries must return
#: identical answers, so the stateful shared-stream serial backend is out.
SERVABLE_ORACLES = ("batched", "snapshot", "sketch")


class ServingRequestError(ValueError):
    """A malformed or unanswerable request (reported, never fatal)."""


@dataclass
class ServingConfig:
    """Knobs for one server instance (see README "Serving layer")."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is on the instance
    datasets: tuple[str, ...] | None = None
    catalog_dir: str | None = None
    cache_bytes: int | None = 256 << 20
    coalesce_ms: float = 2.0
    default_worlds: int = 200
    default_oracle: str = "snapshot"
    trace: str | None = None


class _SigmaBatch:
    """One in-flight coalesced σ batch: (seed set, future) pairs."""

    __slots__ = ("items",)

    def __init__(self) -> None:
        self.items: list[tuple[list[int], asyncio.Future]] = []


class InfluenceServer:
    """Catalog + artifact LRU + asyncio protocol front."""

    def __init__(self, config: ServingConfig | None = None) -> None:
        self.config = config or ServingConfig()
        self.telemetry = Telemetry(label="serving")
        self.catalog = ServingCatalog(
            datasets=self.config.datasets, catalog_dir=self.config.catalog_dir
        )
        self.cache = ArtifactLRU(self.config.cache_bytes, telemetry=self.telemetry)
        # One thread: the engines and the ambient telemetry handle they
        # report to are not thread-safe.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._builds: dict[str, asyncio.Future] = {}
        self._batches: dict[str, _SigmaBatch] = {}
        self._locks: dict[str, asyncio.Lock] = {}
        self._server: asyncio.AbstractServer | None = None
        self._stop: asyncio.Event | None = None
        self._closed = False
        self.host = self.config.host
        self.port: int | None = None
        self._started_at: float | None = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        self._stop = asyncio.Event()
        started = time.perf_counter()
        loaded = self.catalog.warm()
        self._absorb_span("serving.catalog_load", time.perf_counter() - started)
        self.telemetry.count("serving.catalog_bytes", loaded)
        self._server = await asyncio.start_server(
            self._on_client, self.config.host, self.config.port,
            limit=MAX_REQUEST_BYTES,
        )
        self.port = int(self._server.sockets[0].getsockname()[1])
        self._started_at = time.monotonic()

    def request_stop(self) -> None:
        """Ask the serve loop to shut down (idempotent, loop-thread only)."""
        if self._stop is not None:
            self._stop.set()

    async def wait_stopped(self) -> None:
        """Block until a shutdown request, then tear everything down."""
        assert self._stop is not None, "start() first"
        try:
            await self._stop.wait()
        finally:
            await self.shutdown()

    async def shutdown(self) -> None:
        """Close the listener, drain the executor, drop shm attachments."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._executor.shutdown(wait=True)
        from ..framework import shm

        shm.detach_all()
        if self.config.trace:
            write_trace(self.config.trace, self.telemetry.snapshot(), cell="serve")

    # -- protocol -------------------------------------------------------

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # longer than MAX_REQUEST_BYTES
                    await asyncio.gather(*tasks, return_exceptions=True)
                    await self._reject_oversized(reader, writer)
                    break
                if not line:
                    break
                # One task per request line: pipelined requests on one
                # connection run concurrently (and their σ calls coalesce).
                task = asyncio.ensure_future(
                    self._handle_line(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            await asyncio.gather(*tasks, return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        except asyncio.CancelledError:
            # Server torn down mid-connection: drop in-flight requests.
            # Not re-raised: on Python 3.10/3.11 a connection task that
            # ends cancelled makes asyncio log a spurious traceback.
            for task in tasks:
                task.cancel()
        finally:
            # No ``await writer.wait_closed()``: shutdown could cancel
            # the task there, past the handler above.
            writer.close()

    async def _reject_oversized(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer an over-limit line with one envelope, then EOF.

        The rest of the input is read and dropped until the client hangs
        up (or ``_LINGER_SECONDS`` pass): closing a socket with unread
        input resets it, which can destroy the envelope in flight.
        """
        self.telemetry.count("serving.errors")
        response = {
            "id": None,
            "ok": False,
            "error": {
                "type": "RequestTooLarge",
                "message": f"request line exceeds {MAX_REQUEST_BYTES} bytes",
            },
        }
        writer.write((json.dumps(response) + "\n").encode())
        if writer.can_write_eof():
            writer.write_eof()
        await writer.drain()

        async def discard() -> None:
            while await reader.read(1 << 16):
                pass

        try:
            await asyncio.wait_for(discard(), _LINGER_SECONDS)
        except asyncio.TimeoutError:
            pass

    async def _handle_line(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        rid = None
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ServingRequestError("request must be a JSON object")
            rid = request.get("id")
            result = await self._dispatch(request)
            response: dict[str, Any] = {"id": rid, "ok": True, "result": result}
        except Exception as exc:
            self.telemetry.count("serving.errors")
            response = {
                "id": rid,
                "ok": False,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
        payload = (json.dumps(response) + "\n").encode()
        async with write_lock:
            writer.write(payload)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(self, request: dict[str, Any]) -> Any:
        op = request.get("op")
        handler: Callable[[dict], Awaitable[Any]] | None = {
            "ping": self._op_ping,
            "catalog": self._op_catalog,
            "stats": self._op_stats,
            "topk": self._op_topk,
            "sigma": self._op_sigma,
            "gain": self._op_gain,
            "shutdown": self._op_shutdown,
        }.get(op)
        if handler is None:
            raise ServingRequestError(f"unknown op {op!r}")
        self.telemetry.count("serving.requests")
        self.telemetry.count(f"serving.{op}_requests")
        started = time.perf_counter()
        try:
            return await handler(request)
        finally:
            self._absorb_span(f"serving.{op}", time.perf_counter() - started)

    # -- endpoint handlers ----------------------------------------------

    async def _op_ping(self, request: dict) -> str:
        return "pong"

    async def _op_catalog(self, request: dict) -> list[dict[str, Any]]:
        out = []
        for name in self.catalog.names():
            graph = self.catalog.graph(name)
            out.append({"dataset": name, "n": graph.n, "m": graph.m})
        return out

    async def _op_stats(self, request: dict) -> dict[str, Any]:
        uptime = (
            time.monotonic() - self._started_at if self._started_at else 0.0
        )
        return {
            "datasets": list(self.catalog.names()),
            "catalog_bytes": self.catalog.nbytes,
            "cache": self.cache.stats(),
            "counters": dict(self.telemetry.counters),
            "uptime_seconds": float(uptime),
        }

    async def _op_shutdown(self, request: dict) -> str:
        loop = asyncio.get_running_loop()
        # Respond first, stop on the next tick.
        loop.call_soon(self.request_stop)
        return "stopping"

    async def _op_topk(self, request: dict) -> dict[str, Any]:
        dataset = self._field(request, "dataset")
        model_name = self._field(request, "model")
        algorithm = self._field(request, "algorithm")
        k = int(self._field(request, "k"))
        if k < 0:
            raise ServingRequestError("k must be non-negative")
        params = dict(request.get("params") or {})
        seed = int(request.get("seed", 0))
        graph, model = self.catalog.weighted(dataset, model_name)
        if k > graph.n:
            raise ServingRequestError(
                f"k={k} exceeds the number of nodes ({graph.n})"
            )
        if algorithm == "RIS":
            return await self._topk_rrpool(
                dataset, model_name, graph, model, k, params, seed
            )
        return await self._topk_selection(
            dataset, model_name, graph, model, algorithm, k, params, seed
        )

    async def _topk_rrpool(
        self, dataset, model_name, graph, model, k, params, seed
    ) -> dict[str, Any]:
        """RIS through a warm pool: sample once, max-cover per query.

        The pool is ``RIS(**params).sample_pool`` on a fresh
        ``default_rng(seed)`` (it does not depend on ``k``), and ``cover``
        is read-only, so the answer is byte-identical to the batch path
        for *every* ``k`` — without resampling after the first query.
        """
        from ..algorithms.ris import RIS, cover

        ris = RIS(**params)
        key = artifact_key("rrpool", dataset, model_name, seed=seed, **vars(ris))

        def build():
            pool = ris.sample_pool(
                graph, model.dynamics, np.random.default_rng(seed)
            )
            # Build the inverted index that every max-cover reads before
            # the artifact is sized, so the LRU budget charges for it.
            pool.node_index
            return pool

        entry, warm = await self._artifact(key, "rrpool", build)
        if warm:
            self.telemetry.count("serving.topk_warm")
        seeds, coverage = await self._run_engine(
            "serving.max_cover", lambda: cover(entry.payload, graph, k)
        )
        return {
            "seeds": [int(s) for s in seeds],
            "k": k,
            "warm": warm,
            "algorithm": "RIS",
            "coverage_fraction": float(coverage),
            "artifact": entry.key,
        }

    async def _topk_selection(
        self, dataset, model_name, graph, model, algorithm, k, params, seed
    ) -> dict[str, Any]:
        """Any technique through its cached selection result.

        Seed-list prefixes are meaningful for every technique in the
        registry (see ``SeedSelectionResult``), so one cached run at
        budget ``k`` serves every smaller budget warm; a larger budget
        rebuilds and replaces the entry.
        """
        from .. import algorithms

        key = artifact_key(
            "selection", dataset, model_name,
            algorithm=algorithm, seed=seed, **params,
        )
        entry = self.cache.get(key)
        warm = entry is not None and entry.payload.k >= k
        if warm:
            self.telemetry.count("serving.topk_warm")
            result = entry.payload
        else:
            def build(budget: int):
                def run():
                    algo = algorithms.make(algorithm, **params)
                    return algo.select(
                        graph, budget, model, rng=np.random.default_rng(seed)
                    )

                async def construct():
                    started = time.perf_counter()
                    selected = await self._run_engine("serving.select", run)
                    self.cache.put(
                        Artifact.wrap(
                            key, "selection", selected,
                            time.perf_counter() - started,
                        )
                    )
                    return selected

                return construct

            result = await self._single_flight(key, build(k))
            if result.k < k:
                # A concurrent smaller-budget request won the flight;
                # rebuild at our budget (prefixes only go downward).
                result = await build(k)()
        return {
            "seeds": [int(s) for s in result.seeds[:k]],
            "k": k,
            "warm": warm,
            "algorithm": algorithm,
            "artifact": key,
        }

    async def _op_sigma(self, request: dict) -> dict[str, Any]:
        seeds = self._seed_list(request, "seeds")
        entry, warm, akey = await self._oracle_artifact(request)
        value, batched = await self._coalesced_sigma(akey, entry, seeds)
        return {
            "sigma": float(value),
            "warm": warm,
            "batched": batched,
            "artifact": akey,
        }

    async def _op_gain(self, request: dict) -> dict[str, Any]:
        node = int(self._field(request, "node"))
        seeds = self._seed_list(request, "seeds")
        entry, warm, akey = await self._oracle_artifact(request)
        oracle = entry.payload
        async with self._lock(akey):
            value = await self._run_engine(
                "serving.gain_eval", lambda: oracle.gain(node, extra=seeds)
            )
        return {
            "gain": float(value),
            "node": node,
            "warm": warm,
            "artifact": akey,
        }

    # -- artifact plumbing ----------------------------------------------

    async def _oracle_artifact(self, request: dict):
        dataset = self._field(request, "dataset")
        model_name = self._field(request, "model")
        backend = str(request.get("oracle", self.config.default_oracle))
        worlds = int(request.get("worlds", self.config.default_worlds))
        seed = int(request.get("seed", 0))
        if backend not in SERVABLE_ORACLES:
            raise ServingRequestError(
                f"oracle {backend!r} is not servable (repeated queries must "
                f"be deterministic); options: {', '.join(SERVABLE_ORACLES)}"
            )
        graph, model = self.catalog.weighted(dataset, model_name)
        key = artifact_key(
            "oracle", dataset, model_name,
            backend=backend, worlds=worlds, seed=seed,
        )

        def build():
            from ..diffusion.oracle import make_oracle

            return make_oracle(
                backend, graph, model, np.random.default_rng(seed),
                mc_simulations=worlds,
            )

        entry, warm = await self._artifact(key, "oracle", build)
        return entry, warm, key

    async def _artifact(
        self, key: str, kind: str, build: Callable[[], Any]
    ) -> tuple[Artifact, bool]:
        """Cache lookup with single-flighted construction on miss."""
        entry = self.cache.get(key)
        if entry is not None:
            return entry, True

        async def construct() -> Artifact:
            started = time.perf_counter()
            payload = await self._run_engine("serving.build", build)
            artifact = Artifact.wrap(
                key, kind, payload, time.perf_counter() - started
            )
            self.cache.put(artifact)
            self.telemetry.count("serving.artifact_built_bytes", artifact.nbytes)
            return artifact

        return await self._single_flight(key, construct), False

    async def _single_flight(
        self, key: str, factory: Callable[[], Awaitable]
    ):
        """Share one in-flight construction among concurrent requesters."""
        pending = self._builds.get(key)
        if pending is None:
            pending = asyncio.ensure_future(factory())
            self._builds[key] = pending
            pending.add_done_callback(lambda __: self._builds.pop(key, None))
        else:
            self.telemetry.count("serving.build_coalesced")
        return await asyncio.shield(pending)

    async def _coalesced_sigma(
        self, akey: str, entry: Artifact, seeds: list[int]
    ) -> tuple[float, int]:
        """Join (or lead) the coalescing window for one oracle's σ queries.

        The first request for an artifact opens a batch and sleeps one
        window; every request arriving meanwhile joins it.  The leader
        then answers the whole batch with **one** ``evaluate_many`` —
        for the snapshot family, one σ-memo pass and one keyed reach per
        distinct missed set.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        batch = self._batches.get(akey)
        if batch is not None:
            batch.items.append((seeds, future))
            value = await future
            return value, len(batch.items)
        batch = _SigmaBatch()
        batch.items.append((seeds, future))
        self._batches[akey] = batch
        try:
            await asyncio.sleep(self.config.coalesce_ms / 1000.0)
        finally:
            self._batches.pop(akey, None)
        sets = [s for s, __ in batch.items]
        self.telemetry.count("serving.coalesced_batches")
        self.telemetry.count("serving.coalesced_requests", len(sets))
        oracle = entry.payload
        try:
            async with self._lock(akey):
                values = await self._run_engine(
                    "serving.sigma_eval", lambda: oracle.evaluate_many(sets)
                )
        except Exception as exc:
            for __, fut in batch.items:
                if not fut.done():
                    fut.set_exception(exc)
            return await future, len(sets)  # re-raises for the leader too
        for (__, fut), value in zip(batch.items, values):
            if not fut.done():
                fut.set_result(value)
        return await future, len(sets)

    def _lock(self, key: str) -> asyncio.Lock:
        """Per-artifact lock: one evaluation at a time on any one oracle."""
        lock = self._locks.get(key)
        if lock is None:
            lock = self._locks[key] = asyncio.Lock()
        return lock

    # -- execution + telemetry ------------------------------------------

    async def _run_engine(self, label: str | None, fn: Callable[[], Any]):
        """Run blocking engine work on the executor, fold telemetry back.

        The task runs under its own collecting handle; its spans land as
        children of ``label`` in the server's tree, so ``repro trace``
        shows engine phases under each serving phase.
        """
        loop = asyncio.get_running_loop()
        started = time.perf_counter()

        def call():
            handle = Telemetry()
            with activate(handle):
                value = fn()
            return value, handle.snapshot()

        value, snapshot = await loop.run_in_executor(self._executor, call)
        if label is not None:
            self._absorb_span(
                label, time.perf_counter() - started, snapshot
            )
        return value

    def _absorb_span(
        self, label: str, elapsed: float, snapshot: dict | None = None
    ) -> None:
        """Merge one timed phase (plus engine sub-spans) into the handle."""
        node = new_node()
        node["elapsed"] = float(elapsed)
        node["calls"] = 1
        if snapshot:
            node["children"] = snapshot.get("spans") or {}
        self.telemetry.absorb(
            {
                "spans": {label: node},
                "counters": (snapshot or {}).get("counters") or {},
            }
        )

    # -- request parsing -------------------------------------------------

    @staticmethod
    def _field(request: dict, name: str):
        try:
            return request[name]
        except KeyError:
            raise ServingRequestError(f"missing field {name!r}") from None

    @classmethod
    def _seed_list(cls, request: dict, name: str) -> list[int]:
        raw = cls._field(request, name)
        if not isinstance(raw, (list, tuple)):
            raise ServingRequestError(f"{name!r} must be a list of node ids")
        return [int(v) for v in raw]


# ----------------------------------------------------------------------
# Entry points

def run_server(
    config: ServingConfig | None = None,
    announce: Callable[[str], None] | None = None,
) -> int:
    """Blocking entry point used by ``repro serve``."""
    async def main() -> None:
        server = InfluenceServer(config)
        await server.start()
        if announce is not None:
            announce(
                f"serving {', '.join(server.catalog.names())} on "
                f"{server.host}:{server.port} "
                f"(cache {server.config.cache_bytes or 'unbounded'} bytes)"
            )
        try:
            await server.wait_stopped()
        finally:
            await server.shutdown()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    return 0


class ServerHandle:
    """A server running on its own thread/event loop (tests, benchmarks)."""

    def __init__(
        self,
        server: InfluenceServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    def client(self, **kwargs):
        from .client import ServingClient

        return ServingClient(self.host, self.port, **kwargs)

    def stop(self, timeout: float = 30.0) -> None:
        """Request shutdown and join the serve thread (idempotent)."""
        if self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self.server.request_stop)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_in_thread(
    config: ServingConfig | None = None, timeout: float = 60.0
) -> ServerHandle:
    """Start a server on a daemon thread; returns once it is listening."""
    holder: dict[str, Any] = {}
    ready = threading.Event()

    def runner() -> None:
        async def main() -> None:
            server = InfluenceServer(config)
            try:
                await server.start()
            except Exception as exc:
                holder["error"] = exc
                ready.set()
                return
            holder["server"] = server
            holder["loop"] = asyncio.get_running_loop()
            ready.set()
            await server.wait_stopped()

        try:
            asyncio.run(main())
        except Exception as exc:  # pragma: no cover - crash surface
            holder.setdefault("error", exc)
            ready.set()

    thread = threading.Thread(target=runner, name="repro-serving", daemon=True)
    thread.start()
    if not ready.wait(timeout):
        raise TimeoutError("serving thread did not come up")
    if "error" in holder:
        raise holder["error"]
    return ServerHandle(holder["server"], holder["loop"], thread)
