"""Unit tests for the resilient worker pool (repro.framework.pool).

The pool is the single process fan-out substrate under all three engines,
so these tests pin its contract directly: chunk-order results, bounded
retry with quarantine, executor-collapse salvage, serial downgrade, env
configuration, and — the regression that motivated it — no orphan worker
processes after a mid-iteration interrupt.

Fault seeds are pinned: the injector's draw is
``sha256(f"{seed}:{index}:{attempt}")``, so which chunk faults on which
attempt is a pure function of (seed, rate) and the assertions below are
deterministic, not flaky.
"""

import multiprocessing
import os
import tempfile
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.algorithms.base import IMAlgorithm
from repro.diffusion.models import Dynamics, WC
from repro.framework.metrics import STATUS_FAILED, run_with_budget
from repro.framework.pool import (
    ChunkQuarantined,
    Fault,
    PoolConfig,
    PoolError,
    ResilientPool,
    armed_fault,
    run_chunks,
)
from repro.framework.telemetry import Telemetry, activate
from repro.graph.digraph import DiGraph

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="process pools need fork/spawn support"
)


# -- module-level chunk functions (must pickle) -------------------------


def _square(x):
    return x * x


def _square_logged(state_dir, x):
    """``x * x``, leaving one marker file per call in ``state_dir``."""
    fd, __ = tempfile.mkstemp(prefix=f"{x}.", dir=state_dir)
    os.close(fd)
    return x * x


def _sleep_then(value, seconds):
    time.sleep(seconds)
    return value


def _always_raise(x):
    raise ValueError(f"chunk {x} is poison")


def _fail_first_attempts(state_dir, index, needed):
    """Raise until ``needed`` prior attempts of this chunk are on record.

    Cross-process attempt counting via marker files, so retries (which may
    land on a different worker) see the history.
    """
    prior = len([f for f in os.listdir(state_dir) if f.startswith(f"{index}.")])
    with open(os.path.join(state_dir, f"{index}.{prior}"), "w"):
        pass
    if prior < needed:
        raise RuntimeError(f"transient failure {prior} of chunk {index}")
    return index * 10


def _draw_bytes(seed_sequence_state, n):
    rng = np.random.default_rng(np.random.SeedSequence(**seed_sequence_state))
    return rng.random(n).tobytes()


# -- basic contract -----------------------------------------------------


class TestRunChunks:
    def test_empty_input(self):
        assert run_chunks(_square, []) == []

    def test_serial_paths_preserve_order(self):
        assert run_chunks(_square, [(i,) for i in range(5)], workers=1) == [
            0, 1, 4, 9, 16,
        ]
        assert run_chunks(_square, [(7,)], workers=8) == [49]

    def test_parallel_results_in_chunk_order(self):
        out = run_chunks(_square, [(i,) for i in range(8)], workers=3)
        assert out == [i * i for i in range(8)]

    def test_tick_called_per_chunk(self):
        calls = []
        run_chunks(_square, [(i,) for i in range(4)], workers=2,
                   tick=lambda: calls.append(1))
        assert len(calls) == 4
        calls.clear()
        run_chunks(_square, [(i,) for i in range(4)], workers=1,
                   tick=lambda: calls.append(1))
        assert len(calls) == 4

    def test_spawn_key_chunk_is_replayable(self):
        """The unit of work is self-describing: re-running it is identical."""
        state = {"entropy": 1234, "spawn_key": (3,)}
        assert _draw_bytes(state, 64) == _draw_bytes(dict(state), 64)


# -- retry / quarantine -------------------------------------------------


class TestRetryAndQuarantine:
    def test_transient_failure_retried_then_succeeds(self, tmp_path):
        tele = Telemetry()
        cfg = PoolConfig(retries=4)
        with activate(tele):
            out = run_chunks(
                _fail_first_attempts,
                [(str(tmp_path), i, 1 if i == 2 else 0) for i in range(4)],
                workers=2,
                config=cfg,
            )
        assert out == [0, 10, 20, 30]
        assert tele.counters["pool.chunk_retries"] == 1
        assert "pool.worker_restarts" not in tele.counters

    def test_poison_chunk_quarantined_with_details(self):
        cfg = PoolConfig(retries=2)
        pool = ResilientPool(cfg, label="unit")
        with pytest.raises(ChunkQuarantined) as err:
            pool.run(_always_raise, [(0,), (1,)], workers=2)
        details = err.value.details
        assert details["label"] == "unit"
        assert details["failed_attempts"] == 2
        assert "poison" in details["last_error"]

    def test_quarantine_maps_to_failed_taxonomy(self):
        gen = np.random.default_rng(0)
        g = WC.weighted(
            DiGraph.from_arrays(10, gen.integers(0, 10, 30), gen.integers(0, 10, 30))
        )
        record, result = run_with_budget(_QuarantineAlgo(), g, 2, WC)
        assert result is None
        assert record.status == STATUS_FAILED
        pool_detail = record.extras["failure"]["pool"]
        assert pool_detail["failed_attempts"] >= 1
        assert record.extras["failure"]["type"] == "ChunkQuarantined"


# -- fault injection: collapse, salvage, downgrade ----------------------


class TestFaultRecovery:
    """Pinned-seed fault schedules (see module docstring)."""

    BASELINE = [i * i for i in range(6)]

    def test_kill_salvages_and_restarts(self, tmp_path):
        tele = Telemetry()
        # seed 79 @ rate .25: only chunk 5 is killed, on attempt 0, before
        # it runs.  A worker takes chunk 5 only after delivering an earlier
        # result, but whether the parent has collected chunk 4's result
        # when the pool breaks depends on scheduling: 1 to 5 results are
        # salvaged across the restart.
        with activate(tele), Fault(mode="kill", rate=0.25, seed=79):
            out = run_chunks(
                _square_logged, [(str(tmp_path), i) for i in range(6)],
                workers=2,
            )
        assert out == self.BASELINE
        assert tele.counters["pool.worker_restarts"] == 1
        salvaged = tele.counters["pool.chunks_salvaged"]
        assert 1 <= salvaged <= 5
        assert "pool.serial_downgrades" not in tele.counters
        # Salvaged results are kept, not recomputed: only the chunks of
        # 0-4 lost in the collapse may have run twice.
        calls = [name.split(".")[0] for name in os.listdir(tmp_path)]
        ran_twice = sum(calls.count(str(i)) > 1 for i in range(6))
        assert ran_twice <= 5 - salvaged

    def test_corrupt_results_detected_and_retried(self):
        tele = Telemetry()
        # seed 0 @ rate .3: chunks 1, 2, 5 corrupt on attempt 0.
        with activate(tele), Fault(mode="corrupt", rate=0.3, seed=0):
            out = run_chunks(_square, [(i,) for i in range(6)], workers=3)
        assert out == self.BASELINE
        assert tele.counters["pool.corrupt_results"] >= 3
        assert tele.counters["pool.chunk_retries"] >= 3

    def test_hang_reclaimed_by_stall_timeout(self):
        tele = Telemetry()
        # seed 22 @ rate .2: only chunk 3 hangs, on attempt 0.
        with activate(tele), Fault(
            mode="hang", rate=0.2, seed=22, hang_seconds=30.0
        ):
            out = run_chunks(_square, [(i,) for i in range(4)], workers=4,
                             config=PoolConfig(stall_timeout_seconds=0.75))
        assert out == [0, 1, 4, 9]
        assert tele.counters["pool.worker_restarts"] >= 1

    def test_serial_downgrade_is_correct_and_counted(self):
        tele = Telemetry()
        cfg = PoolConfig(max_restarts=0)
        with activate(tele), Fault(mode="kill", rate=1.0, seed=0):
            out = run_chunks(_square, [(i,) for i in range(6)], workers=3,
                             config=cfg)
        assert out == self.BASELINE
        assert tele.counters["pool.serial_downgrades"] == 1

    def test_worker_death_during_submit_is_a_collapse(self, monkeypatch):
        """A worker that dies before the fan-out is fully submitted makes
        ``submit`` raise; that is a collapse like any other, and the
        unsubmitted chunks replay after the respawn."""
        spawn = ResilientPool._spawn_executor
        generations = []

        def first_breaks(self, max_workers, shared, payload):
            generations.append(max_workers)
            if len(generations) == 1:
                return _BreaksOnSecondSubmit()
            return spawn(self, max_workers, shared, payload)

        monkeypatch.setattr(ResilientPool, "_spawn_executor", first_breaks)
        tele = Telemetry()
        with activate(tele):
            out = run_chunks(_square, [(i,) for i in range(6)], workers=2)
        assert out == self.BASELINE
        assert tele.counters["pool.worker_restarts"] == 1

    def test_downgraded_serial_failure_still_quarantines(self):
        cfg = PoolConfig(max_restarts=0, retries=1)
        with Fault(mode="kill", rate=1.0, seed=0):
            with pytest.raises(ChunkQuarantined):
                run_chunks(_always_raise, [(0,), (1,)], workers=2, config=cfg)


# -- configuration ------------------------------------------------------


class TestConfiguration:
    def test_pool_config_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_POOL_RETRIES", "7")
        monkeypatch.setenv("REPRO_POOL_MAX_RESTARTS", "2")
        monkeypatch.setenv("REPRO_POOL_STALL_TIMEOUT", "1.5")
        cfg = PoolConfig.from_env()
        assert cfg.retries == 7
        assert cfg.max_restarts == 2
        assert cfg.stall_timeout_seconds == 1.5

    def test_injector_arms_and_restores_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_RATE", raising=False)
        assert armed_fault() is None
        with Fault(mode="raise", rate=0.5, seed=3):
            spec = armed_fault()
            assert spec is not None
            assert (spec.mode, spec.rate, spec.seed) == ("raise", 0.5, 3)
        assert armed_fault() is None
        # A mistyped chaos variable is an error naming it, never a
        # silently disarmed run.
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.5")
        monkeypatch.setenv("REPRO_FAULT_MODE", "kil")
        with pytest.raises(ValueError, match="REPRO_FAULT_MODE"):
            armed_fault()
        monkeypatch.setenv("REPRO_FAULT_MODE", "kill")
        monkeypatch.setenv("REPRO_FAULT_RATE", "abc")
        with pytest.raises(ValueError, match="REPRO_FAULT_RATE"):
            armed_fault()

    def test_injector_rejects_bad_modes(self):
        with pytest.raises(ValueError):
            Fault(mode="meltdown")
        with pytest.raises(ValueError):
            Fault(mode="kill", rate=1.5)

    def test_fault_draw_is_deterministic(self):
        spec = Fault(mode="kill", rate=0.25, seed=0)
        draws = [spec.fires(i, a) for i in range(6) for a in range(3)]
        assert draws == [spec.fires(i, a) for i in range(6) for a in range(3)]
        none = Fault(mode="kill", rate=0.0, seed=0)
        assert not any(none.fires(i, 0) for i in range(64))


# -- satellite regression: no orphan workers on interrupt ---------------


class TestNoOrphans:
    def test_interrupt_mid_iteration_leaves_no_orphan_processes(self):
        """Ctrl-C while chunks are in flight must terminate the workers.

        ``tick`` raises ``KeyboardInterrupt`` as soon as the first (fast)
        chunk commits while three others are still sleeping; the pool's
        forced shutdown must terminate those workers rather than leaving
        them to finish 30-second sleeps as orphans.
        """
        before = {p.pid for p in multiprocessing.active_children()}

        def tick():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_chunks(
                _sleep_then,
                [(0, 0.0), (1, 30.0), (2, 30.0), (3, 30.0)],
                workers=4,
                tick=tick,
            )
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            leftover = {
                p.pid for p in multiprocessing.active_children()
            } - before
            if not leftover:
                break
            time.sleep(0.05)
        assert not leftover, f"orphan worker processes survived: {leftover}"


# -- helpers ------------------------------------------------------------


class _BreaksOnSecondSubmit:
    """Executor stand-in whose worker dies while chunks are submitted."""

    def __init__(self):
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        if self.submits == 2:
            raise BrokenProcessPool("worker died during submit")
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _QuarantineAlgo(IMAlgorithm):
    """Algorithm whose fan-out hits a poison chunk — must map to FAILED."""

    name = "QuarantineAlgo"
    supported = (Dynamics.IC,)

    def _select(self, graph, k, model, rng, budget):
        run_chunks(
            _always_raise,
            [(0,), (1,)],
            workers=2,
            config=PoolConfig(retries=1),
        )
        return list(range(k)), {}
