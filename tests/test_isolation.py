"""End-to-end tests for the hardened execution layer.

Every status of the failure taxonomy (OK / DNF / CRASHED / FAILED /
KILLED) is driven through the isolated cell by an armed ``Fault`` —
crucially *without* the technique ever calling ``budget.check()``,
proving the enforcement is preemptive, not cooperative.  Retry replay
(a recovered cell reports the fault-free seeds) and checkpoint/resume
round-trips are exercised the same way.

Fault draws are pinned: ``Fault.fires(0, attempt)`` is
``sha256(f"{seed}:0:{attempt}")`` against the rate, so at rate 0.5
seed 1 fires on attempt 0 only and seed 15 on attempts 0 and 1.
"""

import json
import os

import numpy as np
import pytest

from repro.algorithms import registry
from repro.algorithms.base import IMAlgorithm, SeedSelectionResult
from repro.algorithms.heuristics import Degree
from repro.cli import main
from repro.diffusion.models import Dynamics, WC
from repro.framework.experiments import SweepConfig, quality_sweep
from repro.framework.isolation import (
    IsolationConfig,
    derive_rng,
    execute_cell,
    isolation_supported,
)
from repro.framework.metrics import (
    STATUS_CRASHED,
    STATUS_DNF,
    STATUS_FAILED,
    STATUS_KILLED,
    STATUS_OK,
    RunRecord,
    run_with_budget,
)
from repro.framework.pool import Fault, run_chunks
from repro.framework.results import CheckpointJournal, append_record, cell_key
from repro.framework.runner import IMFramework
from repro.graph.digraph import DiGraph

needs_isolation = pytest.mark.skipif(
    not isolation_supported(), reason="multiprocessing unavailable"
)

ISOLATED = IsolationConfig(enabled=True, time_limit_seconds=60.0)


@pytest.fixture
def graph():
    gen = np.random.default_rng(3)
    g = DiGraph.from_arrays(40, gen.integers(0, 40, 160), gen.integers(0, 40, 160))
    return WC.weighted(g)


#: Tags of every CountingAlgo execution in this process (resume tests).
EXECUTIONS: list[int] = []


class CountingAlgo(IMAlgorithm):
    """Deterministic technique that records each in-process execution."""

    name = "Counting"
    supported = (Dynamics.IC, Dynamics.LT)

    def __init__(self, tag: int = 0) -> None:
        self.tag = tag

    def _select(self, graph, k, model, rng, budget):
        EXECUTIONS.append(self.tag)
        return list(range(k)), {"tag": self.tag}


class TestDeriveRng:
    def test_deterministic(self):
        a = derive_rng(np.random.default_rng(5), 3).integers(0, 1 << 30, 8)
        b = derive_rng(np.random.default_rng(5), 3).integers(0, 1 << 30, 8)
        assert (a == b).all()

    def test_salts_decorrelate(self):
        parent = np.random.default_rng(5)
        a = derive_rng(parent, 0).integers(0, 1 << 30, 8)
        b = derive_rng(parent, 1).integers(0, 1 << 30, 8)
        assert not (a == b).all()

    def test_parent_state_untouched(self):
        parent = np.random.default_rng(5)
        before = parent.bit_generator.state
        derive_rng(parent, 2)
        assert parent.bit_generator.state == before


def _square(x):
    return x * x


class TestFaultInjectorCooperative:
    def test_raise_becomes_failed_not_crash(self, graph, rng):
        record, result = run_with_budget(
            FaultyCounting(tag=0), graph, 3, WC, rng=rng
        )
        assert record.status == STATUS_FAILED
        assert result is None
        assert "injected fault" in record.extras["failure"]["traceback"]

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            Fault("lightning")

    def test_armed_fault_never_fires_in_process(self, graph, rng):
        """Faults fire only in child processes: an in-process cell and a
        serial fan-out run clean under an always-firing fault."""
        with Fault("raise"):
            record, __ = execute_cell(
                Degree(), graph, 3, WC, rng=rng,
                config=IsolationConfig(enabled=False),
            )
            assert run_chunks(_square, [(i,) for i in range(3)], workers=1) == [
                0, 1, 4,
            ]
        assert record.status == STATUS_OK
        assert record.extras["attempts"] == 1


@needs_isolation
class TestIsolatedStatuses:
    def test_ok_round_trip(self, graph, rng):
        record, result = execute_cell(
            Degree(), graph, 3, WC, rng=rng, config=ISOLATED
        )
        assert record.status == STATUS_OK
        assert len(record.seeds) == 3
        assert record.extras["attempts"] == 1
        assert isinstance(result, SeedSelectionResult)
        assert result.seeds == record.seeds

    def test_hang_preempted_to_dnf_without_budget_check(self, graph, rng):
        with Fault("hang", hang_seconds=20.0):
            record, result = execute_cell(
                Degree(), graph, 3, WC, rng=rng,
                config=IsolationConfig(enabled=True, time_limit_seconds=0.5),
            )
        assert record.status == STATUS_DNF
        assert result is None
        assert record.extras["enforcement"] == "preemptive-kill"
        assert record.elapsed_seconds < 15.0

    def test_overallocation_crashed(self, graph, rng):
        with Fault("oom"):
            record, result = execute_cell(
                Degree(), graph, 3, WC, rng=rng,
                config=IsolationConfig(
                    enabled=True, time_limit_seconds=60.0, memory_limit_mb=64.0
                ),
            )
        assert record.status == STATUS_CRASHED
        assert result is None
        assert record.extras.get("memory_enforcement") in ("rlimit", "tracemalloc")

    def test_raise_failed_with_traceback(self, graph, rng):
        with Fault("raise"):
            record, __ = execute_cell(Degree(), graph, 3, WC, rng=rng, config=ISOLATED)
        assert record.status == STATUS_FAILED
        failure = record.extras["failure"]
        assert failure["type"] == "RuntimeError"
        assert "injected fault" in failure["traceback"]

    def test_hard_exit_killed(self, graph, rng):
        with Fault("kill"):
            record, __ = execute_cell(Degree(), graph, 3, WC, rng=rng, config=ISOLATED)
        assert record.status == STATUS_KILLED
        assert record.extras["failure"]["exitcode"] == 113

    def test_disabled_config_runs_in_process(self, graph, rng):
        record, __ = execute_cell(
            CountingAlgo(tag=99), graph, 3, WC, rng=rng,
            config=IsolationConfig(enabled=False, time_limit_seconds=60.0),
        )
        assert record.status == STATUS_OK
        assert EXECUTIONS[-1] == 99  # ran in this process, not a child


@needs_isolation
class TestRetryPolicy:
    def test_transient_failure_retried_to_ok(self, graph):
        # seed 15 @ rate .5 fires on attempts 0 and 1, not on attempt 2.
        with Fault("raise", rate=0.5, seed=15):
            record, result = execute_cell(
                Degree(), graph, 3, WC, rng=np.random.default_rng(7),
                config=ISOLATED, attempts=3,
            )
        assert record.status == STATUS_OK
        assert result is not None
        assert record.extras["attempts"] == 3
        assert record.extras["attempt_history"] == [STATUS_FAILED, STATUS_FAILED]

    def test_exhausted_attempts_keep_last_failure(self, graph):
        with Fault("raise"):
            record, __ = execute_cell(
                Degree(), graph, 3, WC, rng=np.random.default_rng(7),
                config=ISOLATED, attempts=2,
            )
        assert record.status == STATUS_FAILED
        assert record.extras["attempts"] == 2

    def test_budget_statuses_not_retried(self, graph):
        with Fault("hang", hang_seconds=20.0):
            record, __ = execute_cell(
                Degree(), graph, 3, WC, rng=np.random.default_rng(7),
                config=IsolationConfig(enabled=True, time_limit_seconds=0.4),
                attempts=3,
            )
        assert record.status == STATUS_DNF
        assert record.extras["attempts"] == 1  # a DNF never re-ran

    def test_retry_replays_fault_free_seeds(self, graph):
        """A cell killed once and retried reports the unfaulted seeds."""
        def run_once():
            record, __ = execute_cell(
                registry.make("RIS", num_rr_sets=80), graph, 4, WC,
                rng=np.random.default_rng(11), config=ISOLATED, attempts=2,
            )
            return record

        clean = run_once()
        # seed 1 @ rate .5 kills attempt 0 only.
        with Fault("kill", rate=0.5, seed=1):
            first, second = run_once(), run_once()
        assert first.status == STATUS_OK == second.status
        assert first.extras["attempts"] == 2 == second.extras["attempts"]
        assert first.extras["attempt_history"] == [STATUS_KILLED]
        assert first.seeds == second.seeds == clean.seeds


class TestJournal:
    def test_cell_key_param_order_insensitive(self):
        a = cell_key("IMM", {"epsilon": 0.5, "rr_scale": 0.01}, 10, model="WC")
        b = cell_key("IMM", {"rr_scale": 0.01, "epsilon": 0.5}, 10, model="WC")
        assert a == b

    def test_cell_key_distinguishes_cells(self):
        base = cell_key("IMM", {"epsilon": 0.5}, 10, model="WC", scope="dblp")
        assert base != cell_key("IMM", {"epsilon": 0.5}, 25, model="WC", scope="dblp")
        assert base != cell_key("IMM", {"epsilon": 0.1}, 10, model="WC", scope="dblp")
        assert base != cell_key("IMM", {"epsilon": 0.5}, 10, model="LT", scope="dblp")
        assert base != cell_key("IMM", {"epsilon": 0.5}, 10, model="WC", scope="orkut")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        key = cell_key("X", {}, 3, model="WC")
        journal = CheckpointJournal(path)
        assert key not in journal and len(journal) == 0
        journal.record(
            key, RunRecord("X", "WC", 3, STATUS_OK, seeds=[1, 2, 3], spread=5.5)
        )
        reloaded = CheckpointJournal(path)
        assert key in reloaded
        assert reloaded.get(key).seeds == [1, 2, 3]
        assert reloaded.get(key).spread == 5.5
        assert reloaded.keys() == [key]

    def test_tolerates_killed_writer_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        key = cell_key("X", {}, 3, model="WC")
        CheckpointJournal(path).record(key, RunRecord("X", "WC", 3, STATUS_OK))
        with open(path, "a") as handle:
            handle.write('{"key": "half-written cell, no closing')
        with pytest.warns(RuntimeWarning, match="torn trailing"):
            journal = CheckpointJournal(path)
        assert len(journal) == 1 and key in journal
        assert journal.torn_tail_bytes > 0

    def test_truncated_mid_record_repairs_and_reruns_cell(self, tmp_path):
        """A kill mid-append loses only the cell being written.

        The torn tail is physically truncated away on load (so the file is
        back on a clean line boundary) and the affected cell reads as
        missing — i.e. it will re-run, never resume from half a record.
        """
        path = tmp_path / "journal.jsonl"
        key_a = cell_key("A", {}, 3, model="WC")
        key_b = cell_key("B", {}, 3, model="WC")
        journal = CheckpointJournal(path)
        journal.record(key_a, RunRecord("A", "WC", 3, STATUS_OK, seeds=[1]))
        clean_size = path.stat().st_size
        journal.record(key_b, RunRecord("B", "WC", 3, STATUS_OK, seeds=[2]))
        # Kill the writer mid-way through the second record's bytes.
        os.truncate(path, clean_size + (path.stat().st_size - clean_size) // 2)
        with pytest.warns(RuntimeWarning, match="torn trailing"):
            reloaded = CheckpointJournal(path)
        assert key_a in reloaded and reloaded.get(key_a).seeds == [1]
        assert key_b not in reloaded  # the torn cell re-runs
        assert reloaded.torn_tail_bytes > 0
        assert path.stat().st_size == clean_size  # repaired on disk

    def test_append_after_torn_tail_does_not_concatenate(self, tmp_path):
        """Appending to an unrepaired torn tail must not merge records.

        ``append_record`` guards the line boundary itself, so even a writer
        that never went through ``CheckpointJournal._load`` (no repair pass)
        cannot glue its record onto a killed predecessor's fragment.
        """
        path = tmp_path / "journal.jsonl"
        key_a = cell_key("A", {}, 1, model="IC")
        key_b = cell_key("B", {}, 1, model="IC")
        CheckpointJournal(path).record(key_a, RunRecord("A", "IC", 1, STATUS_OK))
        os.truncate(path, path.stat().st_size - 7)  # torn: no trailing newline
        append_record(RunRecord("B", "IC", 1, STATUS_OK, seeds=[9]), path, key=key_b)
        # The fragment became a complete-but-unparsable interior line, so
        # the reload skips it without a torn-tail warning.
        reloaded = CheckpointJournal(path)
        assert key_b in reloaded and reloaded.get(key_b).seeds == [9]
        assert key_a not in reloaded  # its fragment was skipped, not merged
        assert reloaded.torn_tail_bytes == 0

    def test_non_ok_cells_journaled_too(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        key = cell_key("Y", {"p": 1}, 5, model="IC")
        CheckpointJournal(path).record(
            key,
            RunRecord("Y", "IC", 5, STATUS_FAILED,
                      extras={"failure": {"type": "KeyError"}}),
        )
        reloaded = CheckpointJournal(path)
        assert reloaded.get(key).status == STATUS_FAILED
        assert reloaded.get(key).extras["failure"]["type"] == "KeyError"


class TestCheckpointResume:
    @pytest.fixture(autouse=True)
    def _register_counting(self, monkeypatch):
        monkeypatch.setitem(registry.ALGORITHMS, "Counting", CountingAlgo)
        EXECUTIONS.clear()

    def test_rerun_skips_all_journaled_cells(self, graph, tmp_path):
        path = tmp_path / "sweep.jsonl"
        spectrum = [{"tag": 0}, {"tag": 1}]
        fw = IMFramework(graph, WC, mc_simulations=30, journal=path)
        trace = fw.run("Counting", 3, spectrum, rng=np.random.default_rng(0))
        assert EXECUTIONS == [0, 1]
        assert trace.chosen.ok

        resumed = IMFramework(graph, WC, mc_simulations=30, journal=path)
        trace2 = resumed.run("Counting", 3, spectrum, rng=np.random.default_rng(0))
        assert EXECUTIONS == [0, 1]  # nothing re-ran
        assert trace2.chosen.ok
        assert trace2.chosen.seeds == trace.chosen.seeds
        assert trace2.chosen.spread == trace.chosen.spread

    def test_killed_sweep_resumes_only_missing_cells(self, graph, tmp_path):
        path = tmp_path / "sweep.jsonl"
        spectrum = [{"tag": 0}, {"tag": 1}, {"tag": 2}]
        # A sweep killed after its first cell left one journaled line.
        IMFramework(graph, WC, mc_simulations=30, journal=path).run(
            "Counting", 3, spectrum[:1], rng=np.random.default_rng(0)
        )
        assert EXECUTIONS == [0]
        trace = IMFramework(graph, WC, mc_simulations=30, journal=path).run(
            "Counting", 3, spectrum, rng=np.random.default_rng(0)
        )
        assert EXECUTIONS == [0, 1, 2]  # cell 0 reused, only 1 and 2 ran
        assert len(trace.records) == 3
        with open(path) as handle:
            assert sum(1 for line in handle if line.strip()) == 3

    def test_quality_sweep_journal_round_trip(self, graph, tmp_path):
        path = tmp_path / "cells.jsonl"
        roster = {"Counting": {"tag": 7}}
        config = SweepConfig(k_grid=(2, 3), mc_simulations=20,
                             time_limit_seconds=30.0)
        first = quality_sweep(graph, WC, roster, config,
                              journal=CheckpointJournal(path), scope="toy")
        assert EXECUTIONS == [7, 7]
        assert first[("Counting", 2)].spread is not None

        again = quality_sweep(graph, WC, roster, config,
                              journal=CheckpointJournal(path), scope="toy")
        assert EXECUTIONS == [7, 7]  # fully resumed from the journal
        assert again[("Counting", 3)].spread == first[("Counting", 3)].spread


class FaultyCounting(CountingAlgo):
    """Raises on the tag-0 configuration, runs clean otherwise."""

    def _select(self, graph, k, model, rng, budget):
        if self.tag == 0:
            raise RuntimeError("injected fault")
        return super()._select(graph, k, model, rng, budget)


class TestFrameworkIsolation:
    @needs_isolation
    def test_spectrum_walk_survives_failing_configuration(self, graph, monkeypatch):
        monkeypatch.setitem(registry.ALGORITHMS, "Counting", FaultyCounting)
        fw = IMFramework(
            graph, WC, mc_simulations=30,
            isolation=IsolationConfig(enabled=True, time_limit_seconds=60.0),
        )
        trace = fw.run(
            "Counting", 3, [{"tag": 0}, {"tag": 1}],
            rng=np.random.default_rng(0),
        )
        # The faulty first configuration is recorded, not raised.
        assert trace.records[0].status == STATUS_FAILED
        assert trace.chosen_index == -1
        assert trace.failure is trace.records[0]


@needs_isolation
class TestCLI:
    def test_select_isolated_with_resume(self, tmp_path, capsys):
        journal = tmp_path / "cells.jsonl"
        argv = [
            "select", "--dataset", "nethept", "--model", "WC",
            "--algorithm", "Degree", "--k", "3", "--mc", "30",
            "--isolate", "--retries", "2", "--resume", str(journal),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "seeds" in first and "resumed" not in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "resumed" in second and "seeds" in second
        with open(journal) as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert len(lines) == 1
        assert lines[0]["record"]["status"] == STATUS_OK