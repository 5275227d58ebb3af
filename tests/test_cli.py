"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.algorithms import RIS
from repro.cli import _parse_params, _parse_value, main
from repro.datasets import load
from repro.diffusion.models import WC
from repro.framework import derive_rng


def _seeds_line(out: str) -> str:
    return next(line for line in out.splitlines() if line.startswith("seeds"))


class TestParsing:
    def test_parse_value_types(self):
        assert _parse_value("3") == 3
        assert _parse_value("0.5") == 0.5
        assert _parse_value("abc") == "abc"
        assert _parse_value("False") is False and _parse_value("true") is True

    def test_parse_params(self):
        assert _parse_params(["epsilon=0.5", "rr_scale=0.01"]) == {
            "epsilon": 0.5,
            "rr_scale": 0.01,
        }

    def test_parse_params_rejects_bad_item(self):
        with pytest.raises(SystemExit):
            _parse_params(["oops"])

    def test_parse_params_none(self):
        assert _parse_params(None) == {}


class TestCommands:
    def test_list_datasets(self, capsys):
        assert main(["list-datasets"]) == 0
        out = capsys.readouterr().out
        assert "nethept" in out and "friendster" in out

    def test_support_matrix(self, capsys):
        assert main(["support-matrix"]) == 0
        out = capsys.readouterr().out
        assert "LDAG" in out

    def test_recommend(self, capsys):
        assert main(["recommend", "--model", "WC"]) == 0
        assert "IMM" in capsys.readouterr().out

    def test_recommend_memory_constrained(self, capsys):
        assert main(["recommend", "--model", "IC", "--memory-constrained"]) == 0
        assert "EaSyIM" in capsys.readouterr().out

    def test_select(self, capsys):
        code = main([
            "select", "--dataset", "nethept", "--model", "WC",
            "--algorithm", "EaSyIM", "--param", "path_length=2",
            "--k", "3", "--mc", "50",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "spread" in out
        assert "seeds" in out

    def test_scoring_workers_leave_selection_alone(self, capsys):
        # Alg. 3 decouples selection from scoring: --mc-workers shapes the
        # scoring estimate only, never CELF's selection oracle.
        cell = [
            "select", "--dataset", "nethept", "--model", "WC",
            "--algorithm", "CELF", "--k", "3", "--mc", "50",
            "--param", "mc_simulations=5",
        ]
        assert main(cell) == 0
        serial = _seeds_line(capsys.readouterr().out)
        assert main(cell + ["--mc-workers", "2"]) == 0
        assert _seeds_line(capsys.readouterr().out) == serial

    def test_engine_knob_reaches_constructor_through_param(self, capsys):
        code = main([
            "select", "--dataset", "nethept", "--model", "WC",
            "--algorithm", "RIS", "--k", "5", "--mc", "50",
            "--param", "num_rr_sets=2000", "--param", "rr_workers=2",
        ])
        assert code == 0
        graph = WC.weighted(load("nethept"), np.random.default_rng(0))
        # The CLI's first attempt selects on derive_rng(--seed rng, 0).
        ref = RIS(num_rr_sets=2000, rr_workers=2).select(
            graph, 5, WC, rng=derive_rng(np.random.default_rng(0), 0)
        )
        assert _seeds_line(capsys.readouterr().out) == f"seeds     : {ref.seeds}"

    def test_select_budget_violation_nonzero_exit(self, capsys):
        code = main([
            "select", "--dataset", "nethept", "--model", "WC",
            "--algorithm", "CELF", "--param", "mc_simulations=5000",
            "--k", "5", "--time-limit", "0.05",
        ])
        assert code == 1
        assert "DNF" in capsys.readouterr().out

    def test_tune(self, capsys):
        code = main([
            "tune", "--dataset", "nethept", "--model", "WC",
            "--algorithm", "EaSyIM", "--parameter", "path_length",
            "--spectrum", "3,2,1", "--k", "3", "--mc", "50",
        ])
        assert code == 0
        assert "X*" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
