"""Tests for the sdp-bench CLI."""

from __future__ import annotations

import pytest

from repro.bench.cli import main
from repro.bench.experiments.common import ExperimentSettings, clear_caches
from repro.errors import BenchmarkError


#: Small enough for the unit suite.
SMALL = ["--instances", "1", "--heavy-instances", "1", "--max-seconds", "10"]


@pytest.fixture(autouse=True)
def _fresh():
    clear_caches()
    yield
    clear_caches()


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table-1.1" in out and "figure-2.2" in out


def test_unknown_experiment(capsys):
    assert main(["table-9.9"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_single_experiment(capsys):
    assert main(["table-2.2", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "matches the paper" in out
    assert "done in" in out


def test_flag_overrides(capsys):
    code = main(["table-2.2", "--instances", "1", "--seed", "5"])
    assert code == 0


def test_experiment_with_comparison(capsys):
    assert main(["figure-2.2", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "Survivors" in out


def test_robust_report_smoke(capsys):
    assert main(["robust-report", *SMALL, "--instances", "2"]) == 0
    out = capsys.readouterr().out
    assert "budget-exceeded" in out
    assert "Fallbacks" in out
    assert "Degraded winners" in out


def test_robust_flag_accepted(capsys):
    assert main(["table-2.2", *SMALL, "--robust"]) == 0
    assert "done in" in capsys.readouterr().out


def test_output_directory(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    assert main(["table-2.2", *SMALL, "--output", str(out_dir)]) == 0
    written = out_dir / "table-2.2.txt"
    assert written.exists()
    assert "matches the paper" in written.read_text()


# Malformed sizes fail before any experiment starts: exit 2, one line on
# stderr naming the flag or variable, and no "== <experiment> ==" header.
@pytest.mark.parametrize(
    "argv",
    (
        ["table-1.1", "--instances", "0"],
        ["table-1.1", "--instances", "-3"],
        ["table-1.1", "--heavy-instances", "0"],
        ["table-1.1", "--max-seconds", "0"],
    ),
    ids=(
        "instances-0",
        "instances-negative",
        "heavy-instances-0",
        "max-seconds-0",
    ),
)
def test_non_positive_size_flag_rejected(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert argv[1] in lines[0]


def test_settings_reject_non_positive_sizes():
    with pytest.raises(BenchmarkError, match="--instances"):
        ExperimentSettings().scaled(0)
    with pytest.raises(BenchmarkError, match="--heavy-instances"):
        ExperimentSettings(heavy_instances=-1)
