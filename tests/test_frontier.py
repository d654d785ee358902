"""Unit tests for the Table 3.3 feasibility-frontier search."""

from __future__ import annotations

from repro.bench.experiments import table_3_3
from repro.bench.experiments.common import ExperimentSettings


class _FakeResult:
    elapsed_seconds = 1.0
    modeled_memory_mb = 10.0


def _patched_frontier(monkeypatch, threshold: int):
    """Frontier where sizes <= threshold are feasible."""

    def fake_attempt(settings, technique, size):
        return _FakeResult() if size <= threshold else None

    monkeypatch.setattr(table_3_3, "_attempt", fake_attempt)


class TestFrontierSearch:
    def test_finds_exact_boundary(self, monkeypatch):
        _patched_frontier(monkeypatch, threshold=17)
        size, result = table_3_3.frontier(
            ExperimentSettings(), "DP", 10, 30
        )
        assert size == 17
        assert result is not None

    def test_all_feasible_returns_cap(self, monkeypatch):
        _patched_frontier(monkeypatch, threshold=99)
        size, _result = table_3_3.frontier(ExperimentSettings(), "SDP", 10, 30)
        assert size == 30

    def test_lower_bound_infeasible(self, monkeypatch):
        _patched_frontier(monkeypatch, threshold=5)
        size, result = table_3_3.frontier(ExperimentSettings(), "DP", 10, 30)
        assert size is None and result is None

    def test_boundary_at_lower_bound(self, monkeypatch):
        _patched_frontier(monkeypatch, threshold=10)
        size, _result = table_3_3.frontier(ExperimentSettings(), "DP", 10, 30)
        assert size == 10

    def test_probe_count_is_logarithmic(self, monkeypatch):
        calls = []

        def fake_attempt(settings, technique, size):
            calls.append(size)
            return _FakeResult() if size <= 23 else None

        monkeypatch.setattr(table_3_3, "_attempt", fake_attempt)
        size, _ = table_3_3.frontier(ExperimentSettings(), "DP", 10, 40)
        assert size == 23
        assert len(calls) <= 8  # log2(31) + initial probe


def test_cli_lists_extensions(capsys):
    from repro.bench.cli import main

    main(["list"])
    out = capsys.readouterr().out
    for name in (
        "ext-baselines",
        "ext-skew",
        "ext-feature-vector",
        "ext-partitioning",
        "ext-estimation",
        "ext-topologies",
    ):
        assert name in out
