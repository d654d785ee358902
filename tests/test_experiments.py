"""Integration tests: every experiment module runs end to end (tiny scale)."""

from __future__ import annotations

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.experiments import (
    figure_2_2,
    table_2_1,
    table_2_2,
    table_3_3,
)
from repro.bench.experiments.common import (
    MEMORY_BUDGET_BYTES,
    ExperimentSettings,
    cached_comparison,
    clear_caches,
    paper_catalog,
    scaleup_catalog,
)
from repro.bench.workloads import WorkloadSpec

TINY = ExperimentSettings(instances=2, heavy_instances=1, max_seconds=10.0)

#: Experiments cheap enough to run end-to-end in the unit-test suite. The
#: heavier ones (whole-table sweeps over 20+-relation graphs) run in
#: ``benchmarks/``.
FAST_EXPERIMENTS = [
    "table-1.1",
    "table-1.2",
    "figure-2.2",
    "table-2.2",
    "table-2.3",
    "table-3.6",
]


@pytest.fixture(autouse=True, scope="module")
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestCommon:
    def test_scaled(self):
        assert TINY.scaled(5).instances == 5

    def test_budget_reflects_settings(self):
        budget = TINY.budget()
        assert budget.max_seconds == 10.0
        assert budget.max_memory_bytes == MEMORY_BUDGET_BYTES

    def test_paper_catalog_cached(self):
        a = paper_catalog()
        b = paper_catalog()
        assert a[0] is b[0]

    def test_scaleup_catalog_size(self):
        schema, stats = scaleup_catalog(30)
        assert len(schema) == 30
        assert len(stats) == 30

    def test_comparison_memoized(self):
        spec = WorkloadSpec("chain", 5, seed=0)
        a = cached_comparison(TINY, spec, ["SDP"], 1)
        b = cached_comparison(TINY, spec, ["SDP"], 1)
        assert a is b


class TestExperimentRegistry:
    def test_all_have_title_and_run(self):
        # sdp-bench <id> is the one way to run an experiment.
        for name, module in EXPERIMENTS.items():
            assert hasattr(module, "TITLE"), name
            assert callable(module.run), name
            assert not hasattr(module, "main"), name

    def test_ids_follow_paper_numbering(self):
        assert set(EXPERIMENTS) >= {
            "table-1.1",
            "table-2.1",
            "table-3.1",
            "table-3.6",
            "figure-1.2",
            "figure-2.2",
        }


@pytest.mark.parametrize("name", FAST_EXPERIMENTS)
def test_experiment_runs(name):
    report = EXPERIMENTS[name].run(TINY)
    assert EXPERIMENTS[name].TITLE.split(":")[0] in report


class TestSpecificExperiments:
    def test_table_2_2_matches_paper(self):
        report = table_2_2.run(TINY)
        assert "matches the paper" in report
        membership = table_2_2.pairwise_membership()
        assert not any(membership["135"].values())

    def test_figure_2_2_example_graph(self):
        query = figure_2_2.example_query(TINY)
        graph = query.graph
        assert graph.n == 9
        assert len(graph.hubs()) == 2
        hub_degrees = sorted(graph.degree(h) for h in graph.hubs())
        assert hub_degrees == [3, 4]

    def test_table_2_1_reduced_sweep(self, monkeypatch):
        monkeypatch.setattr(table_2_1, "CHAIN_SIZES", (4, 6))
        monkeypatch.setattr(table_2_1, "STAR_SIZES", (4, 6))
        report = table_2_1.run(TINY)
        assert "Chain Time" in report
        assert report.count("\n") > 5

    def test_table_3_3_narrow_range(self):
        report = table_3_3.run(TINY, ranges=(("SDP", 8, 10),))
        assert "SDP" in report
        assert "Max star relations" in report
