"""Micro-benchmarks of the optimizers themselves on one fixed query.

Unlike the table benchmarks (which time whole experiments once), these use
pytest-benchmark's statistics over repeated runs of a single optimization,
giving a stable per-optimizer latency signal for regression tracking.
"""

import pytest

from repro.bench.experiments.common import paper_catalog
from repro.bench.workloads import WorkloadSpec, make_query
from repro.core.registry import make_optimizer


@pytest.fixture(scope="module")
def star_chain_12():
    schema, stats = paper_catalog()
    spec = WorkloadSpec(topology="star-chain", relation_count=12, seed=1)
    return make_query(spec, schema, 0), stats


@pytest.mark.parametrize("technique", ["DP", "IDP(7)", "IDP(4)", "SDP", "GOO"])
def test_optimize_star_chain_12(benchmark, settings, star_chain_12, technique):
    query, stats = star_chain_12
    optimizer = make_optimizer(technique, budget=settings.budget())
    result = benchmark.pedantic(
        optimizer.optimize, args=(query, stats), rounds=3, iterations=1
    )
    assert result.cost > 0
