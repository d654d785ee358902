"""Every technique's exact outcome on a fixed set of queries, pinned.

For each technique :func:`~repro.core.registry.available_techniques`
lists and each query below, ``tests/data/technique_outcomes.json``
records the plan cost and rows (as ``repr``), ``plans_costed``,
``jcrs_created``, ``jcrs_pruned`` and the plan's tree of (method, mask,
order, cost). The queries are the paper schema's star-chain-10, ordered
star-9 and chain-8 (schema seed 0, workload seed 0, instances 0 and 1)
and the 13 TPC-H-lite texts. Every outcome must be reproduced exactly,
as ``sdp-bench --check`` compares costs: a search change that keeps
every plan and counter passes, and any other fails here with the case
named.

The recording is rewritten only when a technique's search changes on
purpose::

    PYTHONPATH=src python tests/test_technique_outcomes.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.bench.workloads import WorkloadSpec, make_query
from repro.catalog import analyze, paper_schema
from repro.core.registry import available_techniques, make_optimizer
from repro.query.parser import parse_sql
from repro.workloads import TPCH_LITE_SQL, tpch_lite_schema

RECORDING = Path(__file__).parent / "data" / "technique_outcomes.json"

#: Paper-schema workload cells, two instances each.
SPECS = (
    WorkloadSpec("star-chain", 10),
    WorkloadSpec("star", 9, ordered=True),
    WorkloadSpec("chain", 8),
)


def queries() -> list[tuple[str, object, object]]:
    """``(label, query, stats)`` of every recorded query, in order."""
    paper = paper_schema(seed=0)
    paper_stats = analyze(paper)
    out = [
        (f"{spec.label}#{instance}", make_query(spec, paper, instance), paper_stats)
        for spec in SPECS
        for instance in (0, 1)
    ]
    tpch = tpch_lite_schema()
    tpch_stats = analyze(tpch)
    out.extend(
        (label, parse_sql(tpch, sql, label=label), tpch_stats)
        for label, sql in TPCH_LITE_SQL
    )
    return out


def _tree(plan) -> list | None:
    if plan is None:
        return None
    return [
        plan.method,
        plan.mask,
        plan.order,
        repr(plan.cost),
        _tree(plan.left),
        _tree(plan.right),
    ]


def outcome(technique: str, query, stats) -> dict:
    """What ``technique`` makes of ``query``, as JSON-ready data."""
    result = make_optimizer(technique).optimize(query, stats)
    return {
        "cost": repr(result.cost),
        "rows": repr(result.rows),
        "plans_costed": result.plans_costed,
        "jcrs_created": result.jcrs_created,
        "jcrs_pruned": result.jcrs_pruned,
        "plan": _tree(result.plan),
    }


def _record(techniques: list[str]) -> list[dict]:
    return [
        {"technique": technique, "query": label, "outcome": outcome(technique, query, stats)}
        for label, query, stats in queries()
        for technique in techniques
    ]


@pytest.fixture(scope="module")
def recording() -> list[dict]:
    return json.loads(RECORDING.read_text())


def test_recording_covers_every_technique_and_query(recording):
    labels = [label for label, _query, _stats in queries()]
    assert [(entry["query"], entry["technique"]) for entry in recording] == [
        (label, technique) for label in labels for technique in available_techniques()
    ]


def test_every_outcome_is_reproduced(recording):
    now = {
        (entry["query"], entry["technique"]): entry["outcome"]
        for entry in _record(available_techniques())
    }
    drifted = [
        (entry["query"], entry["technique"], entry["outcome"], now[entry["query"], entry["technique"]])
        for entry in recording
        if now[entry["query"], entry["technique"]] != entry["outcome"]
    ]
    assert not drifted, f"{len(drifted)} outcomes changed, first: {drifted[0]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_technique_outcomes.py --write")
    RECORDING.parent.mkdir(exist_ok=True)
    entries = _record(available_techniques())
    with RECORDING.open("w") as handle:
        handle.write("[\n")
        for number, entry in enumerate(entries):
            comma = "," if number < len(entries) - 1 else ""
            handle.write(json.dumps(entry, separators=(",", ":")) + comma + "\n")
        handle.write("]\n")
