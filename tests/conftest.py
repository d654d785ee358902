"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.catalog import SchemaBuilder, analyze, paper_schema
from repro.query import JoinGraph, Query, chain_joins, star_joins
from repro.query.topology import star_chain_joins


@pytest.fixture(scope="session")
def schema():
    """The paper's 25-relation schema (seed 0)."""
    return paper_schema(seed=0)


@pytest.fixture(scope="session")
def stats(schema):
    """Statistics snapshot for the paper schema."""
    return analyze(schema)


@pytest.fixture(scope="session")
def small_schema():
    """A small, fast schema for unit tests."""
    return SchemaBuilder(
        seed=1,
        relation_count=10,
        column_count=8,
        max_cardinality=50_000,
        max_domain=50_000,
        name="small-10",
    ).build()


@pytest.fixture(scope="session")
def small_stats(small_schema):
    return analyze(small_schema)


def make_star_query(schema, size: int, label: str = "star") -> Query:
    """A star query over the first ``size`` relations (hub = largest)."""
    hub = schema.largest_relation().name
    spokes = [n for n in schema.relation_names if n != hub][: size - 1]
    graph = JoinGraph([hub, *spokes], star_joins(schema, hub, spokes))
    return Query(schema, graph, label=f"{label}-{size}")


def make_chain_query(schema, size: int, label: str = "chain") -> Query:
    """A chain query over the first ``size`` relations."""
    names = list(schema.relation_names[:size])
    graph = JoinGraph(names, chain_joins(schema, names))
    return Query(schema, graph, label=f"{label}-{size}")


def make_star_chain_query(
    schema, spokes: int, chain: int, label: str = "star-chain"
) -> Query:
    """Hub + ``spokes`` star + ``chain`` chained relations."""
    names = list(schema.relation_names[: 1 + spokes + chain])
    hub, spoke_names, chain_names = (
        names[0],
        names[1 : 1 + spokes],
        names[1 + spokes :],
    )
    graph = JoinGraph(
        names, star_chain_joins(schema, hub, spoke_names, chain_names)
    )
    return Query(schema, graph, label=label)


@pytest.fixture
def parse_calls(monkeypatch) -> list[str]:
    """Every SQL text the serving layer parses, in order."""
    import repro.service.service as service_module
    from repro.query import parse_sql

    calls: list[str] = []

    def counting_parse(schema, sql):
        calls.append(sql)
        return parse_sql(schema, sql)

    monkeypatch.setattr(service_module, "parse_sql", counting_parse)
    return calls


@pytest.fixture
def star5_query(small_schema):
    return make_star_query(small_schema, 5)


@pytest.fixture
def chain5_query(small_schema):
    return make_chain_query(small_schema, 5)
