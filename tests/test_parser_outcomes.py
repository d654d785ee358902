"""Every parser outcome on seeded SQL mutants, pinned against a recording.

The mutants come from the 13 TPC-H-lite templates and from star and
star-chain texts over the paper schema, by five edits: truncation, token
deletion, token insertion, swapped tokens and changed whitespace. For each
one ``tests/data/parser_outcomes.json`` records what ``parse_sql`` made of
it: for a parse, the relation order, every predicate (endpoints, columns,
eclass, implied flag), the eclass members, the selections, the ORDER BY,
the label and the query fingerprint; for a failure, the exception type and
its exact message. The parser must reproduce every outcome, and every
failure must be a :class:`~repro.errors.ReproError` (anything else escapes
:func:`outcome` and fails the test).

The recording is rewritten only when the parser's language changes on
purpose::

    PYTHONPATH=src python tests/test_parser_outcomes.py --write
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import pytest

from repro.bench.workloads import WorkloadSpec, make_query
from repro.catalog import paper_schema
from repro.errors import ReproError
from repro.query.parser import parse_sql
from repro.query.sql import render_sql
from repro.service.fingerprint import query_fingerprint
from repro.workloads import TPCH_LITE_SQL, tpch_lite_schema

RECORDING = Path(__file__).parent / "data" / "parser_outcomes.json"

#: Mutants drawn per base text and edit.
PER_EDIT = 12

_PIECE = re.compile(r"\s+|[A-Za-z_][A-Za-z_0-9]*|\d+(?:\.\d+)?|<=|>=|!=|<>|\S")

#: Tokens an insertion draws from, besides the base text's own.
_INSERTS = (
    "SELECT", "FROM", "WHERE", "AND", "ORDER", "BY", "OR", "JOIN", "*", ",",
    ".", ";", "(", ")", "=", "<", ">=", "<>", "!=", "42", "3.5", "-", "@",
    "'x'", "R1", "c1",
)

_WHITESPACE = (" ", "  ", "\n", "\t", " \n  ")


def _base_texts() -> list[tuple[str, str]]:
    """``(schema key, SQL text)`` of every text the mutants start from."""
    texts = [("tpch", sql) for _label, sql in TPCH_LITE_SQL]
    paper = paper_schema(seed=0)
    for topology, size, instance in (
        ("star", 6, 1), ("star", 9, 3), ("star-chain", 8, 0), ("star-chain", 10, 2),
    ):
        query = make_query(WorkloadSpec(topology, size), paper, instance)
        texts.append(("paper", " ".join(render_sql(query).split())))
    return texts


def _pieces(text: str) -> tuple[list[str], list[int]]:
    """The text's pieces, and the positions of the non-whitespace ones."""
    pieces = _PIECE.findall(text)
    return pieces, [i for i, piece in enumerate(pieces) if not piece.isspace()]


def _mutate(text: str, edit: str, rng: random.Random) -> str:
    pieces, tokens = _pieces(text)
    if edit == "truncate":
        return text[: rng.randrange(len(text))]
    if edit == "delete":
        del pieces[rng.choice(tokens)]
    elif edit == "insert":
        vocabulary = _INSERTS + tuple(pieces[i] for i in tokens)
        pieces.insert(rng.randrange(len(pieces) + 1), rng.choice(vocabulary))
    elif edit == "swap":
        first, second = rng.sample(tokens, 2)
        pieces[first], pieces[second] = pieces[second], pieces[first]
    else:
        # Rewrite every gap between tokens, the empty ones included. A gap
        # now and then closes, so names can fuse and symbols can come apart
        # from their operands.
        out = []
        for i in tokens:
            draw = rng.random()
            out.append("" if draw < 0.02 else rng.choice(_WHITESPACE) if draw < 0.5 else " ")
            out.append(pieces[i])
        return "".join(out)
    return "".join(pieces)


def mutants() -> list[tuple[str, str]]:
    """``(schema key, SQL text)`` of every mutant, in recording order."""
    rng = random.Random(20071)
    out = []
    for key, text in _base_texts():
        out.append((key, text))
        for edit in ("truncate", "delete", "insert", "swap", "whitespace"):
            for _ in range(PER_EDIT):
                out.append((key, _mutate(text, edit, rng)))
    return out


def outcome(schema, text: str) -> dict:
    """What ``parse_sql`` makes of ``text``, as JSON-ready data."""
    try:
        query = parse_sql(schema, text)
    except ReproError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    graph = query.graph
    return {
        "relations": list(graph.relation_names),
        "predicates": [
            [p.left, p.left_column, p.right, p.right_column, p.eclass, p.implied]
            for p in graph.predicates
        ],
        "eclasses": [
            [eclass, [list(point) for point in points]]
            for eclass, points in graph.eclasses.items()
        ],
        "selections": [
            [s.relation, s.column, s.op, s.value] for s in query.selections
        ],
        "order_by": list(query.order_by) if query.order_by else None,
        "order_by_key": query.order_by_key,
        "label": query.label,
        "fingerprint": query_fingerprint(query),
    }


def _schemas() -> dict:
    return {"tpch": tpch_lite_schema(), "paper": paper_schema(seed=0)}


def _record() -> list[dict]:
    schemas = _schemas()
    return [
        {"schema": key, "text": text, "outcome": outcome(schemas[key], text)}
        for key, text in mutants()
    ]


@pytest.fixture(scope="module")
def recording() -> list[dict]:
    return json.loads(RECORDING.read_text())


def test_recording_covers_the_mutants(recording):
    assert [(entry["schema"], entry["text"]) for entry in recording] == mutants()
    assert len(recording) >= 1000
    parsed = sum("error" not in entry["outcome"] for entry in recording)
    assert 100 <= parsed <= len(recording) - 100


def test_every_outcome_is_reproduced(recording):
    schemas = _schemas()
    drifted = [
        (entry["text"], entry["outcome"], now)
        for entry in recording
        if (now := outcome(schemas[entry["schema"]], entry["text"]))
        != entry["outcome"]
    ]
    assert not drifted, f"{len(drifted)} outcomes changed, first: {drifted[0]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_parser_outcomes.py --write")
    RECORDING.parent.mkdir(exist_ok=True)
    with RECORDING.open("w") as handle:
        handle.write("[\n")
        entries = _record()
        for number, entry in enumerate(entries):
            comma = "," if number < len(entries) - 1 else ""
            handle.write(json.dumps(entry, separators=(",", ":")) + comma + "\n")
        handle.write("]\n")
