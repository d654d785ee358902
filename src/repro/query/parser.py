"""A small SQL parser for the query dialect the library emits.

:func:`parse_sql` is the inverse of :func:`repro.query.render_sql`: it turns
conjunctive SELECT statements — equi-joins plus single-table filter
predicates — into :class:`repro.query.Query` objects, so workloads can be
written (or replayed) as plain SQL text::

    SELECT *
    FROM R1, R2, R3
    WHERE R1.c4 = R2.c2 AND R2.c7 = R3.c1 AND R3.c5 < 100
    ORDER BY R2.c2;

Supported grammar (case-insensitive keywords)::

    query     := SELECT select FROM tables [WHERE conj] [ORDER BY column] [;]
    select    := '*' | column (',' column)*
    tables    := name (',' name)*
    conj      := predicate (AND predicate)*
    predicate := column '=' column            -- equi-join
               | column op number             -- selection
    op        := '=' | '!=' | '<>' | '<' | '<=' | '>' | '>='
    column    := name '.' name
    number    := digits ['.' digits]

Anything else — projections with expressions, column-to-column inequality
predicates, OUTER JOIN syntax — is outside the optimizer's scope here and is
rejected with a :class:`~repro.errors.QueryError` naming the offending
token. Projected columns are validated against the schema.
"""

from __future__ import annotations

import re

from repro.catalog.relation import Relation
from repro.catalog.schema import Schema
from repro.errors import QueryError
from repro.query.joingraph import JoinGraph
from repro.query.query import Query, Selection

__all__ = ["parse_sql"]

_TOKEN_BODY = r"""
    [A-Za-z_][A-Za-z_0-9]*        # name
  | \d+(?:\.\d+)?                 # number
  | <=|>=|!=|<>|<|>|=             # comparison operator
  | [*.,;()]                      # symbol
"""

#: One token with the whitespace before it. At the end of the text the
#: group matches empty: the token list always ends in the sentinel "".
_TOKEN = re.compile(rf"\s*({_TOKEN_BODY}|\Z)", re.VERBOSE)

#: The longest prefix the tokenizer accepts: it ends before the first
#: character no token can start with.
_SCANNABLE = re.compile(rf"(?:\s*(?:{_TOKEN_BODY}))*\s*", re.VERBOSE)

_KEYWORDS = {"select", "from", "where", "and", "order", "by"}

_OPS = {"<=", ">=", "!=", "<>", "<", ">", "="}


def _tokenize(text: str) -> list[str]:
    """The token texts of ``text``, ending in the sentinel ""."""
    bad = _SCANNABLE.match(text).end()
    if bad < len(text):
        raise QueryError(
            f"unexpected character {text[bad]!r} at offset {bad} in SQL"
        )
    return _TOKEN.findall(text)


def _offset(text: str, position: int) -> int:
    """Offset in ``text`` of its ``position``-th token (for error messages)."""
    return list(_TOKEN.finditer(text))[position].start(1)


def _expected(text: str, tokens: list[str], position: int, what: str) -> QueryError:
    """The error for a token that is not ``what``."""
    token = tokens[position]
    if not token:
        return QueryError("unexpected end of SQL text")
    return QueryError(
        f"expected {what} at offset {_offset(text, position)}, got {token!r}"
    )


def _is_name(token: str) -> bool:
    return token.isidentifier() and token.lower() not in _KEYWORDS


def _column(text: str, tokens: list[str], position: int) -> tuple[str, str]:
    """The ``relation.column`` reference that starts at ``position``."""
    relation = tokens[position]
    if not _is_name(relation):
        raise _expected(text, tokens, position, "a relation name")
    if tokens[position + 1] != ".":
        raise _expected(text, tokens, position + 1, "'.'")
    column = tokens[position + 2]
    if not _is_name(column):
        raise _expected(text, tokens, position + 2, "a column name")
    return relation, column


def _check_columns(
    relations: dict[str, Relation],
    references: list[tuple[str, str]],
    where: str,
) -> None:
    for rel_name, col_name in references:
        relation = relations.get(rel_name)
        if relation is None:
            raise QueryError(
                f"{where} references {rel_name!r} not listed in FROM"
            )
        if not relation.has_column(col_name):
            raise QueryError(
                f"{where} references unknown column {rel_name}.{col_name}"
            )


def parse_sql(schema: Schema, text: str, label: str | None = None) -> Query:
    """Parse SQL ``text`` into a :class:`Query` over ``schema``.

    Args:
        schema: Catalog resolving the referenced relations and columns.
        text: The SQL statement (see the module docstring for the grammar).
        label: Query label; defaults to a truncated form of the text.

    Raises:
        QueryError: on syntax errors, unknown relations/columns (including
            projected ones), column-to-column inequality predicates, or a
            disconnected join graph.
    """
    tokens = _tokenize(text)
    if tokens[0].lower() != "select":
        raise _expected(text, tokens, 0, "'SELECT'")
    projected: list[tuple[str, str]] | None = None
    if tokens[1] == "*":
        i = 2
    else:
        projected = [_column(text, tokens, 1)]
        i = 4
        while tokens[i] == ",":
            projected.append(_column(text, tokens, i + 1))
            i += 4
    if tokens[i].lower() != "from":
        raise _expected(text, tokens, i, "'FROM'")

    relations: list[str] = []
    while True:
        i += 1
        if not _is_name(tokens[i]):
            raise _expected(text, tokens, i, "a relation name")
        relations.append(tokens[i])
        i += 1
        if tokens[i] != ",":
            break
    if len(set(relations)) != len(relations):
        raise QueryError("duplicate relation in FROM (self-joins unsupported)")

    joins: list[tuple[str, str, str, str]] = []
    join_columns: list[tuple[str, str]] = []
    selections: list[Selection] = []
    if tokens[i].lower() == "where":
        while True:
            left = _column(text, tokens, i + 1)
            i += 4
            op = tokens[i]
            if op not in _OPS:
                raise _expected(text, tokens, i, "a comparison operator")
            if op == "<>":
                # Canonicalize the SQL spelling of "not equal".
                op = "!="
            i += 1
            right = tokens[i]
            if right.isidentifier():
                if op != "=":
                    raise QueryError(
                        f"only equi-joins are supported between columns; "
                        f"got {op!r} at offset {_offset(text, i)}"
                    )
                right_column = _column(text, tokens, i)
                joins.append(left + right_column)
                join_columns += (left, right_column)
                i += 3
            elif right[:1].isdigit():
                selections.append(Selection(left[0], left[1], op, float(right)))
                i += 1
            else:
                got = repr(right) if right else "end of SQL text"
                raise QueryError(
                    f"expected a numeric constant at offset "
                    f"{_offset(text, i)}, got {got}"
                )
            if tokens[i].lower() != "and":
                break

    order_by: tuple[str, str] | None = None
    if tokens[i].lower() == "order":
        if tokens[i + 1].lower() != "by":
            raise _expected(text, tokens, i + 1, "'BY'")
        order_by = _column(text, tokens, i + 2)
        i += 5

    if tokens[i] == ";":
        i += 1
    if tokens[i]:
        raise QueryError(
            f"unexpected trailing token {tokens[i]!r} at offset "
            f"{_offset(text, i)}"
        )

    by_name: dict[str, Relation] = {}
    for rel_name in relations:
        if rel_name not in schema:
            raise QueryError(f"FROM references unknown relation {rel_name!r}")
        by_name[rel_name] = schema.relation(rel_name)
    if projected is not None:
        _check_columns(by_name, projected, "SELECT")
    _check_columns(by_name, join_columns, "WHERE")
    _check_columns(
        by_name, [(s.relation, s.column) for s in selections], "WHERE"
    )

    graph = JoinGraph(relations, joins)
    if label is None:
        flat = " ".join(text.split())
        label = flat[:60] + ("..." if len(flat) > 60 else "")
    return Query(
        schema,
        graph,
        order_by=order_by,
        label=label,
        selections=tuple(selections),
    )
