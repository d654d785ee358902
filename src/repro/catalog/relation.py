"""Relation (base table) catalog object."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.catalog.column import Column, Index
from repro.errors import CatalogError

__all__ = ["Relation"]

#: Bytes per disk page, matching PostgreSQL's default block size.
PAGE_SIZE = 8192

#: Fixed per-row overhead in bytes (tuple header etc.), PostgreSQL-like.
ROW_OVERHEAD = 28


@dataclass(frozen=True)
class Relation:
    """A base table.

    Attributes:
        name: Relation name, unique within a schema.
        row_count: Number of rows.
        columns: The table's columns, in definition order.
        indexes: Indexes on the table (the paper builds exactly one per
            relation, on a random column).
    """

    name: str
    row_count: int
    columns: tuple[Column, ...]
    indexes: tuple[Index, ...] = field(default_factory=tuple)
    _by_name: dict[str, Column] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("relation name must be non-empty")
        if self.row_count < 0:
            raise CatalogError(
                f"relation {self.name!r}: row_count must be >= 0, "
                f"got {self.row_count}"
            )
        if not self.columns:
            raise CatalogError(f"relation {self.name!r} must have columns")
        by_name = {c.name: c for c in self.columns}
        if len(by_name) != len(self.columns):
            raise CatalogError(f"relation {self.name!r} has duplicate column names")
        object.__setattr__(self, "_by_name", by_name)
        for index in self.indexes:
            if index.column_name not in by_name:
                raise CatalogError(
                    f"relation {self.name!r}: index on unknown column "
                    f"{index.column_name!r}"
                )

    @property
    def row_width(self) -> int:
        """Average row width in bytes, including per-row overhead."""
        return ROW_OVERHEAD + sum(c.width for c in self.columns)

    @property
    def page_count(self) -> int:
        """Number of heap pages occupied by the relation (>= 1)."""
        rows_per_page = max(1, PAGE_SIZE // self.row_width)
        return max(1, math.ceil(self.row_count / rows_per_page))

    def column(self, name: str) -> Column:
        """Look up a column by name.

        Raises:
            CatalogError: if no such column exists.
        """
        col = self._by_name.get(name)
        if col is None:
            raise CatalogError(f"relation {self.name!r} has no column {name!r}")
        return col

    def has_column(self, name: str) -> bool:
        """True iff the relation has a column called ``name``."""
        return name in self._by_name

    def has_index_on(self, column_name: str) -> bool:
        """True iff some index covers ``column_name``."""
        return any(ix.column_name == column_name for ix in self.indexes)

    @property
    def indexed_columns(self) -> tuple[str, ...]:
        """Names of all indexed columns."""
        return tuple(ix.column_name for ix in self.indexes)

    def __repr__(self) -> str:
        return (
            f"Relation(name={self.name!r}, rows={self.row_count}, "
            f"cols={len(self.columns)}, indexes={len(self.indexes)})"
        )
