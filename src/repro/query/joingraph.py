"""Join graph: relations, equi-join edges, equivalence classes, hubs.

The join graph is the optimizer's view of a query. Relations are numbered
``0..n-1`` and sets of relations are bitmasks (see :mod:`repro.util.bitset`).

Two pieces of paper-specific machinery live here:

* **Implied-edge closure** (Section 2.1.4): shared join columns — a column
  participating in several join predicates — put their endpoints into one
  *equivalence class*; the rewriter then adds the transitively implied edges
  (``R.a = S.b`` and ``R.a = T.c`` imply ``S.b = T.c``). The closure can
  create new hubs, giving SDP more pruning opportunities.
* **Hub detection** (Section 2.1.1): a *hub* is any node joined to three or
  more other nodes. Root hubs are hubs of the base graph;
  :meth:`JoinGraph.outside_degree` supports detecting *composite* hubs
  (survivor JCRs treated as single nodes) during SDP iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import JoinGraphError
from repro.util.bitset import bit_count, bit_indices

__all__ = ["JoinPredicate", "JoinGraph", "HUB_DEGREE"]

#: Join degree that makes a relation a root hub (Section 2.1.1).
HUB_DEGREE = 3


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join predicate ``left.left_column = right.right_column``.

    Attributes:
        left: Index of the left relation.
        left_column: Column of the left relation.
        right: Index of the right relation.
        right_column: Column of the right relation.
        eclass: Equivalence-class id assigned by the graph (columns that must
            be equal in any result row share an eclass).
        implied: True if the edge was added by the transitive closure rather
            than written by the user.
    """

    left: int
    left_column: str
    right: int
    right_column: str
    eclass: int = -1
    implied: bool = False

    @property
    def mask(self) -> int:
        """Bitmask of the two endpoint relations."""
        return (1 << self.left) | (1 << self.right)


class JoinGraph:
    """An immutable join graph over ``n`` relations.

    Args:
        relation_names: Names of the participating relations; their position
            is their index.
        joins: Raw equi-join predicates as
            ``(left_name, left_column, right_name, right_column)`` tuples.
        close_implied_edges: Apply the shared-join-column transitive closure
            (on by default, mirroring the PostgreSQL rewriter).

    Raises:
        JoinGraphError: on unknown relations, self-joins, or a disconnected
            graph (cartesian products are outside the paper's scope).
    """

    def __init__(
        self,
        relation_names: tuple[str, ...] | list[str],
        joins: list[tuple[str, str, str, str]],
        close_implied_edges: bool = True,
    ):
        names = tuple(relation_names)
        if not names:
            raise JoinGraphError("join graph needs at least one relation")
        if len(set(names)) != len(names):
            raise JoinGraphError("duplicate relation names in join graph")
        self._names = names
        self._index = {name: i for i, name in enumerate(names)}
        self.n = len(names)
        self.all_mask = (1 << self.n) - 1

        resolved = self._resolve(joins)
        predicates, members, eclass_of = self._eclasses(resolved)
        if close_implied_edges:
            self._close(predicates, members)
        self._predicates = tuple(predicates)
        self._eclass_members = members
        # (relation index, column) -> eclass id, for O(1) eclass_of_column.
        self._eclass_of_point = eclass_of

        # Per relation: adjacent relations, and (endpoint mask, pred)
        # pairs, so connecting() tests membership against a precomputed
        # mask instead of rebuilding (1 << left) | (1 << right) per
        # predicate per call.
        self._neighbor_masks = [0] * self.n
        self._masked_preds_of_rel: list[list[tuple[int, JoinPredicate]]] = [
            [] for _ in range(self.n)
        ]
        neighbor_masks = self._neighbor_masks
        masked_preds = self._masked_preds_of_rel
        for pred in self._predicates:
            left, right = pred.left, pred.right
            neighbor_masks[left] |= 1 << right
            neighbor_masks[right] |= 1 << left
            endpoint_mask = (1 << left) | (1 << right)
            masked_preds[left].append((endpoint_mask, pred))
            masked_preds[right].append((endpoint_mask, pred))

        # Per-eclass bitmask of member relations, precomputed for the
        # interesting-order tests (PlanSpace's per-key reach masks, and
        # useful_orders, which scans every eclass per relation set).
        self._eclass_rel_masks: dict[int, int] = {}
        for eclass, points in members.items():
            mask = 0
            for rel, _column in points:
                mask |= 1 << rel
            self._eclass_rel_masks[eclass] = mask

        if self.n > 1 and not self.is_connected(self.all_mask):
            raise JoinGraphError("join graph is disconnected")

    # -- construction helpers ------------------------------------------------

    def _resolve(
        self, joins: list[tuple[str, str, str, str]]
    ) -> list[tuple[int, str, int, str]]:
        """Joins as ``(left, left column, right, right column)`` indices,
        left below right, duplicates dropped."""
        resolved = []
        seen: set[tuple[int, str, int, str]] = set()
        for left_name, left_col, right_name, right_col in joins:
            try:
                left = self._index[left_name]
                right = self._index[right_name]
            except KeyError as exc:
                raise JoinGraphError(f"unknown relation in join: {exc}") from None
            if left == right:
                raise JoinGraphError(
                    f"self-join on {left_name!r} is not supported"
                )
            if left > right:
                left, right = right, left
                left_col, right_col = right_col, left_col
            key = (left, left_col, right, right_col)
            if key not in seen:
                seen.add(key)
                resolved.append(key)
        return resolved

    @staticmethod
    def _eclasses(
        resolved: list[tuple[int, str, int, str]],
    ) -> tuple[
        list[JoinPredicate],
        dict[int, tuple[tuple[int, str], ...]],
        dict[tuple[int, str], int],
    ]:
        """The joins as predicates, the eclass members, and each
        endpoint's eclass.

        Endpoints joined by a predicate share an eclass. Eclasses are
        numbered in order of their first predicate; members are sorted.
        """
        group_of: dict[tuple[int, str], list[tuple[int, str]]] = {}
        for left, left_col, right, right_col in resolved:
            a, b = (left, left_col), (right, right_col)
            group_a, group_b = group_of.get(a), group_of.get(b)
            if group_a is None and group_b is None:
                group_of[a] = group_of[b] = [a, b]
            elif group_a is None:
                group_b.append(a)
                group_of[a] = group_b
            elif group_b is None:
                group_a.append(b)
                group_of[b] = group_a
            elif group_a is not group_b:
                if len(group_a) < len(group_b):
                    group_a, group_b = group_b, group_a
                group_a.extend(group_b)
                for point in group_b:
                    group_of[point] = group_a
        number: dict[int, int] = {}
        members: dict[int, tuple[tuple[int, str], ...]] = {}
        eclass_of: dict[tuple[int, str], int] = {}
        predicates = []
        for left, left_col, right, right_col in resolved:
            group = group_of[(left, left_col)]
            eclass = number.get(id(group))
            if eclass is None:
                eclass = number[id(group)] = len(number)
                members[eclass] = tuple(sorted(group))
                for point in group:
                    eclass_of[point] = eclass
            predicates.append(
                JoinPredicate(left, left_col, right, right_col, eclass)
            )
        return predicates, members, eclass_of

    @staticmethod
    def _close(
        predicates: list[JoinPredicate],
        members: dict[int, tuple[tuple[int, str], ...]],
    ) -> None:
        """Append the implied edges of every eclass to ``predicates``."""
        present = {(p.eclass, p.left, p.right) for p in predicates}
        for eclass, points in members.items():
            for i in range(len(points)):
                for j in range(i + 1, len(points)):
                    (rel_a, col_a), (rel_b, col_b) = points[i], points[j]
                    if rel_a == rel_b:
                        continue
                    # Points are sorted, so rel_a < rel_b, as in every
                    # written predicate.
                    key = (eclass, rel_a, rel_b)
                    if key in present:
                        continue
                    present.add(key)
                    predicates.append(
                        JoinPredicate(
                            left=rel_a,
                            left_column=col_a,
                            right=rel_b,
                            right_column=col_b,
                            eclass=eclass,
                            implied=True,
                        )
                    )

    # -- basic accessors -----------------------------------------------------

    @property
    def relation_names(self) -> tuple[str, ...]:
        return self._names

    @property
    def predicates(self) -> tuple[JoinPredicate, ...]:
        """All predicates, implied edges included."""
        return self._predicates

    def index_of(self, name: str) -> int:
        """Relation index for ``name``.

        Raises:
            JoinGraphError: if the relation is not in the graph.
        """
        try:
            return self._index[name]
        except KeyError:
            raise JoinGraphError(f"relation {name!r} not in join graph") from None

    def name_of(self, index: int) -> str:
        return self._names[index]

    def neighbor_mask(self, index: int) -> int:
        """Bitmask of relations adjacent to relation ``index``."""
        return self._neighbor_masks[index]

    @property
    def neighbor_masks(self) -> list[int]:
        """Per relation index, the bitmask of adjacent relations (treat as
        read-only)."""
        return self._neighbor_masks

    def degree(self, index: int) -> int:
        """Number of distinct relations joined with relation ``index``."""
        return bit_count(self._neighbor_masks[index])

    # -- set-level operations ------------------------------------------------

    def neighbors(self, mask: int) -> int:
        """Relations adjacent to (but outside) the set ``mask``."""
        result = 0
        remaining = mask
        while remaining:
            bit = remaining & -remaining
            result |= self._neighbor_masks[bit.bit_length() - 1]
            remaining ^= bit
        return result & ~mask

    def outside_degree(self, mask: int) -> int:
        """Number of distinct outside relations adjacent to the set ``mask``.

        This is the degree of the set when contracted to a single node —
        used to detect *composite hubs* during SDP iterations.
        """
        return bit_count(self.neighbors(mask))

    def is_connected(self, mask: int) -> bool:
        """True iff the subgraph induced by ``mask`` is connected."""
        if mask == 0:
            return False
        start = mask & -mask
        reached = start
        frontier = start
        while frontier:
            grown = self.neighbors(reached) & mask
            if not grown:
                break
            reached |= grown
            frontier = grown
        return reached == mask

    def connecting(
        self, left_mask: int, right_mask: int
    ) -> tuple[JoinPredicate, ...]:
        """Predicates with one endpoint in each (disjoint) set."""
        if left_mask & right_mask:
            raise JoinGraphError("connecting() requires disjoint sets")
        # Scan the per-relation predicate lists of the smaller side only.
        small, other = left_mask, right_mask
        if small.bit_count() > other.bit_count():
            small, other = other, small
        found = []
        masked_preds = self._masked_preds_of_rel
        remaining = small
        while remaining:
            bit = remaining & -remaining
            remaining ^= bit
            for endpoint_mask, pred in masked_preds[bit.bit_length() - 1]:
                # A connecting predicate has exactly one endpoint in `small`,
                # so scanning each small relation's list visits it once.
                if endpoint_mask & other:
                    found.append(pred)
        return tuple(found)

    def connected(self, left_mask: int, right_mask: int) -> bool:
        """True iff some edge links the two disjoint sets."""
        return bool(self.neighbors(left_mask) & right_mask)

    # -- hubs and eclasses ---------------------------------------------------

    def hubs(self) -> list[int]:
        """Indices of the *root hubs* — nodes of degree >= :data:`HUB_DEGREE`
        (Section 2.1.1)."""
        return [
            i for i in range(self.n) if bit_count(self._neighbor_masks[i]) >= HUB_DEGREE
        ]

    @property
    def eclasses(self) -> dict[int, tuple[tuple[int, str], ...]]:
        """Equivalence classes: eclass id -> ((relation index, column), ...)."""
        return dict(self._eclass_members)

    def eclass_relation_mask(self, eclass: int) -> int:
        """Bitmask of relations with a column in ``eclass``."""
        mask = self._eclass_rel_masks.get(eclass)
        if mask is None:
            raise JoinGraphError(f"unknown eclass {eclass}")
        return mask

    @property
    def eclass_relation_masks(self) -> dict[int, int]:
        """Eclass id -> bitmask of member relations (treat as read-only)."""
        return self._eclass_rel_masks

    def eclass_of_column(self, relation_index: int, column: str) -> int | None:
        """Eclass containing ``(relation_index, column)``, or None."""
        return self._eclass_of_point.get((relation_index, column))

    def shared_column_eclasses(self) -> list[int]:
        """Eclasses spanning three or more relations (shared join columns)."""
        return [
            eclass
            for eclass, points in self._eclass_members.items()
            if len({rel for rel, _c in points}) >= 3
        ]

    def join_columns_of(self, relation_index: int) -> list[str]:
        """Columns of ``relation_index`` that participate in some join."""
        columns = []
        for points in self._eclass_members.values():
            for rel, column in points:
                if rel == relation_index and column not in columns:
                    columns.append(column)
        return sorted(columns)

    def __repr__(self) -> str:
        return (
            f"JoinGraph(n={self.n}, edges={len(self._predicates)}, "
            f"hubs={self.hubs()})"
        )

    def describe(self) -> str:
        """Multi-line human-readable description."""
        lines = [f"JoinGraph over {self.n} relations:"]
        for pred in self._predicates:
            tag = " (implied)" if pred.implied else ""
            lines.append(
                f"  {self._names[pred.left]}.{pred.left_column} = "
                f"{self._names[pred.right]}.{pred.right_column}"
                f" [eclass {pred.eclass}]{tag}"
            )
        hubs = self.hubs()
        if hubs:
            lines.append(
                "  hubs: " + ", ".join(self._names[i] for i in hubs)
            )
        return "\n".join(lines)

    def relations_of(self, mask: int) -> list[str]:
        """Names of the relations in ``mask`` (ascending index order)."""
        return [self._names[i] for i in bit_indices(mask)]
