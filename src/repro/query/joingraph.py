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

__all__ = ["JoinPredicate", "JoinGraph"]


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


class _UnionFind:
    """Minimal union-find over hashable items (for eclass construction)."""

    def __init__(self) -> None:
        self._parent: dict[object, object] = {}

    def find(self, item: object) -> object:
        parent = self._parent.setdefault(item, item)
        if parent is item or parent == item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


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

        base_predicates = self._resolve(joins)
        eclass_of, members = self._build_eclasses(base_predicates)
        predicates = self._assign_eclasses(base_predicates, eclass_of)
        if close_implied_edges:
            predicates = self._close(predicates, members)
        self._predicates = tuple(predicates)
        self._eclass_members = members
        # (relation index, column) -> eclass id, for O(1) eclass_of_column.
        self._eclass_of_point = dict(eclass_of)

        self._neighbor_masks = [0] * self.n
        self._pair_predicates: dict[int, list[JoinPredicate]] = {}
        self._preds_of_rel: list[list[JoinPredicate]] = [[] for _ in range(self.n)]
        # (endpoint mask, pred) pairs per relation: connecting() tests
        # membership against a precomputed mask instead of rebuilding
        # (1 << left) | (1 << right) per predicate per call.
        self._masked_preds_of_rel: list[list[tuple[int, JoinPredicate]]] = [
            [] for _ in range(self.n)
        ]
        for pred in self._predicates:
            self._neighbor_masks[pred.left] |= 1 << pred.right
            self._neighbor_masks[pred.right] |= 1 << pred.left
            self._pair_predicates.setdefault(pred.mask, []).append(pred)
            self._preds_of_rel[pred.left].append(pred)
            self._preds_of_rel[pred.right].append(pred)
            endpoint_mask = (1 << pred.left) | (1 << pred.right)
            self._masked_preds_of_rel[pred.left].append((endpoint_mask, pred))
            self._masked_preds_of_rel[pred.right].append((endpoint_mask, pred))

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
    ) -> list[JoinPredicate]:
        predicates = []
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
            if key in seen:
                continue
            seen.add(key)
            predicates.append(
                JoinPredicate(
                    left=left,
                    left_column=left_col,
                    right=right,
                    right_column=right_col,
                )
            )
        return predicates

    @staticmethod
    def _build_eclasses(
        predicates: list[JoinPredicate],
    ) -> tuple[dict[tuple[int, str], int], dict[int, tuple[tuple[int, str], ...]]]:
        uf = _UnionFind()
        for pred in predicates:
            uf.union((pred.left, pred.left_column), (pred.right, pred.right_column))
        roots: dict[object, int] = {}
        eclass_of: dict[tuple[int, str], int] = {}
        groups: dict[int, list[tuple[int, str]]] = {}
        for pred in predicates:
            for endpoint in (
                (pred.left, pred.left_column),
                (pred.right, pred.right_column),
            ):
                root = uf.find(endpoint)
                if root not in roots:
                    roots[root] = len(roots)
                eclass = roots[root]
                if endpoint not in eclass_of:
                    eclass_of[endpoint] = eclass
                    groups.setdefault(eclass, []).append(endpoint)
        members = {
            eclass: tuple(sorted(points)) for eclass, points in groups.items()
        }
        return eclass_of, members

    @staticmethod
    def _assign_eclasses(
        predicates: list[JoinPredicate],
        eclass_of: dict[tuple[int, str], int],
    ) -> list[JoinPredicate]:
        assigned = []
        for pred in predicates:
            eclass = eclass_of[(pred.left, pred.left_column)]
            assigned.append(
                JoinPredicate(
                    left=pred.left,
                    left_column=pred.left_column,
                    right=pred.right,
                    right_column=pred.right_column,
                    eclass=eclass,
                )
            )
        return assigned

    @staticmethod
    def _close(
        predicates: list[JoinPredicate],
        members: dict[int, tuple[tuple[int, str], ...]],
    ) -> list[JoinPredicate]:
        present = {
            (p.eclass, min(p.left, p.right), max(p.left, p.right))
            for p in predicates
        }
        closed = list(predicates)
        for eclass, points in members.items():
            for i in range(len(points)):
                for j in range(i + 1, len(points)):
                    (rel_a, col_a), (rel_b, col_b) = points[i], points[j]
                    if rel_a == rel_b:
                        continue
                    key = (eclass, min(rel_a, rel_b), max(rel_a, rel_b))
                    if key in present:
                        continue
                    present.add(key)
                    closed.append(
                        JoinPredicate(
                            left=rel_a,
                            left_column=col_a,
                            right=rel_b,
                            right_column=col_b,
                            eclass=eclass,
                            implied=True,
                        )
                    )
        return closed

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

    def hubs(self, minimum_degree: int = 3) -> list[int]:
        """Indices of the *root hubs* — nodes of degree >= 3 (Section 2.1.1)."""
        return [
            i for i in range(self.n) if bit_count(self._neighbor_masks[i]) >= minimum_degree
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
