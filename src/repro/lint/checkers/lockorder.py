"""RL009 — lock acquisitions must form a project-wide DAG.

Builds the lock-acquisition graph over the serving layer (`service/`):
every lock acquired while another lock is held — directly via nested
``with lock:`` / ``.acquire()`` scopes, or transitively through any
call that resolves inside the analyzed tree — becomes an edge. Two findings fall out:

* a cycle (including the 2-cycle of two call sites nesting the same
  pair of locks in opposite orders) is a deadlock waiting for load;
* re-acquiring a *non-reentrant* ``threading.Lock`` already held on the
  same path self-deadlocks. Reentrant ``RLock`` self-edges are the
  sanctioned epoch-swap pattern (``optimize`` → ``install_statistics``)
  and stay silent.

Call resolution is conservative (see ``concurrency.py``): an edge is
only reported when both acquisitions are visible in the tree, so every
finding is actionable.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.checkers import concurrency as conc
from repro.lint.engine import Module, Project
from repro.lint.findings import Finding
from repro.lint.registry import Checker, register

_Site = tuple[str, int, int]  # relpath, line, col


class _EdgeCollector(conc.LockScopeWalker):
    def __init__(self, checker_state, *args) -> None:
        super().__init__(*args)
        self.state = checker_state

    def on_acquire(self, lock, node, held) -> None:
        for prior in held:
            self.state.add_edge(prior, lock, self.module, node)

    def on_call(self, call, held) -> None:
        if not held:
            return
        targets = conc.resolve_call(
            self.index, call, self.module, self.owner, self.local_types
        )
        for target in targets:
            for lock_id in self.state.summaries.get(id(target.func), ()):
                kind = self.state.index.lock_kinds.get(lock_id, "unknown")
                for prior in held:
                    self.state.add_edge(
                        prior, (lock_id, kind), self.module, call
                    )


class _State:
    def __init__(self, index, summaries) -> None:
        self.index = index
        self.summaries = summaries
        #: (from_id, to_id) -> (kind_from, kind_to, site)
        self.edges: dict[tuple[str, str], tuple[str, str, _Site]] = {}

    def add_edge(self, src, dst, module: Module, node: ast.AST) -> None:
        site: _Site = (
            module.relpath,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
        )
        key = (src[0], dst[0])
        known = self.edges.get(key)
        if known is None or site < known[2]:
            self.edges[key] = (src[1], dst[1], site)


@register
class LockOrderChecker(Checker):
    code = "RL009"
    name = "lock-order"
    description = (
        "nested lock acquisitions across the serving layer must form a "
        "DAG; non-reentrant locks must not be re-acquired while held"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        index = conc.build_index(project)
        if not index.lock_kinds:
            return
        summaries = conc.may_acquire_summaries(index)
        state = _State(index, summaries)
        for info in index.classes.values():
            for method in info.methods.values():
                _EdgeCollector(
                    state, index, info.module, info, method
                ).run()
        for relpath, funcs in index.functions.items():
            module = next(
                m for m in project.modules if m.relpath == relpath
            )
            for func in funcs.values():
                _EdgeCollector(state, index, module, None, func).run()

        yield from self._self_deadlocks(state)
        yield from self._cycles(state)

    def _self_deadlocks(self, state: _State) -> Iterable[Finding]:
        for (src, dst), (_, dst_kind, site) in sorted(state.edges.items()):
            if src != dst:
                continue
            # RLock reentrancy is the sanctioned pattern; a lock whose
            # kind is unknown gets the benefit of the doubt.
            if state.index.lock_kinds.get(src) != "lock":
                continue
            yield Finding(
                path=site[0],
                line=site[1],
                col=site[2],
                code=self.code,
                message=(
                    f"non-reentrant lock {src} re-acquired while already "
                    f"held on this path (self-deadlock); use an RLock or "
                    f"restructure the call"
                ),
            )

    def _cycles(self, state: _State) -> Iterable[Finding]:
        graph: dict[str, set[str]] = {}
        for src, dst in state.edges:
            if src != dst:
                graph.setdefault(src, set()).add(dst)
                graph.setdefault(dst, set())
        reach = _transitive_closure(graph)
        seen: set[frozenset[str]] = set()
        for node in sorted(graph):
            component = frozenset(
                other
                for other in graph
                if other in reach[node] and node in reach[other]
            )
            if len(component) < 2 or component in seen:
                continue
            seen.add(component)
            member_edges = sorted(
                (info[2], src, dst)
                for (src, dst), info in state.edges.items()
                if src in component and dst in component and src != dst
            )
            site = member_edges[0][0]
            ordering = " -> ".join(sorted(component))
            yield Finding(
                path=site[0],
                line=site[1],
                col=site[2],
                code=self.code,
                message=(
                    f"lock-order cycle involving {ordering}; pick one "
                    f"global acquisition order for these locks"
                ),
            )


def _transitive_closure(
    graph: dict[str, set[str]]
) -> dict[str, set[str]]:
    reach: dict[str, set[str]] = {}
    for start in graph:
        seen: set[str] = set()
        stack = list(graph[start])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(graph.get(node, ()))
        reach[start] = seen
    return reach
