"""RL010 — shared-memory / pool resources must be released on all paths.

The serving layer's resource contract, proven statically: every
function-local ``SharedMemory``/shared-store/pool/executor/``memoryview``
creation must reach its cleanup calls (``close()`` + ``unlink()`` for
owning shared memory, ``close()`` for attached handles, ``Shared*Store``
objects and queues, ``shutdown()`` for pools — the ``optimize_many``
``ProcessPoolExecutor`` among them — ``release()`` for memoryviews)
along *every* CFG path out of the function, including the exception
edges the ``try``/``finally`` structure induces. A ``memoryview`` over
a buffer must additionally be released before the backing handle's
``close()``.

The analysis is a forward may-leak dataflow over the ``repro.lint.cfg``
graphs: each tracked binding carries its outstanding obligations;
joins union them (an obligation outstanding on *some* path is a leak);
storing the object anywhere non-local — an attribute, a container, a
call argument, a ``return`` — transfers ownership and discharges the
local obligation (RL010 checks local lifetimes; escaped objects are the
owning class's contract). ``with Resource() as x`` discharges at entry,
because ``__exit__`` runs on every path out of the block.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from dataclasses import dataclass

from repro.lint.cfg import BasicBlock
from repro.lint.dataflow import UNREACHED, ForwardAnalysis, solve_forward
from repro.lint.engine import Module, Project
from repro.lint.findings import Finding
from repro.lint.registry import Checker, register


def _in_scope(module: Module) -> bool:
    """Only the serving layer creates processes, pools and shared memory."""
    return module.layer == "service"


@dataclass(frozen=True)
class _Resource:
    """One tracked creation site (immutable; facts are rebuilt, not mutated).

    ``rid`` is the creation site ``(line, col)`` — stable across solver
    passes, so facts converge.
    """

    rid: tuple[int, int]
    kind: str  # "shm" | "store" | "pool" | "queue" | "view"
    var: str
    line: int
    col: int
    obligations: frozenset[str]
    base: str | None = None  # backing-buffer variable for views

    def discharge(self, op: str) -> "_Resource":
        return _Resource(
            self.rid, self.kind, self.var, self.line, self.col,
            self.obligations - {op}, self.base,
        )


# A fact maps variable name -> _Resource. Escaped/cleaned entries are
# simply dropped; join unions by rid so a leak on either branch survives.
_Fact = dict


def _classify_creation(value: ast.expr) -> tuple[str, frozenset[str], str | None] | None:
    """``(kind, obligations, view_base)`` for a tracked constructor call."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    name = (
        func.attr if isinstance(func, ast.Attribute)
        else func.id if isinstance(func, ast.Name) else None
    )
    if name is None:
        return None
    if name == "SharedMemory":
        create = False
        for keyword in value.keywords:
            if keyword.arg == "create" and isinstance(
                keyword.value, ast.Constant
            ):
                create = bool(keyword.value.value)
        if create:
            return "shm", frozenset(("close", "unlink")), None
        return "shm", frozenset(("close",)), None
    if name.startswith("Shared") and name.endswith("Store"):
        # A store over shared-memory segments owns them until close().
        return "store", frozenset(("close",)), None
    if name in ("ProcessPoolExecutor", "ThreadPoolExecutor") or (
        name.endswith("Pool") and name[:1].isupper()
    ):
        return "pool", frozenset(("shutdown",)), None
    if name == "Queue" and isinstance(func, ast.Attribute):
        # Attribute form = a multiprocessing context queue (feeder
        # thread + pipe); the plain ``queue.Queue`` needs no cleanup.
        return "queue", frozenset(("close",)), None
    if name == "memoryview":
        base = None
        if value.args:
            arg = value.args[0]
            if isinstance(arg, ast.Name):
                base = arg.id
            elif isinstance(arg, ast.Attribute) and isinstance(
                arg.value, ast.Name
            ):
                base = arg.value.id
        return "view", frozenset(("release",)), base
    return None


_CLEANUP_OPS = ("close", "unlink", "release", "shutdown", "terminate")


class _LeakAnalysis(ForwardAnalysis):
    def __init__(self, global_names: frozenset[str] = frozenset()) -> None:
        self.global_names = global_names
        self.rebind_leaks: list[_Resource] = []
        self.view_order: list[tuple[_Resource, int, int]] = []
        self._reported_rebinds: set[tuple] = set()
        self._reported_views: set[tuple[int, int]] = set()

    # -- lattice ---------------------------------------------------------
    def initial(self) -> _Fact:
        return {}

    def join(self, left: _Fact, right: _Fact) -> _Fact:
        merged = dict(left)
        for var, res in right.items():
            mine = merged.get(var)
            if mine is None:
                merged[var] = res
            elif mine.rid == res.rid:
                if mine.obligations != res.obligations:
                    merged[var] = _Resource(
                        mine.rid, mine.kind, mine.var, mine.line, mine.col,
                        mine.obligations | res.obligations, mine.base,
                    )
            else:
                # Different creations flowing into one name: keep the
                # earlier site, union obligations — still a may-leak.
                first = mine if mine.rid < res.rid else res
                merged[var] = _Resource(
                    first.rid, first.kind, first.var, first.line,
                    first.col, mine.obligations | res.obligations,
                    first.base,
                )
        return merged

    # -- transfer --------------------------------------------------------
    def transfer(self, block: BasicBlock, fact: _Fact) -> _Fact:
        stmt = block.statement
        if stmt is None:
            return fact
        fact = dict(fact)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._escape_exprs(fact, [item.context_expr])
                # ``with Resource() as x``: __exit__ cleans on every
                # path out of the block, so the obligation never opens.
            return fact
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            return self._assign(fact, stmt.targets[0], stmt.value, stmt)
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            return self._assign(fact, stmt.target, stmt.value, stmt)
        if isinstance(stmt, ast.Expr):
            self._effect_call(fact, stmt.value)
            return fact
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._escape_exprs(fact, [stmt.value])
            return fact
        if isinstance(stmt, (ast.If, ast.While)):
            self._escape_exprs(fact, [stmt.test])
            return fact
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._escape_exprs(fact, [stmt.iter])
            return fact
        if isinstance(stmt, ast.Raise):
            self._escape_exprs(
                fact, [e for e in (stmt.exc, stmt.cause) if e is not None]
            )
            return fact
        if isinstance(stmt, (ast.AugAssign, ast.Assert, ast.Delete)):
            self._escape_exprs(fact, list(ast.iter_child_nodes(stmt)))
            return fact
        return fact

    def _assign(
        self, fact: _Fact, target: ast.expr, value: ast.expr, stmt: ast.stmt
    ) -> _Fact:
        created = _classify_creation(value)
        if isinstance(target, ast.Name):
            if target.id in self.global_names:
                # Assigning into a declared ``global`` publishes the
                # object module-wide: ownership leaves this function.
                self._escape_exprs(fact, [value])
                fact.pop(target.id, None)
                return fact
            old = fact.get(target.id)
            if old is not None and old.obligations:
                # Rebinding the only local reference drops the object
                # with obligations outstanding.
                key = (old.rid, stmt.lineno, stmt.col_offset)
                if key not in self._reported_rebinds:
                    self._reported_rebinds.add(key)
                    self.rebind_leaks.append(old)
            if created is not None:
                kind, obligations, base = created
                res = _Resource(
                    (stmt.lineno, stmt.col_offset), kind, target.id,
                    stmt.lineno, stmt.col_offset, obligations, base,
                )
                fact[target.id] = res
                return fact
            if isinstance(value, ast.Name) and value.id in fact:
                # Aliasing: the new name owns the same object.
                res = fact.pop(value.id)
                fact[target.id] = _Resource(
                    res.rid, res.kind, target.id, res.line, res.col,
                    res.obligations, res.base,
                )
                return fact
            self._escape_exprs(fact, [value])
            fact.pop(target.id, None)
            return fact
        # Attribute / subscript / tuple target: ownership moves out.
        self._escape_exprs(fact, [value])
        return fact

    def _effect_call(self, fact: _Fact, expr: ast.expr) -> None:
        if not isinstance(expr, ast.Call):
            self._escape_exprs(fact, [expr])
            return
        func = expr.func
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            var = func.value.id
            if func.attr == "close":
                # Closing any buffer (tracked or not — parameters and
                # attr-loaded handles too) invalidates live views on it.
                self._check_live_views(fact, var)
            if var in fact and func.attr in _CLEANUP_OPS:
                res = fact[var]
                if func.attr in ("shutdown", "terminate"):
                    fact[var] = res.discharge("shutdown")
                else:
                    fact[var] = res.discharge(func.attr)
                if not fact[var].obligations:
                    del fact[var]
                self._escape_exprs(fact, expr.args)
                self._escape_exprs(
                    fact, [kw.value for kw in expr.keywords]
                )
                return
        self._escape_exprs(fact, [expr])

    def _check_live_views(self, fact: _Fact, base_var: str) -> None:
        for res in fact.values():
            if (
                res.kind == "view"
                and res.base == base_var
                and "release" in res.obligations
                and res.rid not in self._reported_views
            ):
                self._reported_views.add(res.rid)
                self.view_order.append((res, res.line, res.col))

    def _escape_exprs(self, fact: _Fact, exprs: list[ast.AST]) -> None:
        """Any tracked name referenced below escapes (ownership moves).

        Exception: the receiver of a method call (``pool.submit(task)``)
        does not escape — using a resource is not handing it off. Its
        arguments still escape, so ``registry.adopt(pool)`` transfers.
        """
        stack: list[ast.AST] = list(exprs)
        while stack:
            node = stack.pop()
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
            ):
                stack.extend(node.args)
                stack.extend(kw.value for kw in node.keywords)
                continue
            if isinstance(node, ast.Name):
                fact.pop(node.id, None)
                continue
            stack.extend(ast.iter_child_nodes(node))


@register
class ResourceLifecycleChecker(Checker):
    code = "RL010"
    name = "resource-lifecycle"
    description = (
        "SharedMemory/shared-store/pool/queue creations must reach "
        "close()+unlink()/release()/shutdown() on every CFG path, and "
        "memoryviews must be released before their buffer closes"
    )

    _HINTS = {
        "shm": "close() (and unlink() when created here)",
        "store": "close()",
        "pool": "shutdown()",
        "queue": "close()",
        "view": "release()",
    }

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if not _in_scope(module):
                continue
            for qualname, cfg in sorted(module.cfgs().items()):
                yield from self._check_function(module, qualname, cfg)

    def _check_function(
        self, module: Module, qualname: str, cfg
    ) -> Iterable[Finding]:
        global_names = frozenset(
            name
            for node in ast.walk(cfg.func)
            if isinstance(node, ast.Global)
            for name in node.names
        )
        analysis = _LeakAnalysis(global_names)
        solution = solve_forward(cfg, analysis)
        exit_fact = solution.exit_fact()
        leaked: dict[int, _Resource] = {}
        if exit_fact is not UNREACHED:
            for res in exit_fact.values():
                if res.obligations:
                    leaked[res.rid] = res
        for res in analysis.rebind_leaks:
            leaked.setdefault(res.rid, res)
        for rid in sorted(leaked):
            res = leaked[rid]
            missing = ", ".join(sorted(res.obligations)) or "cleanup"
            yield Finding(
                path=module.relpath,
                line=res.line,
                col=res.col,
                code=self.code,
                message=(
                    f"{res.kind} resource '{res.var}' created in "
                    f"{qualname} may exit without {missing}; ensure "
                    f"{self._HINTS[res.kind]} runs on every path "
                    f"(try/finally), or hand ownership off explicitly"
                ),
            )
        for res, line, col in analysis.view_order:
            yield Finding(
                path=module.relpath,
                line=line,
                col=col,
                code=self.code,
                message=(
                    f"memoryview '{res.var}' in {qualname} is still "
                    f"alive when its backing buffer '{res.base}' is "
                    f"closed; call release() first"
                ),
            )
