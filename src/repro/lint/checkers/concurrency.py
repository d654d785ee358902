"""Shared concurrency-analysis infrastructure for RL009/RL011.

This module is *not* a checker — it builds the project-wide index the
lock checkers query: which classes exist, which of their attributes are
locks (and whether each is reentrant), what type each ``self.attr``
holds, and how a call expression resolves to a function defined in the
analyzed tree. Resolution is deliberately conservative: an unresolvable
call contributes nothing, so every edge the checkers report comes from
code they actually saw.

Lock identity is ``"relpath:OwnerClass.attr"`` for instance locks and
``"relpath:NAME"`` for module-level locks — stable across runs, so it
can appear in finding messages (which feed baseline fingerprints).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.engine import Module, Project

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


def in_concurrency_scope(module: Module) -> bool:
    """Is this module part of the analyzed concurrent surface?

    Only the serving layer runs threads and process pools (the
    ``FrontDoor`` workers, the ``optimize_many`` executor); everything
    else is synchronous search code that never holds these locks.
    """
    return module.layer == "service"


def _lock_kind_of_call(node: ast.expr) -> str | None:
    """``"lock"``/``"rlock"`` when ``node`` is a ``Lock()``/``RLock()`` call."""
    if not isinstance(node, ast.Call):
        return None
    name = _tail_name(node.func)
    if name == "Lock":
        return "lock"
    if name == "RLock":
        return "rlock"
    return None


def _tail_name(node: ast.expr | None) -> str | None:
    """``threading.RLock`` -> ``"RLock"``; ``RLock`` -> ``"RLock"``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _annotation_names(node: ast.expr | None) -> list[str]:
    """Capitalized type names mentioned anywhere in an annotation."""
    if node is None:
        return []
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return []
    names = []
    for sub in ast.walk(node):
        name = _tail_name(sub) if isinstance(sub, (ast.Name, ast.Attribute)) else None
        if name and name[:1].isupper():
            names.append(name)
    return names


@dataclass
class ClassInfo:
    """Everything the checkers need to know about one class."""

    name: str
    module: Module
    node: ast.ClassDef
    methods: dict[str, FunctionNode] = field(default_factory=dict)
    #: attr -> "lock" | "rlock" (reentrant) | "unknown"
    lock_attrs: dict[str, str] = field(default_factory=dict)
    #: attr -> bare type name (``self.attr = TypeName(...)`` or an
    #: annotated ``__init__`` parameter stored into the attribute).
    attr_types: dict[str, str] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.module.relpath}:{self.name}"


@dataclass
class ConcurrencyIndex:
    """Project-wide maps built once and shared by RL009/RL011."""

    project: Project
    classes: dict[str, ClassInfo] = field(default_factory=dict)  # by key
    by_name: dict[str, list[ClassInfo]] = field(default_factory=dict)
    #: relpath -> module-level function name -> node
    functions: dict[str, dict[str, FunctionNode]] = field(default_factory=dict)
    #: relpath -> module-level lock name -> kind
    module_locks: dict[str, dict[str, str]] = field(default_factory=dict)
    #: relpath -> module-level global name -> annotated type name
    global_types: dict[str, dict[str, str]] = field(default_factory=dict)
    #: relpath -> imported local name -> (target package_parts, symbol)
    imports: dict[str, dict[str, tuple[tuple[str, ...], str]]] = field(
        default_factory=dict
    )
    #: lock id -> kind ("lock"/"rlock"/"unknown")
    lock_kinds: dict[str, str] = field(default_factory=dict)


def build_index(project: Project) -> ConcurrencyIndex:
    index = ConcurrencyIndex(project=project)
    scoped = [m for m in project.modules if in_concurrency_scope(m)]
    for module in scoped:
        _index_module(index, module)
    for info in index.classes.values():
        for attr, kind in info.lock_attrs.items():
            index.lock_kinds[f"{info.key}.{attr}"] = kind
    for relpath, locks in index.module_locks.items():
        for name, kind in locks.items():
            index.lock_kinds[f"{relpath}:{name}"] = kind
    return index


def _index_module(index: ConcurrencyIndex, module: Module) -> None:
    relpath = module.relpath
    index.functions[relpath] = {}
    index.module_locks[relpath] = {}
    index.global_types[relpath] = {}
    index.imports[relpath] = {}
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            index.functions[relpath][node.name] = node
        elif isinstance(node, ast.ClassDef):
            info = _index_class(node, module)
            index.classes[info.key] = info
            index.by_name.setdefault(info.name, []).append(info)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            kind = _lock_kind_of_call(node.value)
            if isinstance(target, ast.Name) and kind is not None:
                index.module_locks[relpath][target.id] = kind
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names = _annotation_names(node.annotation)
            if names:
                index.global_types[relpath][node.target.id] = names[0]
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            _index_import(index, module, node)


def _index_import(
    index: ConcurrencyIndex, module: Module, node: ast.ImportFrom
) -> None:
    if node.level:
        base = list(module.package_parts[:-1])
        for _ in range(node.level - 1):
            if base:
                base.pop()
        base.extend(node.module.split("."))
    else:
        dotted = node.module.split(".")
        if dotted[0] != "repro":
            return
        base = dotted[1:]
    if not base:
        return
    target = tuple(base[:-1]) + (base[-1] + ".py",)
    for alias in node.names:
        index.imports[module.relpath][alias.asname or alias.name] = (
            target,
            alias.name,
        )


def _index_class(node: ast.ClassDef, module: Module) -> ClassInfo:
    info = ClassInfo(name=node.name, module=module, node=node)
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[item.name] = item
        elif isinstance(item, ast.AnnAssign) and isinstance(
            item.target, ast.Name
        ):
            # Dataclass-style field: ``_lock: threading.Lock = field(...)``.
            names = _annotation_names(item.annotation)
            if "RLock" in names:
                info.lock_attrs[item.target.id] = "rlock"
            elif "Lock" in names:
                info.lock_attrs[item.target.id] = "lock"
            elif names:
                info.attr_types[item.target.id] = names[0]
    for method in info.methods.values():
        annotations = {
            arg.arg: _annotation_names(arg.annotation)
            for arg in (
                method.args.posonlyargs
                + method.args.args
                + method.args.kwonlyargs
            )
        }
        for stmt in ast.walk(method):
            if not (
                isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            ):
                continue
            target = stmt.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            kind = _lock_kind_of_call(stmt.value)
            if kind is not None:
                info.lock_attrs[attr] = kind
                continue
            type_name = _value_type_name(stmt.value, annotations)
            if type_name is not None and attr not in info.attr_types:
                info.attr_types[attr] = type_name
    return info


def _value_type_name(
    node: ast.expr, annotations: dict[str, list[str]]
) -> str | None:
    """Best-effort type of an assigned value (ctor call or annotated param)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            name = _tail_name(sub.func)
            if name and name[:1].isupper():
                return name
    if isinstance(node, ast.Name):
        names = annotations.get(node.id, [])
        if names:
            return names[0]
    return None


def resolve_class(
    index: ConcurrencyIndex, module: Module, name: str
) -> ClassInfo | None:
    """A class by bare name: same module first, then imports, then unique."""
    same = index.classes.get(f"{module.relpath}:{name}")
    if same is not None:
        return same
    imported = index.imports.get(module.relpath, {}).get(name)
    if imported is not None:
        target_parts, symbol = imported
        for info in index.by_name.get(symbol, []):
            if info.module.package_parts == target_parts:
                return info
    candidates = index.by_name.get(name, [])
    if len(candidates) == 1:
        return candidates[0]
    return None


@dataclass(frozen=True)
class CallTarget:
    func: FunctionNode
    module: Module
    owner: ClassInfo | None  # set when the target is a method


def local_ctor_types(func: FunctionNode) -> dict[str, str]:
    """``x = TypeName(...)`` bindings in one function (flow-insensitive)."""
    types: dict[str, str] = {}
    for stmt in ast.walk(func):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and isinstance(
                stmt.value, ast.Call
            ):
                name = _tail_name(stmt.value.func)
                if name and name[:1].isupper():
                    types[target.id] = name
    return types


def resolve_call(
    index: ConcurrencyIndex,
    call: ast.Call,
    module: Module,
    owner: ClassInfo | None,
    local_types: dict[str, str],
) -> list[CallTarget]:
    """Targets a call may reach inside the analyzed tree ([] if unknown)."""
    func = call.func
    if isinstance(func, ast.Name):
        name = func.id
        local = index.functions.get(module.relpath, {}).get(name)
        if local is not None:
            return [CallTarget(local, module, None)]
        imported = index.imports.get(module.relpath, {}).get(name)
        if imported is not None:
            target_parts, symbol = imported
            for relpath, funcs in index.functions.items():
                target_module = next(
                    (
                        m
                        for m in index.project.modules
                        if m.relpath == relpath
                    ),
                    None,
                )
                if (
                    target_module is not None
                    and target_module.package_parts == target_parts
                    and symbol in funcs
                ):
                    return [CallTarget(funcs[symbol], target_module, None)]
        cls = resolve_class(index, module, name)
        if cls is not None and "__init__" in cls.methods:
            return [CallTarget(cls.methods["__init__"], cls.module, cls)]
        return []
    if not isinstance(func, ast.Attribute):
        return []
    method_name = func.attr
    receiver = func.value
    cls: ClassInfo | None = None
    if isinstance(receiver, ast.Name):
        if receiver.id == "self" and owner is not None:
            cls = owner
        else:
            type_name = local_types.get(receiver.id) or index.global_types.get(
                module.relpath, {}
            ).get(receiver.id)
            if type_name is not None:
                cls = resolve_class(index, module, type_name)
    elif (
        isinstance(receiver, ast.Attribute)
        and isinstance(receiver.value, ast.Name)
        and receiver.value.id == "self"
        and owner is not None
    ):
        type_name = owner.attr_types.get(receiver.attr)
        if type_name is not None:
            cls = resolve_class(index, module, type_name)
    if cls is not None and method_name in cls.methods:
        return [CallTarget(cls.methods[method_name], cls.module, cls)]
    return []


def lock_identity(
    index: ConcurrencyIndex,
    expr: ast.expr,
    module: Module,
    owner: ClassInfo | None,
) -> tuple[str, str] | None:
    """``(lock_id, kind)`` when ``expr`` denotes a known lock, else None."""
    if isinstance(expr, ast.Name):
        kind = index.module_locks.get(module.relpath, {}).get(expr.id)
        if kind is not None:
            return f"{module.relpath}:{expr.id}", kind
        return None
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and owner is not None
    ):
        attr = expr.attr
        kind = owner.lock_attrs.get(attr)
        if kind is None and "lock" in attr.lower():
            kind = "unknown"
        if kind is not None:
            return f"{owner.key}.{attr}", kind
    return None


def may_acquire_summaries(
    index: ConcurrencyIndex,
) -> dict[int, frozenset[str]]:
    """Fixpoint map ``id(func node) -> lock ids possibly acquired``.

    Includes locks acquired transitively through calls that resolve
    inside the analyzed tree. Nested ``def`` bodies are excluded — they
    run later, under whatever locks their eventual caller holds.
    """
    entries: list[tuple[FunctionNode, Module, ClassInfo | None]] = []
    for info in index.classes.values():
        for method in info.methods.values():
            entries.append((method, info.module, info))
    for relpath, funcs in index.functions.items():
        module = next(
            m for m in index.project.modules if m.relpath == relpath
        )
        for func in funcs.values():
            entries.append((func, module, None))

    direct: dict[int, set[str]] = {}
    callees: dict[int, set[int]] = {}
    for func, module, owner in entries:
        acquired: set[str] = set()
        called: set[int] = set()
        local_types = local_ctor_types(func)
        for node in _own_nodes(func):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    ident = lock_identity(
                        index, item.context_expr, module, owner
                    )
                    if ident is not None:
                        acquired.add(ident[0])
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "acquire"
                ):
                    ident = lock_identity(
                        index, node.func.value, module, owner
                    )
                    if ident is not None:
                        acquired.add(ident[0])
                for target in resolve_call(
                    index, node, module, owner, local_types
                ):
                    called.add(id(target.func))
        direct[id(func)] = acquired
        callees[id(func)] = called

    summary = {key: set(value) for key, value in direct.items()}
    changed = True
    while changed:
        changed = False
        for key, called in callees.items():
            for callee in called:
                extra = summary.get(callee, ())
                if not set(extra) <= summary[key]:
                    summary[key].update(extra)
                    changed = True
    return {key: frozenset(value) for key, value in summary.items()}


def _own_nodes(func: FunctionNode):
    """All nodes of ``func`` excluding nested function/class bodies."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


class LockScopeWalker:
    """Walk a function body threading the currently-held lock set.

    Subclasses override :meth:`on_acquire` (a lock becomes held),
    :meth:`on_call` (a call made with locks held) and :meth:`on_node`
    (any non-body expression node, for access checks). ``held`` is the
    ordered tuple of ``(lock_id, kind)`` pairs currently held.
    """

    def __init__(
        self,
        index: ConcurrencyIndex,
        module: Module,
        owner: ClassInfo | None,
        func: FunctionNode,
    ) -> None:
        self.index = index
        self.module = module
        self.owner = owner
        self.func = func
        self.local_types = local_ctor_types(func)

    # -- hooks -----------------------------------------------------------
    def on_acquire(
        self,
        lock: tuple[str, str],
        node: ast.AST,
        held: tuple[tuple[str, str], ...],
    ) -> None:  # pragma: no cover - default no-op
        pass

    def on_call(
        self, call: ast.Call, held: tuple[tuple[str, str], ...]
    ) -> None:  # pragma: no cover - default no-op
        pass

    def on_node(
        self, node: ast.AST, held: tuple[tuple[str, str], ...]
    ) -> None:  # pragma: no cover - default no-op
        pass

    # -- driver ----------------------------------------------------------
    def run(self) -> None:
        self._body(self.func.body, ())

    def _body(
        self, body: list[ast.stmt], held: tuple[tuple[str, str], ...]
    ) -> None:
        for stmt in body:
            held = self._stmt(stmt, held)

    def _stmt(
        self, stmt: ast.stmt, held: tuple[tuple[str, str], ...]
    ) -> tuple[tuple[str, str], ...]:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = held
            for item in stmt.items:
                ident = lock_identity(
                    self.index, item.context_expr, self.module, self.owner
                )
                self._exprs(item.context_expr, inner)
                if ident is not None:
                    self.on_acquire(ident, item.context_expr, inner)
                    inner = inner + (ident,)
            self._body(stmt.body, inner)
            return held
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return held
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if isinstance(call.func, ast.Attribute):
                ident = lock_identity(
                    self.index, call.func.value, self.module, self.owner
                )
                if ident is not None and call.func.attr == "acquire":
                    self._exprs(stmt, held)
                    self.on_acquire(ident, call, held)
                    return held + (ident,)
                if ident is not None and call.func.attr == "release":
                    self._exprs(stmt, held)
                    return tuple(
                        pair for pair in held if pair[0] != ident[0]
                    )
        if isinstance(stmt, ast.If):
            self._exprs(stmt.test, held)
            self._body(stmt.body, held)
            self._body(stmt.orelse, held)
            return held
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            for expr in ast.iter_child_nodes(stmt):
                if isinstance(expr, ast.expr):
                    self._exprs(expr, held)
            self._body(stmt.body, held)
            self._body(stmt.orelse, held)
            return held
        if isinstance(stmt, ast.Try):
            self._body(stmt.body, held)
            for handler in stmt.handlers:
                self._body(handler.body, held)
            self._body(stmt.orelse, held)
            self._body(stmt.finalbody, held)
            return held
        self._exprs(stmt, held)
        return held

    def _exprs(
        self, node: ast.AST, held: tuple[tuple[str, str], ...]
    ) -> None:
        stack: list[ast.AST] = [node]
        while stack:
            sub = stack.pop()
            if isinstance(
                sub,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
            ):
                continue  # runs later, not under these locks
            self.on_node(sub, held)
            if isinstance(sub, ast.Call):
                self.on_call(sub, held)
            stack.extend(ast.iter_child_nodes(sub))
