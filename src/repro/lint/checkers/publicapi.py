"""RL007 — the documented public API must match the code.

``docs/api.md`` carries a machine-readable inventory block::

    <!-- repro-lint:public-api
    facade optimize(query, *, technique='sdp', ...)
    facade resolve_technique(technique)
    method OptimizationService.parse(self, sql)
    symbol optimize
    symbol PlanResult
    ...
    -->

This checker compares it against the scanned tree:

* every ``symbol`` line must appear in ``repro.__all__`` and vice
  versa (drift in either direction is a finding);
* every ``facade NAME(...)`` line must textually match the canonical
  rendering of ``def NAME`` in ``repro/api.py`` (defaults included), so
  a signature change forces a doc update in the same commit;
* every ``method CLASS.NAME(...)`` line must match ``def NAME`` in the
  first module defining ``class CLASS``, rendered the same way.

When the scanned tree has no ``repro/__init__.py`` with an ``__all__``
or the repo has no ``docs/api.md``, the checker stays silent — partial
fixture trees are legal lint targets.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.lint.findings import Finding
from repro.lint.registry import Checker, register

_BLOCK_RE = re.compile(
    r"<!--\s*repro-lint:public-api\n(.*?)-->", re.DOTALL
)


def _docs_path(project) -> Path:
    return project.repo_root / "docs" / "api.md"


def parse_inventory(
    text: str,
) -> tuple[
    dict[str, int], dict[str, tuple[str, int]], dict[str, tuple[str, int]], int
] | None:
    """``(symbols, facades, methods, block_line)`` from the inventory block.

    ``symbols`` maps name -> line number; ``facades`` maps function name
    and ``methods`` maps ``Class.name`` -> (signature text, line number).
    Returns None when no block exists.
    """
    match = _BLOCK_RE.search(text)
    if match is None:
        return None
    block_line = text[: match.start()].count("\n") + 1
    symbols: dict[str, int] = {}
    signatures: dict[str, dict[str, tuple[str, int]]] = {"facade": {}, "method": {}}
    for offset, raw in enumerate(match.group(1).splitlines()):
        line = raw.strip()
        lineno = block_line + 1 + offset
        kind, _, rest = line.partition(" ")
        if kind == "symbol":
            symbols[rest.strip()] = lineno
        elif kind in signatures:
            signature = rest.strip()
            name = signature.split("(", 1)[0].strip()
            signatures[kind][name] = (signature, lineno)
    return symbols, signatures["facade"], signatures["method"], block_line


def _method_defs(project, class_name: str) -> dict[str, ast.FunctionDef] | None:
    """Methods of the first top-level ``class_name`` in the tree, if any."""
    for module in project.modules:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                return {
                    item.name: item
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                }
    return None


def _exported_all(module) -> tuple[list[str], int] | None:
    """``repro.__all__`` entries and the assignment's line, if present."""
    for node in module.tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        if "__all__" not in targets or node.value is None:
            continue
        if isinstance(node.value, (ast.List, ast.Tuple)):
            names = [
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ]
            return names, node.lineno
    return None


def render_signature(func: ast.FunctionDef) -> str:
    """Canonical ``name(params)`` text for a facade function."""
    args = func.args
    rendered: list[str] = []

    def fmt(arg: ast.arg, default: ast.AST | None) -> str:
        if default is None:
            return arg.arg
        return f"{arg.arg}={ast.unparse(default)}"

    positional = [*args.posonlyargs, *args.args]
    defaults: list[ast.AST | None] = [None] * (
        len(positional) - len(args.defaults)
    ) + list(args.defaults)
    for arg, default in zip(positional, defaults):
        rendered.append(fmt(arg, default))
        if args.posonlyargs and arg is args.posonlyargs[-1]:
            rendered.append("/")
    if args.vararg is not None:
        rendered.append(f"*{args.vararg.arg}")
    elif args.kwonlyargs:
        rendered.append("*")
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        rendered.append(fmt(arg, default))
    if args.kwarg is not None:
        rendered.append(f"**{args.kwarg.arg}")
    return f"{func.name}({', '.join(rendered)})"


@register
class PublicApiChecker(Checker):
    code = "RL007"
    name = "public-api-drift"
    description = "repro.__all__, facade and method signatures match docs/api.md"

    def check(self, project):
        init_module = project.find("__init__.py")
        if init_module is None:
            return
        exported = _exported_all(init_module)
        if exported is None:
            return
        docs_path = _docs_path(project)
        if not docs_path.exists():
            return
        docs_text = docs_path.read_text(encoding="utf-8")
        docs_rel = str(docs_path)
        try:
            docs_rel = str(docs_path.relative_to(project.repo_root))
        except ValueError:
            pass
        inventory = parse_inventory(docs_text)
        if inventory is None:
            yield Finding(
                docs_rel, 1, 0, self.code,
                "docs/api.md has no '<!-- repro-lint:public-api' inventory "
                "block; document the public surface so drift is checkable",
            )
            return
        symbols, facades, methods, block_line = inventory
        all_names, all_line = exported

        for name in all_names:
            if name not in symbols:
                yield Finding(
                    init_module.relpath, all_line, 0, self.code,
                    f"__all__ exports {name!r} but docs/api.md's inventory "
                    f"block does not list it; add 'symbol {name}'",
                )
        exported_set = set(all_names)
        for name, lineno in symbols.items():
            if name not in exported_set:
                yield Finding(
                    docs_rel, lineno, 0, self.code,
                    f"docs/api.md lists symbol {name!r} but repro.__all__ "
                    f"does not export it",
                )

        for qualified, (documented, lineno) in methods.items():
            class_name, _, method_name = qualified.partition(".")
            func = (_method_defs(project, class_name) or {}).get(method_name)
            if func is None:
                yield Finding(
                    docs_rel, lineno, 0, self.code,
                    f"docs/api.md documents method {qualified!r} but no "
                    f"class {class_name!r} in the tree defines it",
                )
                continue
            rendered = f"{class_name}.{render_signature(func)}"
            if rendered != documented:
                yield Finding(
                    docs_rel, lineno, 0, self.code,
                    f"method signature drift for {qualified!r}: docs say "
                    f"{documented!r}, code is {rendered!r}",
                )

        api_module = project.find("api.py")
        if api_module is None:
            return
        actual = {
            node.name: node
            for node in api_module.tree.body
            if isinstance(node, ast.FunctionDef)
        }
        for name, (documented, lineno) in facades.items():
            func = actual.get(name)
            if func is None:
                yield Finding(
                    docs_rel, lineno, 0, self.code,
                    f"docs/api.md documents facade {name!r} but "
                    f"repro/api.py defines no such function",
                )
                continue
            rendered = render_signature(func)
            if rendered != documented:
                yield Finding(
                    docs_rel, lineno, 0, self.code,
                    f"facade signature drift for {name!r}: docs say "
                    f"{documented!r}, code is {rendered!r}",
                )
