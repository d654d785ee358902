"""RL004 — enumeration loops must charge the search budget.

Budgets only trip *mid-enumeration* (the paper's 1 GB feasibility
frontier) if every loop that builds join pairs reports its work to
:class:`SearchCounters`. The loops may tally their work locally and
settle it every :data:`repro.core.base.CHARGE_CHUNK` events and at the
end of each batch (DPccp's enumeration, ``level_pairs``, the kernel's
``_join_pairs``), so a trip lands at most one check interval plus one
chunk past the limit. In ``core/`` this checker finds pair-building
loops — a loop qualifies when it

* calls ``.join(...)`` / ``.join_batch(...)`` on something, or
* iterates a ``*_pairs(...)`` generator (``csg_cmp_pairs``,
  ``level_pairs``), or
* yields a tuple (a pair generator), or
* appends to / from a ``*pair*``-named variable

— and requires the charge to be visible in the enclosing function or
class: a direct ``note_pairs`` / ``note_plans_costed`` call, a
``counters`` value handed to a callee (``level_pairs(..., counters)``,
``make_planspace(..., counters)`` — the kernel charges internally), or
any ``counters`` reference in the surrounding class (a plan-space
method whose class holds the run's :class:`SearchCounters` charges
through it). Generators that deliberately defer charging to their
consumer (DPccp) carry a waiver naming the consumption site.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.registry import Checker, register

_CHARGE_CALLS = ("note_pairs", "note_plans_costed")
_JOIN_CALLS = ("join", "join_batch")


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _passes_counters(call: ast.Call) -> bool:
    """Does this call hand a ``counters`` value to the callee?"""
    for arg in (*call.args, *(kw.value for kw in call.keywords)):
        if isinstance(arg, ast.Name) and "counters" in arg.id:
            return True
        if isinstance(arg, ast.Attribute) and "counters" in arg.attr:
            return True
    return False


def _charges(scope: ast.AST) -> bool:
    """Is budget charging visible anywhere in this function/class body?"""
    for node in ast.walk(scope):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in _CHARGE_CALLS or _passes_counters(node):
                return True
        elif isinstance(node, ast.Attribute) and "counters" in node.attr:
            return True
        elif isinstance(node, ast.Name) and "counters" in node.id:
            return True
    return False


def _builds_pairs(loop: ast.For | ast.While) -> bool:
    if isinstance(loop, ast.For):
        iterator = loop.iter
        if isinstance(iterator, ast.Call):
            name = _call_name(iterator)
            if name is not None and name.endswith("pairs"):
                return True
    for node in ast.walk(loop):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in _JOIN_CALLS:
                return True
            if name == "append":
                target = node.func.value if isinstance(node.func, ast.Attribute) else None
                if isinstance(target, ast.Name) and "pair" in target.id.lower():
                    return True
                for arg in node.args:
                    if isinstance(arg, ast.Name) and "pair" in arg.id.lower():
                        return True
        elif isinstance(node, ast.Yield) and isinstance(node.value, ast.Tuple):
            return True
    return False


@register
class BudgetChargingChecker(Checker):
    code = "RL004"
    name = "budget-charging"
    description = "pair-building loops in core/ must charge SearchCounters"

    def check(self, project):
        for module in project.modules:
            if module.layer != "core":
                continue
            yield from self._check_module(module, module.tree, enclosing=None)

    def _check_module(self, module, scope: ast.AST, enclosing: ast.AST | None):
        """Recurse keeping track of the innermost class around a function."""
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.ClassDef):
                yield from self._check_module(module, node, enclosing=node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node, enclosing)
                yield from self._check_module(module, node, enclosing)
            else:
                yield from self._check_module(module, node, enclosing)

    def _check_function(self, module, func, enclosing_class):
        charged = None  # computed lazily, once per function
        for loop in ast.walk(func):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            if not _builds_pairs(loop):
                continue
            if charged is None:
                charged = _charges(func) or (
                    enclosing_class is not None and _charges(enclosing_class)
                )
            if charged:
                return
            yield Finding(
                module.relpath,
                loop.lineno,
                loop.col_offset,
                self.code,
                f"enumeration loop in {func.name}() builds JCR pairs "
                f"without visible budget charging; call "
                f"counters.note_pairs/note_plans_costed or thread counters "
                f"into the kernel (or waive with the consumption site)",
            )
