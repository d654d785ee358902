"""RL003 — float discipline for cost and selectivity values.

IEEE float addition is non-associative, so two "equal" costs computed
along different operand orders differ in the last ulp; exact ``==`` /
``!=`` between cost or selectivity expressions is therefore either a
latent tie-break bug or an accidental re-implementation of one. Inside
the kernel layers (``core``, ``plans``, ``cost``, ``skyline``)
comparisons must go through the existing tie-break helpers —
``JCR.improves`` / ``JCR.put`` (strict ``<`` against the incumbent) and
``repro.skyline.dominance.dominates`` — which define the library's
deterministic ordering.

A comparand is "cost-like" when it is a name or attribute whose
identifier mentions cost or selectivity (``cost``, ``best_cost``,
``left_cost``, ``selectivity``, ``log_sel``); identifiers like
``cost_model`` (an object, not a value) are exempt. Intentional exact
comparisons (bit-identity regression guards) belong outside the kernel
or carry a waiver.
"""

from __future__ import annotations

import ast
import re

from repro.lint.findings import Finding
from repro.lint.registry import Checker, register

#: Layers the float-discipline contract covers.
FLOAT_LAYERS = ("core", "plans", "cost", "skyline")

_COST_LIKE = re.compile(
    r"(^|_)(cost|costs|selectivity|log_sel|sel)($|_)", re.IGNORECASE
)
_EXEMPT = re.compile(r"model|config|option|kind|name|key", re.IGNORECASE)


def _identifier(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def cost_like(node: ast.AST) -> bool:
    """Does this expression look like a cost/selectivity value?"""
    identifier = _identifier(node)
    if identifier is None:
        return False
    return bool(_COST_LIKE.search(identifier)) and not _EXEMPT.search(identifier)


@register
class FloatDisciplineChecker(Checker):
    code = "RL003"
    name = "float-discipline"
    description = "no ==/!= between cost/selectivity expressions"

    def check(self, project):
        for module in project.modules:
            if module.layer not in FLOAT_LAYERS:
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left, *node.comparators]
                for op, left, right in zip(
                    node.ops, operands, operands[1:]
                ):
                    if not isinstance(op, (ast.Eq, ast.NotEq)):
                        continue
                    offender = next(
                        (x for x in (left, right) if cost_like(x)), None
                    )
                    if offender is None:
                        continue
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield Finding(
                        module.relpath,
                        node.lineno,
                        node.col_offset,
                        self.code,
                        f"exact {symbol} on cost/selectivity expression "
                        f"{_identifier(offender)!r}; float costs are "
                        f"order-of-operations sensitive — compare through "
                        f"JCR.improves/put or skyline.dominance.dominates",
                    )
