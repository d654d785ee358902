"""Checker base class and registry.

Checker modules register themselves at import time via :func:`register`;
:func:`all_checkers` imports the ``checkers`` package (which imports
every checker module) and returns one instance per code, sorted.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.lint.engine import Project
    from repro.lint.findings import Finding

_REGISTRY: dict[str, type["Checker"]] = {}


class Checker(ABC):
    """One invariant, one code.

    Subclasses set ``code`` (``RL...``) and ``name`` (a short slug) and
    implement :meth:`check`, yielding findings over the whole project.
    Waiver filtering happens in the engine, not here.
    """

    #: Diagnostic code, e.g. ``"RL001"``.
    code: str = ""
    #: Short slug shown in listings, e.g. ``"layering"``.
    name: str = ""
    #: One-line contract description.
    description: str = ""

    @abstractmethod
    def check(self, project: "Project") -> Iterable["Finding"]:
        """Yield every violation found in ``project``."""


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to the registry.

    Raises:
        ValueError: on a duplicate or missing code.
    """
    if not cls.code:
        raise ValueError(f"checker {cls.__name__} has no code")
    existing = _REGISTRY.get(cls.code)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"duplicate checker code {cls.code}: "
            f"{existing.__name__} and {cls.__name__}"
        )
    _REGISTRY[cls.code] = cls
    return cls


def all_checkers() -> list[Checker]:
    """One instance of every registered checker, sorted by code."""
    import repro.lint.checkers  # noqa: F401  (registers on import)

    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def CHECKER_CODES() -> list[str]:
    """The registered codes, sorted (registers builtin checkers first)."""
    import repro.lint.checkers  # noqa: F401

    return sorted(_REGISTRY)
