"""Parsing, project assembly, waiver handling and the lint driver.

The engine turns a set of paths into a :class:`Project` of parsed
:class:`Module` objects (source, ``ast`` tree, ``symtable`` scope info,
waiver comments) and runs every registered checker over it. Checkers are
pure functions of the project — they never import the code under
analysis, so broken or hostile trees lint fine.
"""

from __future__ import annotations

import ast
import re
import symtable
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.findings import Finding
from repro.lint.registry import Checker, all_checkers


class LintError(Exception):
    """The lint driver itself was misused (bad paths, unparseable file)."""


#: ``# lint: waive[RL001,RL004] reason`` — waives the listed codes on the
#: commented line and the line directly below it (comment-above style).
_WAIVE_RE = re.compile(r"#\s*lint:\s*waive\[([A-Z0-9,\s]+)\]")

#: ``# lint: waive-file[RL004] reason`` — waives the codes everywhere in
#: the file.
_WAIVE_FILE_RE = re.compile(r"#\s*lint:\s*waive-file\[([A-Z0-9,\s]+)\]")


@dataclass
class Module:
    """One parsed Python source file.

    Attributes:
        path: Absolute filesystem path.
        relpath: Path relative to the scanned root (used in findings).
        package_parts: Path parts after the ``repro`` package directory
            (e.g. ``("core", "dp.py")``); empty when the file is not
            inside a ``repro`` package (plain fixture files).
        source: Raw text.
        lines: ``source.splitlines()``.
        tree: The parsed ``ast.Module``.
        line_waivers: line number -> codes waived on that line.
        file_waivers: codes waived for the whole file.
    """

    path: Path
    relpath: str
    package_parts: tuple[str, ...]
    source: str
    lines: list[str]
    tree: ast.Module
    line_waivers: dict[int, set[str]] = field(default_factory=dict)
    file_waivers: set[str] = field(default_factory=set)
    _symtable: symtable.SymbolTable | None = None

    @property
    def layer(self) -> str | None:
        """The top-level ``repro`` subpackage (or root-module stem).

        ``("core", "dp.py")`` -> ``"core"``; a root module like
        ``("errors.py",)`` -> ``"errors"``; files outside a ``repro``
        package -> ``None``.
        """
        if not self.package_parts:
            return None
        if len(self.package_parts) == 1:
            name = self.package_parts[0]
            return name[:-3] if name.endswith(".py") else name
        return self.package_parts[0]

    @property
    def symbols(self) -> symtable.SymbolTable:
        """The module's top-level symbol table (built lazily)."""
        if self._symtable is None:
            self._symtable = symtable.symtable(
                self.source, str(self.path), "exec"
            )
        return self._symtable

    def module_level_import(self, name: str) -> bool:
        """Is ``name`` bound by an import at module scope?"""
        try:
            symbol = self.symbols.lookup(name)
        except KeyError:
            return False
        return symbol.is_imported()

    def waived(self, code: str, line: int) -> bool:
        """Is ``code`` waived at ``line`` (same line, line above, or file)?"""
        if code in self.file_waivers:
            return True
        for candidate in (line, line - 1):
            if code in self.line_waivers.get(candidate, ()):
                return True
        return False


@dataclass
class Project:
    """Everything the checkers see: parsed modules plus repo context.

    Attributes:
        root: The scanned root directory.
        repo_root: Directory holding ``docs/`` etc. — ``root``'s parent
            when the root is a ``src`` directory, else ``root`` itself.
        modules: Parsed modules, sorted by ``relpath``.
    """

    root: Path
    repo_root: Path
    modules: list[Module]

    def find(self, *package_parts: str) -> Module | None:
        """The module with exactly these ``package_parts``, if present."""
        for module in self.modules:
            if module.package_parts == package_parts:
                return module
        return None


def _parse_waivers(lines: list[str]) -> tuple[dict[int, set[str]], set[str]]:
    line_waivers: dict[int, set[str]] = {}
    file_waivers: set[str] = set()
    for lineno, text in enumerate(lines, start=1):
        if "lint:" not in text:
            continue
        match = _WAIVE_FILE_RE.search(text)
        if match:
            file_waivers.update(
                code.strip() for code in match.group(1).split(",") if code.strip()
            )
        match = _WAIVE_RE.search(text)
        if match:
            codes = {
                code.strip() for code in match.group(1).split(",") if code.strip()
            }
            line_waivers.setdefault(lineno, set()).update(codes)
    return line_waivers, file_waivers


def _package_parts(path: Path) -> tuple[str, ...]:
    """Path parts after the *last* ``repro`` directory component."""
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return parts[index + 1 :]
    return ()


def _one_line(exc: BaseException) -> str:
    """First line of an exception message — diagnostics stay one-line."""
    text = str(exc) or exc.__class__.__name__
    return text.splitlines()[0]


def parse_module(path: Path, relpath: str) -> Module:
    """Parse one file into a :class:`Module`.

    Raises:
        LintError: when the file is not valid Python.
    """
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LintError(f"cannot read {path}: {_one_line(exc)}") from exc
    try:
        tree = ast.parse(source, filename=str(path))
    except (SyntaxError, ValueError) as exc:
        raise LintError(f"cannot parse {path}: {_one_line(exc)}") from exc
    lines = source.splitlines()
    line_waivers, file_waivers = _parse_waivers(lines)
    return Module(
        path=path,
        relpath=relpath,
        package_parts=_package_parts(path),
        source=source,
        lines=lines,
        tree=tree,
        line_waivers=line_waivers,
        file_waivers=file_waivers,
    )


def load_project(paths: list[str | Path]) -> Project:
    """Collect and parse every ``.py`` file under ``paths``.

    Args:
        paths: Files and/or directories. A single directory named
            ``src`` (or containing one ``repro`` package) is the normal
            whole-tree invocation. Duplicate paths (or files reached
            through more than one argument) are parsed once.

    Raises:
        LintError: on missing paths or unparseable files.
    """
    if not paths:
        raise LintError("no paths to lint")
    resolved = [Path(p).resolve() for p in paths]
    for path in resolved:
        if not path.exists():
            raise LintError(f"no such path: {path}")

    anchor = resolved[0]
    root = anchor if anchor.is_dir() else anchor.parent
    repo_root = root.parent if root.name == "src" else root

    files: list[Path] = []
    seen: set[Path] = set()
    for path in resolved:
        try:
            candidates = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        except OSError as exc:
            raise LintError(f"cannot scan {path}: {_one_line(exc)}") from exc
        for candidate in candidates:
            if "__pycache__" in candidate.parts or candidate in seen:
                continue
            seen.add(candidate)
            files.append(candidate)

    def relpath_of(path: Path) -> str:
        try:
            return str(path.relative_to(root))
        except ValueError:
            return str(path)

    modules = [parse_module(path, relpath_of(path)) for path in files]
    modules.sort(key=lambda m: m.relpath)
    return Project(root=root, repo_root=repo_root, modules=modules)


def run_checkers(
    project: Project, checkers: list[Checker] | None = None
) -> list[Finding]:
    """Run ``checkers`` (default: all registered) over ``project``.

    Waived findings are dropped here, so checkers never need to know
    about the waiver syntax. Findings come back sorted.
    """
    if checkers is None:
        checkers = all_checkers()
    by_relpath = {module.relpath: module for module in project.modules}
    findings: list[Finding] = []
    for checker in checkers:
        for finding in checker.check(project):
            module = by_relpath.get(finding.path)
            if module is not None and module.waived(finding.code, finding.line):
                continue
            findings.append(finding)
    return sorted(findings)


def run_lint(
    paths: list[str | Path], checkers: list[Checker] | None = None
) -> list[Finding]:
    """Convenience wrapper: load the project and run the checkers."""
    return run_checkers(load_project(paths), checkers)
