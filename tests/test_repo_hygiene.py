"""Repository hygiene: no build artifacts tracked by git, every
benchmark module still collects, and every third-party import is a
declared dependency."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=30,
    )


def _require_git_repo() -> None:
    probe = _git("rev-parse", "--is-inside-work-tree")
    if probe.returncode != 0 or probe.stdout.strip() != "true":
        pytest.skip("not running inside a git checkout")


def test_no_tracked_bytecode():
    _require_git_repo()
    tracked = _git("ls-files", "*.pyc", "*.pyo")
    assert tracked.returncode == 0, tracked.stderr
    assert tracked.stdout.strip() == "", (
        f"compiled bytecode is tracked by git:\n{tracked.stdout}"
    )


def test_no_tracked_pycache_directories():
    _require_git_repo()
    tracked = _git("ls-files")
    assert tracked.returncode == 0, tracked.stderr
    offenders = [
        line for line in tracked.stdout.splitlines() if "__pycache__" in line
    ]
    assert offenders == [], (
        f"__pycache__ contents are tracked by git:\n" + "\n".join(offenders)
    )


def test_gitignore_covers_artifacts():
    gitignore = (REPO_ROOT / ".gitignore").read_text(encoding="utf-8")
    for pattern in ("__pycache__/", ".pytest_cache/", "dist/"):
        assert pattern in gitignore, f".gitignore misses {pattern!r}"
    assert "*.py[cod]" in gitignore or "*.pyc" in gitignore


def test_bytecode_ignored_everywhere():
    """git must ignore bytecode in every directory, not just src/.

    ``benchmarks/`` and ``tests/`` grow ``__pycache__`` the moment their
    modules are imported; an anchored ignore pattern would leave those
    trees unprotected and a later ``git add -A`` would commit them.
    """
    _require_git_repo()
    candidates = [
        "benchmarks/__pycache__/bench_hot_paths.cpython-311.pyc",
        "tests/__pycache__/test_lint_clean.cpython-311.pyc",
        "src/repro/core/__pycache__/dp.cpython-311.pyc",
        "examples/__pycache__/x.cpython-311.pyc",
    ]
    result = _git("check-ignore", "--", *candidates)
    assert result.returncode == 0, (
        f"git check-ignore failed: {result.stderr or result.stdout}"
    )
    ignored = set(result.stdout.splitlines())
    missed = [path for path in candidates if path not in ignored]
    assert missed == [], (
        ".gitignore does not cover bytecode in:\n" + "\n".join(missed)
    )


def test_benchmark_modules_collect():
    """Every module under ``benchmarks/`` outside ``e2e/`` imports and
    collects.

    Plain ``pytest`` collects only ``tests/``, and no other stage runs
    these modules, so an import of a deleted experiment would otherwise
    go unnoticed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "benchmarks",
         "--ignore=benchmarks/e2e"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]


def _imported_top_levels(root: Path) -> dict[str, str]:
    """Top-level module name -> first file importing it, over ``root``
    (absolute imports only, function-level ones included)."""
    found: dict[str, str] = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], str(path.relative_to(root)))
    return found


def test_third_party_imports_are_declared():
    """Every module ``src/repro`` imports from outside the standard
    library is declared in ``pyproject.toml``, as a dependency or in an
    extra: an undeclared one passes locally and fails on a clean
    install."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    )["project"]
    requirements = list(project.get("dependencies", []))
    for extra in project.get("optional-dependencies", {}).values():
        requirements.extend(extra)
    declared = {
        re.match(r"[A-Za-z0-9._-]+", requirement).group(0).lower().replace("-", "_")
        for requirement in requirements
    }
    imported = _imported_top_levels(REPO_ROOT / "src" / "repro")
    undeclared = {
        name: where
        for name, where in imported.items()
        if name not in sys.stdlib_module_names
        and name not in ("__future__", "repro")
        and name.lower() not in declared
    }
    assert undeclared == {}, (
        "imported under src/repro but not declared in pyproject.toml: "
        f"{undeclared}"
    )
