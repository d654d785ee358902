"""Tier-1 gate: the repository's own ``src/`` tree lints clean.

This is the enforcement point for every invariant in
``docs/static-analysis.md`` — a change that introduces an upward import,
an inline span name, an uncharged enumeration loop, etc. fails here with
the exact ``path:line:col CODE message`` to fix. Grandfathered findings
belong in a committed baseline; this repo keeps none, so the gate is a
plain empty-list assertion.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import run_lint

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_src_tree_lints_clean():
    findings = run_lint([REPO_ROOT / "src"])
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"repro.lint found violations:\n{rendered}"


def test_every_checker_registered():
    # The gate above only means something if all ten checkers ran.
    from repro.lint import CHECKER_CODES

    assert CHECKER_CODES() == [
        "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
        "RL008", "RL009", "RL011",
    ]


@pytest.mark.perf
def test_lint_wall_time_within_2x_of_legacy():
    """The concurrency checkers must not double full-repo lint time.

    Compares a full run (RL001–RL009, RL011) against the RL001–RL008
    set on this repository's ``src/`` tree — each timed as best-of-two
    with a fresh project load, so no per-module cache can flatter the
    concurrency checkers.
    """
    import time

    from repro.lint import all_checkers, load_project, run_checkers

    legacy = [c for c in all_checkers() if c.code <= "RL008"]
    every = all_checkers()

    def best_of_two(checkers) -> float:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            project = load_project([REPO_ROOT / "src"])
            run_checkers(project, checkers)
            best = min(best, time.perf_counter() - start)
        return best

    legacy_time = best_of_two(legacy)
    full_time = best_of_two(every)
    # A small floor keeps the ratio meaningful on very fast machines.
    budget = 2.0 * max(legacy_time, 0.05)
    assert full_time <= budget, (
        f"full lint {full_time:.3f}s exceeds 2x legacy "
        f"{legacy_time:.3f}s"
    )
