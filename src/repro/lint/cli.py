"""Command-line driver: ``python -m repro.lint`` / ``sdp-bench lint``.

Usage::

    python -m repro.lint                   # lint src/ (or the repro tree)
    python -m repro.lint src/repro/core    # lint a subtree
    python -m repro.lint --format json     # machine-readable findings
    python -m repro.lint --baseline lint-baseline.json
    python -m repro.lint --write-baseline lint-baseline.json
    python -m repro.lint --list            # registered checkers
    python -m repro.lint --only RL009,RL011
    python -m repro.lint --skip RL007

Exit codes: 0 clean, 1 findings, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.baseline import load_baseline, suppress_baseline, write_baseline
from repro.lint.engine import LintError, load_project, run_checkers
from repro.lint.registry import Checker, all_checkers

__all__ = ["main"]


def _default_paths() -> list[str]:
    """``src/`` if the working directory looks like the repo root, else ``.``."""
    src = Path("src")
    if (src / "repro").is_dir():
        return [str(src)]
    return ["."]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Static analysis for the repro invariants (RL001-RL009, RL011).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src/ when present)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="finding output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="suppress findings recorded in this baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help="write the current findings as a baseline and exit 0",
    )
    parser.add_argument(
        "--only",
        metavar="CODES",
        default=None,
        help="run only these comma-separated checker codes (e.g. RL009,RL011)",
    )
    parser.add_argument(
        "--skip",
        metavar="CODES",
        default=None,
        help="run every checker except these comma-separated codes",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered checkers and exit",
    )
    return parser


def _select_checkers(
    only: str | None, skip: str | None
) -> list[Checker]:
    """Apply ``--only`` / ``--skip`` to the registry.

    Raises:
        LintError: on an unknown or conflicting code.
    """
    checkers = all_checkers()
    known = {checker.code for checker in checkers}

    def parse(option: str, raw: str) -> set[str]:
        codes = {code.strip().upper() for code in raw.split(",") if code.strip()}
        unknown = sorted(codes - known)
        if unknown:
            raise LintError(
                f"{option}: unknown checker code(s) {', '.join(unknown)} "
                f"(see --list)"
            )
        if not codes:
            raise LintError(f"{option}: no checker codes given")
        return codes

    if only is not None:
        keep = parse("--only", only)
        checkers = [c for c in checkers if c.code in keep]
    if skip is not None:
        drop = parse("--skip", skip)
        checkers = [c for c in checkers if c.code not in drop]
    if not checkers:
        raise LintError("--only/--skip selected no checkers")
    return checkers


def main(argv: list[str] | None = None) -> int:
    """Run the linter; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for checker in all_checkers():
            print(f"{checker.code}  {checker.name:24s} {checker.description}")
        return 0

    paths = args.paths or _default_paths()
    try:
        checkers = _select_checkers(args.only, args.skip)
        project = load_project(paths)
        findings = run_checkers(project, checkers)
    except LintError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline is not None:
        try:
            write_baseline(args.write_baseline, findings)
        except OSError as exc:
            print(f"repro.lint: {exc}", file=sys.stderr)
            return 2
        print(
            f"wrote {len(findings)} finding(s) to {args.write_baseline}"
        )
        return 0

    suppressed = 0
    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"repro.lint: bad baseline: {exc}", file=sys.stderr)
            return 2
        findings, suppressed = suppress_baseline(findings, baseline)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [f.to_dict() for f in findings],
                    "files_scanned": len(project.modules),
                    "suppressed": suppressed,
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        summary = (
            f"{len(findings)} finding(s) in {len(project.modules)} file(s)"
        )
        if suppressed:
            summary += f" ({suppressed} baselined)"
        print(summary)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
