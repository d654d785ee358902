"""``sdp-bench`` — regenerate the paper's tables and figures from the CLI.

Usage::

    sdp-bench list                 # available experiments
    sdp-bench table-1.1            # one experiment
    sdp-bench all                  # every experiment, in paper order
    sdp-bench table-3.1 --instances 30 --seed 7
    sdp-bench --list-kernels       # costing kernels (REPRO_KERNEL values)
    sdp-bench --check BENCH_optimize.json   # hot-path regression guard
    sdp-bench lint [...]           # static analysis (see repro.lint)

Each experiment prints a paper-style plain-text table; EXPERIMENTS.md
records a reference run against the paper's numbers. ``--check`` runs the
hot-path harness (:mod:`repro.bench.hotpaths`) against a committed
baseline report and exits non-zero on counter/cost drift or a large time
regression.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.bench.experiments import EXPERIMENTS
from repro.bench.experiments.common import ExperimentSettings
from repro.errors import BenchmarkError

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdp-bench",
        description="Regenerate the SDP paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment id (e.g. table-1.1), 'all', or 'list'",
    )
    parser.add_argument(
        "--list-kernels",
        action="store_true",
        help="list the costing kernels accepted by REPRO_KERNEL (rendered "
        "from the repro.core.kernel.KERNELS registry) and exit",
    )
    parser.add_argument(
        "--check",
        type=str,
        default=None,
        metavar="BASELINE",
        help="run the hot-path harness and compare against a committed "
        "BENCH_optimize.json; exits 1 on plans_costed/cost drift or a "
        ">2.5x time regression (--repeats controls run count, default 3)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="repeats per scenario for --check (default 3)",
    )
    parser.add_argument(
        "--instances",
        type=int,
        default=None,
        help="query instances per workload cell (default 10; env "
        "REPRO_BENCH_INSTANCES)",
    )
    parser.add_argument(
        "--heavy-instances",
        type=int,
        default=None,
        help="instances for expensive cells (default 6)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="workload seed (default 0)"
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="per-optimization wall-clock budget (default 60)",
    )
    parser.add_argument(
        "--robust",
        action="store_true",
        help="run techniques through the fallback ladder: budget trips "
        "degrade to a cheaper technique instead of producing '*' cells "
        "(env REPRO_BENCH_ROBUST)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="optimize the (instance, technique) grid over N worker "
        "processes; aggregated results are identical to a serial run "
        "(env REPRO_BENCH_WORKERS)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="trace every optimization and print the per-DP-level "
        "search-profile table after each experiment (serial runs only "
        "trace fully; worker processes run untraced)",
    )
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        metavar="DIR",
        help="also write each report to DIR/<experiment>.txt",
    )
    return parser


def _settings(args: argparse.Namespace) -> ExperimentSettings:
    settings = ExperimentSettings.from_env()
    overrides = {}
    if args.instances is not None:
        overrides["instances"] = args.instances
    if args.heavy_instances is not None:
        overrides["heavy_instances"] = args.heavy_instances
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.max_seconds is not None:
        overrides["max_seconds"] = args.max_seconds
    if args.robust:
        overrides["robust"] = True
    if args.workers is not None:
        overrides["workers"] = args.workers
    if overrides:
        from dataclasses import replace

        settings = replace(settings, **overrides)
    return settings


def _run_check(baseline_path: str, repeats: int, workers: int | None) -> int:
    """Run the hot-path harness and diff it against a committed baseline."""
    import json

    from repro.bench.hotpaths import compare_reports, run_harness

    try:
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"sdp-bench --check: cannot read {baseline_path}: {exc}",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    current = run_harness(repeats=repeats, workers=workers)
    elapsed = time.perf_counter() - started
    problems = compare_reports(baseline, current)
    for name in ("dp_star_12", "sdp_star_25"):
        bench = current["benchmarks"][name]
        base = baseline["benchmarks"][name]
        print(
            f"{name:14s} median={bench['median_seconds']}s "
            f"(baseline {base['median_seconds']}s) "
            f"peak_traced={bench['peak_traced_mb']}MB "
            f"(baseline {base.get('peak_traced_mb', '-')}MB) "
            f"plans_costed={bench['plans_costed']} cost={bench['cost']}"
        )
    grid = current["benchmarks"]["grid_workers"]
    fallback = (
        f" fallback_reason={grid['fallback_reason']}"
        if grid.get("fallback_reason")
        else ""
    )
    print(
        f"{'grid_workers':14s} mode={grid['mode']} speedup={grid['speedup']} "
        f"identical_outcomes={grid['identical_outcomes']}{fallback}"
    )
    print(f"{'plan_cache':14s} speedup={current['benchmarks']['plan_cache']['speedup']}")
    sqlw = current["benchmarks"].get("sql_workload")
    if sqlw is not None:
        ratios = " ".join(
            f"{technique}<={sqlw['summary'][technique]['max_ratio_to_dp']}x"
            for technique in sqlw["techniques"]
        )
        text_b = baseline["benchmarks"].get("sql_workload", {}).get(
            "sql_text_seconds", "-"
        )
        print(
            f"{'sql_workload':14s} templates={sqlw['templates']} "
            f"sql==query={sqlw['sql_equals_query_path']} {ratios} "
            f"sql_text={sqlw['sql_text_seconds']}s (baseline {text_b}s)"
        )
    if problems:
        print(f"\nREGRESSIONS ({elapsed:.1f}s):", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"\nok: within committed trajectory ({elapsed:.1f}s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Delegate before argparse: the lint driver owns its own flags
        # (--format, --baseline, ...), which sdp-bench's parser would
        # otherwise reject.
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_kernels:
        from repro.core.kernel import KERNELS

        for name, description in KERNELS.items():
            print(f"{name:10s} {description}")
        return 0
    if args.check is not None:
        return _run_check(args.check, args.repeats, args.workers)
    if args.experiment is None:
        parser.print_usage(sys.stderr)
        print(
            "sdp-bench: an experiment id (or --check BASELINE) is required",
            file=sys.stderr,
        )
        return 2
    if args.experiment == "list":
        for name, module in EXPERIMENTS.items():
            print(f"{name:12s} {module.TITLE}")
        return 0
    if args.experiment == "all":
        names = list(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        names = [args.experiment]
    else:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"try 'sdp-bench list'",
            file=sys.stderr,
        )
        return 2
    try:
        settings = _settings(args)
    except BenchmarkError as exc:
        print(f"sdp-bench: {exc}", file=sys.stderr)
        return 2
    if args.output is not None:
        os.makedirs(args.output, exist_ok=True)
    for name in names:
        started = time.perf_counter()
        print(f"== {name} ==")
        if args.profile:
            # Captured per experiment so each profile table covers exactly
            # one experiment's searches.
            from repro.obs import capture, render_search_profile

            with capture() as exporter:
                report = EXPERIMENTS[name].run(settings)
            report += "\n\n" + render_search_profile(
                exporter.spans, title=f"Search profile: {name}"
            )
        else:
            report = EXPERIMENTS[name].run(settings)
        print(report)
        print(f"[{name} done in {time.perf_counter() - started:.1f}s]\n")
        if args.output is not None:
            path = os.path.join(args.output, f"{name}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(report + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
