"""End-to-end benchmark: SQL text in, a checked plan out.

One workload, as ``BENCHMARK.json``'s command runs it (the last stdout
line is the JSON result)::

    python3 benchmarks/e2e/run.py --workload star_sdp --seed 3 --seconds 20 --trace 0

Every workload, both passes, with ``results.json``, ``layers.json`` and
``spans.jsonl`` written to ``--out``::

    python3 benchmarks/e2e/run.py --seed 0 --out benchmarks/e2e/out/run0

Rebuild the oracle answers with the eager reference kernel::

    python3 benchmarks/e2e/run.py --refresh-expected

Each workload runs in child processes: :data:`SETUP_PROBES` that only set
up (their median, with the measuring child's own, is ``setup_s``), then
the one that measures. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the traced pass and reports the
per-layer ones, plus, for frontdoor_mix, the serving metrics that only it
has. ``BENCHMARK.json`` is the single source of tracked metric names and
units; ``layer_map.json`` gives the serving metrics' units.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
LAYER_MAP = HERE / "layer_map.json"
DEFAULT_OUT = HERE / "out"

WORKLOAD_NAMES = ("tpch_sql", "star_sdp", "dp_star", "frontdoor_mix")

#: Extra child processes per ``--trace 0`` run that only set up; with the
#: measuring child's own, ``setup_s`` is the median of four set-ups.
SETUP_PROBES = 3

#: Host-speed quanta a child runs before ``import repro`` and again after
#: set-up, to rescale its set-up time (:mod:`speed`).
SETUP_QUANTA = 8

#: Wall-clock allowance for one child; a whole run must end within 180 s.
CHILD_TIMEOUT_S = 165.0


class BenchmarkFailure(Exception):
    """The run could not produce a result (missing program, child died)."""


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkFailure(f"no program to measure: {SRC / 'repro'} is missing")


def load_metric_specs() -> dict:
    """``BENCHMARK.json``'s metric lists, plus ``serving``: the units of the
    frontdoor_mix-only metrics of ``layer_map.json``."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(LAYER_MAP, encoding="utf-8") as handle:
        layers = json.load(handle)["layers"]
    serving = {
        name: unit
        for layer in layers
        if layer["emitted_on"] != "all"
        for name, unit in layer["metrics"].items()
    }
    return {
        "end_to_end": spec["end_to_end"],
        "per_layer": spec["per_layer"],
        "serving": serving,
    }


# -- parent side ---------------------------------------------------------------


def spawn(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> tuple[float, dict]:
    """Run one child; returns ``(spawn time, its JSON report)``."""
    spawned = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise BenchmarkFailure(f"child {args} exceeded {timeout:.0f} s") from None
    if child.returncode != 0 or not out.strip():
        raise BenchmarkFailure(f"child {args} exited with {child.returncode}")
    return spawned, json.loads(out.strip().splitlines()[-1])


def run_workload(name: str, args) -> dict:
    """Set up and measure one workload in child processes."""
    common = [
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--expected", str(args.expected),
    ] + (["--smoke"] if args.smoke else []) + (["--out", args.out] if args.out else [])

    def setup_seconds(spawned: float, report: dict) -> float:
        """Spawn to first timed request, quanta out, at reference speed."""
        return (report["ready"] - spawned - report["quanta_s"]) * report["scale"]

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            spawned, report = spawn(["--child", "setup", *common])
            setups.append(setup_seconds(spawned, report))
    mode = "trace" if args.trace else "measure"
    spawned, report = spawn(["--child", mode, *common])
    setups.append(setup_seconds(spawned, report))
    if not args.trace:
        report["metrics"]["setup_s"] = statistics.median(setups)
        report["setup_samples_s"] = setups
    report["workload"] = name
    return report


def select_metrics(report: dict, specs: list[dict]) -> dict[str, dict]:
    """The ``BENCHMARK.json`` metrics of ``report``, with their units."""
    selected = {}
    for spec in specs:
        value = report["metrics"].get(spec["name"])
        if value is None or not math.isfinite(value):
            raise BenchmarkFailure(
                f"{report['workload']}: metric {spec['name']} is {value!r}"
            )
        selected[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return selected


def print_report(report: dict, metrics: dict[str, dict], serving_units: dict) -> None:
    name = report["workload"]
    for metric, entry in metrics.items():
        print(f"{name:14} {metric:36} {entry['value']:.6g} {entry['unit']}")
    for metric, value in report.get("serving", {}).items():
        print(f"{name:14} {metric:36} {value} {serving_units[metric]}")
    for metric, value in sorted(report.get("extras", {}).items()):
        print(f"{name:14} {metric:36} {value}  (not tracked)")
    print(
        f"{name:14} {'requests':36} {report['attempted']} attempted, "
        f"{report['failed']} failed"
    )
    for failure in report["failures"]:
        print(f"{name:14} FAILED {failure}", file=sys.stderr)


def host_facts() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
        )
        commit = probe.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "commit": commit,
    }


def write_out(out: Path, args, reports: list[dict], trace: bool) -> None:
    """``results.json`` (end to end) or ``layers.json`` + ``spans.jsonl``."""
    out.mkdir(parents=True, exist_ok=True)
    document = {
        **host_facts(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {
            report["workload"]: {
                key: value for key, value in report.items() if key != "spans"
            }
            for report in reports
        },
    }
    target = out / ("layers.json" if trace else "results.json")
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    if trace:
        with open(out / "spans.jsonl", "w", encoding="utf-8") as handle:
            for report in reports:
                for span in report.get("spans", ()):
                    handle.write(
                        json.dumps(dict(span, workload=report["workload"]), sort_keys=True)
                        + "\n"
                    )


def single_run(args, specs) -> int:
    """One workload, one pass; the last stdout line is the JSON result."""
    report = run_workload(args.workload, args)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = report["metrics"] = select_metrics(report, specs[section])
    print_report(report, metrics, specs["serving"])
    if args.out:
        write_out(Path(args.out), args, [report], bool(args.trace))
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def full_run(args, specs) -> int:
    """Every workload, end-to-end pass then traced pass."""
    out = Path(args.out)
    passes = {0: [], 1: []}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            args.trace = trace
            report = run_workload(name, args)
            section = "per_layer" if trace else "end_to_end"
            report["metrics"] = select_metrics(report, specs[section])
            print_report(report, report["metrics"], specs["serving"])
            passes[trace].append(report)
    write_out(out, args, passes[0], trace=False)
    write_out(out, args, passes[1], trace=True)
    failed = sum(report["failed"] for reports in passes.values() for report in reports)
    print(f"wrote {out / 'results.json'}, {out / 'layers.json'}, {out / 'spans.jsonl'}")
    return 0 if failed == 0 else 1


def refresh_expected(args) -> int:
    """Rebuild ``expected.json`` for every text any seed can draw."""
    sys.path.insert(0, str(SRC))
    import inputs
    import oracle

    requests = []
    for spec in inputs.WORKLOADS.values():
        schema = inputs.build_schema(spec.schema)
        for texts in inputs.universe(spec, schema).values():
            requests.extend([spec.technique, spec.schema, sql] for sql in texts)
    entries = oracle.compute_reference(requests, timeout=4 * 3600)
    oracle.write_expected(Path(args.expected), entries)
    print(f"wrote {len(entries)} reference answers to {args.expected}")
    return 0


# -- child side ----------------------------------------------------------------


def child_main(args) -> int:
    """Set up, then (``measure``/``trace``) measure and check; JSON to stdout.

    Host-speed quanta run before ``import repro`` and after set-up; the
    report gives the seconds the first ones took (``quanta_s``, which the
    parent takes out of set-up) and the factor they all give (``scale``).

    The child keeps to one CPU. Its threads share one interpreter lock,
    so a second CPU adds no speed; it adds a cross-CPU wake-up to every
    hand-over between the front door's generator and worker, whose delay
    the host's other tenants decide.
    """
    import speed

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    meter = speed.Speedometer()
    quanta_s = meter.tick(SETUP_QUANTA)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkFailure(f"imported {repro.__file__}, not the program in {SRC}")
    import inputs
    import measure
    import oracle

    spec = inputs.workload(args.workload, smoke=args.smoke)
    env = measure.setup(spec, args.seed)
    ready = time.monotonic()
    meter.tick(SETUP_QUANTA)
    report = {
        "ready": ready,
        "quanta_s": quanta_s,
        "scale": meter.scale(meter.stamps[0], meter.stamps[-1]),
        "metrics": {},
        "extras": {},
    }
    if args.child == "setup":
        env.close()
        print(json.dumps(report))
        return 0
    checker = oracle.Checker(spec, oracle.load_expected(Path(args.expected)))
    try:
        run_pass = trace_pass if args.child == "trace" else measure_pass
        report["attempted"] = run_pass(env, args, report, checker)
    finally:
        env.close()
    ratio = checker.finish()
    report["metrics" if args.child == "trace" else "extras"]["search.dp_cost_ratio"] = ratio
    report["failed"] = checker.failed
    report["failures"] = checker.failures
    print(json.dumps(report))
    return 0


def measure_pass(env, args, report: dict, checker) -> int:
    """End-to-end numbers, tracing off; returns the number of requests made."""
    import loops
    import measure

    measured = measure.measure(env, args.seconds, checker)
    report["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    for key in ("latency_p50_ms", "latency_p90_ms", "throughput_qps"):
        report["metrics"][key] = measured[key]
    latencies = measured["latencies"]
    p, value = loops.highest_percentile(latencies)
    report["samples"] = len(latencies)
    report["extras"]["latency.samples"] = len(latencies)
    if p > 90:
        report["extras"][f"latency_p{p:g}_ms"] = value * 1e3
    report["extras"]["speed.scale"] = measured["scale"]
    if "cache_hit_rate" in measured:
        report["extras"]["cache.hit_rate"] = measured["cache_hit_rate"]
    return measured["attempted"]


def trace_pass(env, args, report: dict, checker) -> int:
    """Per-layer numbers; returns the number of requests made."""
    import ledger
    import measure

    attempted = 0
    if env.spec.open_loop:
        steps = measure.run_ladder(env, args.seconds, checker)
        attempted += sum(len(step.requests) for step in steps.values())
        report["serving"] = ledger.serving_layers(steps, env.door)
    layers, spans, requests = ledger.query_layers(env, args.seconds / 2, checker)
    attempted += requests
    report["metrics"].update(layers)
    if args.out:
        report["spans"] = spans
    return attempted


def reference_main() -> int:
    """``--reference``: answer stdin requests with the current kernel."""
    import oracle

    requests = json.load(sys.stdin)
    print(json.dumps(oracle.reference_answers(requests)))
    return 0


def parse_args(argv: list[str]):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write results.json / layers.json here")
    parser.add_argument(
        "--expected", default=str(HERE / "expected.json"), help="oracle answers"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="small star shapes (test suite)"
    )
    parser.add_argument("--refresh-expected", action="store_true")
    parser.add_argument("--child", choices=("setup", "measure", "trace"))
    parser.add_argument("--reference", action="store_true")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        if args.reference:
            return reference_main()
        if args.child:
            return child_main(args)
        require_program()
        if args.refresh_expected:
            return refresh_expected(args)
        specs = load_metric_specs()
        if args.workload:
            return single_run(args, specs)
        args.out = args.out or str(DEFAULT_OUT / f"seed{args.seed}")
        return full_run(args, specs)
    except BenchmarkFailure as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
