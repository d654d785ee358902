"""Compare two sets of end-to-end runs against the benchmark's fixed bounds.

    python3 benchmarks/e2e/compare.py RUNS_A RUNS_B

``RUNS_A`` (the parent) and ``RUNS_B`` (the change) are directories; every
``results.json`` below each is one run (``run.py --out``). For each
workload and end-to-end metric of ``BENCHMARK.json`` it reports both
sides' medians and quartiles and one verdict:

* ``unresolved`` — A's own interquartile spread exceeds the bound, and
  not every B run beats every A run;
* ``REGRESSION`` — B's median is worse than A's by more than the bound;
* ``gain`` — B wins at least nine tenths of the A/B pairs (ties count for
  neither) and the medians differ by more than A's interquartile
  distance;
* ``ok`` — none of the above.

Runs pair up by ``(seed, run index)``: the k-th run of a seed in A, in
path order, pairs with the k-th run of that seed in B. Both sides must
hold the same runs of every workload; otherwise nothing is judged and the
exit status is 2.

A failed request in B (``error_rate`` > 0) is reported as ``FAILED``.
Exits 1 when any verdict is ``REGRESSION``, ``unresolved`` or ``FAILED``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Share of pairs the change must win to claim a gain.
PAIR_WIN_SHARE = 0.9


def load_runs(directory: Path) -> dict[str, dict[tuple[int, int], dict]]:
    """``workload -> {(seed, run index): {metric: value, "error_rate": ...}}``."""
    runs: dict[str, dict[tuple[int, int], dict]] = {}
    for path in sorted(directory.rglob("results.json")):
        document = json.loads(path.read_text())
        seed = document["seed"]
        for workload, report in document["workloads"].items():
            values = {
                name: entry["value"] for name, entry in report["metrics"].items()
            }
            values["error_rate"] = report["failed"] / report["attempted"]
            series = runs.setdefault(workload, {})
            index = sum(1 for key in series if key[0] == seed)
            series[(seed, index)] = values
    return runs


def unpaired(runs_a: dict, runs_b: dict) -> list[str]:
    """Runs on one side without a partner on the other, as ``workload seed/index``."""
    return [
        f"{workload} {seed}/{index} (only in {side})"
        for workload in sorted(set(runs_a) | set(runs_b))
        for side, mine, theirs in (("A", runs_a, runs_b), ("B", runs_b, runs_a))
        for seed, index in sorted(
            set(mine.get(workload, {})) - set(theirs.get(workload, {}))
        )
    ]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], bound: float, lower_is_better: bool) -> tuple[str, float]:
    """``(verdict, B's relative change, signed so positive is worse)``.

    ``a[i]`` and ``b[i]`` are one pair of runs.
    """
    sign = 1.0 if lower_is_better else -1.0
    q1, a_median, q3 = quartiles(a)
    b_median = statistics.median(b)
    worse = sign * (b_median - a_median) / a_median
    spread = (q3 - q1) / a_median
    b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if spread > bound and not b_always_better:
        return "unresolved", worse
    if worse > bound:
        return "REGRESSION", worse
    if (
        pairs
        and wins >= PAIR_WIN_SHARE * len(pairs)
        and abs(b_median - a_median) > q3 - q1
    ):
        return "gain", worse
    return "ok", worse


def compare(dir_a: Path, dir_b: Path) -> int:
    spec = json.loads(BENCHMARK.read_text())
    metrics = spec["end_to_end"]
    runs_a, runs_b = load_runs(dir_a), load_runs(dir_b)
    missing = unpaired(runs_a, runs_b)
    if missing or not runs_a:
        reason = ", ".join(missing) or "no runs"
        print(f"runs do not pair up: {reason}", file=sys.stderr)
        return 2
    bad = False
    print(f"{'workload':14} " + " ".join(f"{m['name']:>22}" for m in metrics))
    details = []
    for workload in sorted(runs_a):
        keys = sorted(runs_a[workload])
        cells = []
        for metric in metrics:
            name = metric["name"]
            a = [runs_a[workload][key][name] for key in keys]
            b = [runs_b[workload][key][name] for key in keys]
            result, worse = verdict(
                a, b, metric["bound"], metric["better"] == "lower"
            )
            bad |= result in ("REGRESSION", "unresolved")
            cells.append(f"{worse:+7.1%} {result:>14}")
            qa, qb = quartiles(a), quartiles(b)
            details.append(
                f"{workload:14} {name:16} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] "
                f"n={len(a)}  B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] n={len(b)}  "
                f"bound {metric['bound']:.0%}  {result}"
            )
        failed = max(values["error_rate"] for values in runs_b[workload].values())
        if failed > 0:
            bad = True
            cells.append(f"FAILED error_rate {failed:.3g}")
        print(f"{workload:14} " + " ".join(cells))
    print()
    print("\n".join(details))
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs_a", type=Path, help="parent runs")
    parser.add_argument("runs_b", type=Path, help="change runs")
    args = parser.parse_args(argv)
    return compare(args.runs_a, args.runs_b)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
