"""Tests for the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from queue import Queue

import pytest

import loops
import speed

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layer_map.json").read_text())["layers"]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def serving_metrics() -> dict[str, str]:
    """The frontdoor_mix-only metrics of ``layer_map.json``, with units."""
    return {
        name: unit
        for layer in LAYERS
        if layer["emitted_on"] == "frontdoor_mix"
        for name, unit in layer["metrics"].items()
    }


def run(*args: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )


def test_metric_names_and_counts():
    end_to_end, per_layer = BENCHMARK["end_to_end"], BENCHMARK["per_layer"]
    names = [metric["name"] for metric in end_to_end + per_layer]
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    setup = next(metric for metric in end_to_end if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < metric["bound"] <= setup["bound"] <= 0.25 for metric in end_to_end)


def test_every_per_layer_metric_names_what_it_moves():
    workloads = {workload["name"] for workload in BENCHMARK["workloads"]}
    end_to_end = {metric["name"] for metric in BENCHMARK["end_to_end"]}
    mapped = {}
    for layer in LAYERS:
        assert layer["emitted_on"] in ("all", *workloads), layer["layer"]
        for name, unit in layer["metrics"].items():
            assert NAME.match(name) and name not in mapped, name
            mapped[name] = (unit, layer["emitted_on"])
        for entry in layer["moves"] + layer["bypass"]:
            assert set(entry) == {"metric", "workload"}, layer["layer"]
            assert entry["metric"] in end_to_end and entry["workload"] in workloads
        # A layer that should move something has a workload where it should not.
        assert bool(layer["moves"]) == bool(layer["bypass"]), layer["layer"]
    tracked = {metric["name"]: (metric["unit"], "all") for metric in BENCHMARK["per_layer"]}
    assert tracked == {name: mapped[name] for name in mapped if mapped[name][1] == "all"}


def test_percentile_rule():
    hundred = list(range(1, 101))
    assert loops.percentile(hundred, 90) == 90
    with pytest.raises(loops.TooFewSamples):
        loops.percentile(hundred[:99], 90)
    assert loops.highest_percentile(list(range(1000))) == (99, 989)
    assert loops.highest_percentile(hundred) == (90, 90)
    assert loops.highest_percentile(list(range(20))) == (50, 9)
    with pytest.raises(loops.TooFewSamples):
        loops.highest_percentile(list(range(19)))


def test_segmented_statistics_are_medians_over_segments():
    # 250 samples make two segments of 125; 99 make one.
    samples = [1.0] * 125 + [3.0] * 125
    assert loops.segmented(samples, max) == 2.0
    assert loops.segmented(samples[:99], len) == 99
    # Five segments at most; one slow segment does not move the median.
    burst = [1.0] * 400 + [9.0] * 100 + [1.0] * 500
    assert loops.segmented(burst, statistics.mean) == 1.0


def test_speed_scale_uses_the_quanta_around_an_interval():
    meter = speed.Speedometer()
    # Quanta every 50 ms for a second; the host runs at half speed after 0.5 s.
    meter.stamps = [0.05 * i for i in range(21)]
    nominal = speed.NOMINAL_QUANTUM_S
    meter.times = [nominal if stamp < 0.5 else 2 * nominal for stamp in meter.stamps]
    assert meter.scale(0.2, 0.21) == 1.0
    assert meter.scale(0.8, 0.81) == 0.5
    # Nothing within the window: the nearest quanta decide.
    assert meter.scale(5.0, 5.0) == 0.5
    assert meter.tick(2) > 0 and len(meter.times) == 23


def test_closed_loop_runs_quanta_beside_the_requests():
    class Meter(speed.Speedometer):
        """A host at half the reference speed, without running quanta."""

        def tick(self, count: int = 1) -> float:
            for _ in range(count):
                self.stamps.append(time.perf_counter())
                self.times.append(2 * speed.NOMINAL_QUANTUM_S)
            return count * 2 * speed.NOMINAL_QUANTUM_S

    def call(_sql):
        time.sleep(0.002)

    meter = Meter()
    spans = loops.closed_loop(
        call, [("stub", "q")], 0.0, 20, lambda *_: None, meter, 0.5
    )
    assert len(spans) == 20
    assert all(elapsed >= 0.002 for _, elapsed in spans)
    # Half the timed clock again in quanta (2 ms each here), plus at most one
    # before the first request and one after the last.
    timed = sum(elapsed for _, elapsed in spans)
    assert 0.5 * timed <= sum(meter.times) <= 0.5 * timed + 4.5e-3
    assert meter.stamps[0] < spans[0][0] and meter.stamps[-1] > sum(spans[-1])
    assert {meter.scale(start, start + elapsed) for start, elapsed in spans} == {0.5}


def test_open_loop_latency_counts_from_the_due_time():
    """One stall delays every request queued behind it, and that counts."""
    stall_seconds = 0.3
    inbox: Queue = Queue()

    def serve():
        for number in range(10):
            future = inbox.get()
            if number == 2:
                time.sleep(stall_seconds)
            future.set_result(number)

    worker = threading.Thread(target=serve)
    worker.start()

    def submit(_sql):
        future = Future()
        inbox.put(future)
        return future

    requests = loops.open_loop(submit, [("stub", "q")] * 10, rate=100)
    assert loops.drain(requests, timeout=5.0) == []
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    latencies = [request.latency for request in requests]
    assert max(latencies[:2]) < 0.1
    # Requests 3..9 were due 10-70 ms after the stalled one; each waited
    # out the rest of the stall although its own service took no time.
    for number in range(3, 10):
        assert latencies[number] > stall_seconds - 0.01 * (number - 2) - 0.02


def test_open_loop_idles_only_while_nothing_is_in_flight():
    futures: list[Future] = []

    def submit(_sql):
        future = Future()
        futures.append(future)
        threading.Timer(0.005, future.set_result, (None,)).start()
        return future

    idle_calls = []

    def idle():
        idle_calls.append(sum(not future.done() for future in futures))
        end = time.perf_counter() + 0.5e-3
        while time.perf_counter() < end:
            pass

    requests = loops.open_loop(submit, [("stub", "q")] * 10, rate=50, idle=idle)
    assert loops.drain(requests, timeout=5.0) == []
    assert idle_calls and set(idle_calls) == {0}
    # Idle work stops short of each due time, so no request is sent late.
    assert max(request.sent - request.due for request in requests) < 2e-3


def test_smoke_every_workload_emits_every_metric(tmp_path):
    started = time.monotonic()
    child = run("--seed", "0", "--seconds", "0.5", "--smoke", "--out", str(tmp_path))
    assert child.returncode == 0, child.stderr
    assert time.monotonic() - started < 60
    for document, section in (("results.json", "end_to_end"), ("layers.json", "per_layer")):
        workloads = json.loads((tmp_path / document).read_text())["workloads"]
        assert sorted(workloads) == sorted(w["name"] for w in BENCHMARK["workloads"])
        for name, report in workloads.items():
            assert report["failed"] == 0, (name, report["failures"])
            emitted = {m: e["unit"] for m, e in report["metrics"].items()}
            assert emitted == {m["name"]: m["unit"] for m in BENCHMARK[section]}, name
            traced_door = (section, name) == ("per_layer", "frontdoor_mix")
            expected = set(serving_metrics()) if traced_door else set()
            assert set(report.get("serving", ())) == expected, name
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_compare_pairs_runs_by_seed_and_refuses_unpaired(tmp_path, capsys):
    import compare

    def write_runs(side: str, seeds: list[int], gain: float) -> Path:
        for number, seed in enumerate(seeds):
            run_dir = tmp_path / side / f"run{number}"
            run_dir.mkdir(parents=True)
            metrics = {
                metric["name"]: {
                    "value": (1.0 + seed / 100)
                    * (1 - gain if metric["better"] == "lower" else 1 / (1 - gain)),
                    "unit": metric["unit"],
                }
                for metric in BENCHMARK["end_to_end"]
            }
            report = {"metrics": metrics, "attempted": 10, "failed": 0}
            document = {"seed": seed, "workloads": {"tpch_sql": report}}
            (run_dir / "results.json").write_text(json.dumps(document))
        return tmp_path / side

    parent = write_runs("a", list(range(10)), 0.0)
    # B is 10% better than its own seed's A run, in every pair, though its
    # runs sit in another path order.
    change = write_runs("b", list(reversed(range(10))), 0.1)
    assert compare.compare(parent, change) == 0
    rows = capsys.readouterr().out.splitlines()
    row = next(line for line in rows if line.startswith("tpch_sql "))
    assert row.count("gain") == len(BENCHMARK["end_to_end"]), row
    assert compare.compare(parent, write_runs("c", list(range(11)), 0.0)) == 2
    assert "tpch_sql 10/0 (only in B)" in capsys.readouterr().err


def test_tampered_expected_entry_counts_as_a_failure(tmp_path):
    import inputs
    import oracle

    spec = inputs.workload("tpch_sql", smoke=True)
    _, sql = inputs.pool(spec, inputs.build_schema(spec.schema), 0)[0]
    key = oracle.entry_key(spec.technique, spec.schema, sql)
    document = json.loads(oracle.EXPECTED_PATH.read_text())
    document["entries"][key][0] *= 1.5
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(document))
    child = run(
        "--workload", "tpch_sql", "--seed", "0", "--seconds", "0.2",
        "--trace", "0", "--smoke", "--expected", str(tampered),
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["failed"] > 0
    assert result["correct"] is False
    assert result["attempted"] >= result["failed"]


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "benchmarks").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    copy = bare / "benchmarks" / "e2e"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    child = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "tpch_sql",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False,
    )
    assert child.returncode != 0
    assert child.stdout == ""
