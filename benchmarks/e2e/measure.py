"""What a workload child process sets up and measures.

Closed-loop workloads (``tpch_sql``, ``star_sdp``, ``dp_star``) time
``repro.optimize(sql, schema=, stats=, technique=)`` with one client.
``frontdoor_mix`` offers an open-loop schedule to a ``FrontDoor``, with
statistics refreshes beside the reads; its traced pass climbs a rate
ladder. End-to-end latencies are rescaled to the host's reference speed
(:mod:`speed`); the ladder's are not.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import statistics
from dataclasses import dataclass
from functools import partial

import repro
from repro.errors import ReproError

import inputs
import loops
import oracle
import speed

#: Requests a closed-loop run makes at least: p90 needs ten beyond it.
MIN_REQUESTS = 100

#: Closed loops run host-speed quanta for this share of the timed clock.
QUANTUM_SHARE = 0.08

#: Serving threads; the generator thread takes the remaining core.
FRONTDOOR_WORKERS = max(1, (os.cpu_count() or 1) - 1)
QUEUE_CAPACITY = 64

#: The end-to-end pass offers this rate for the whole run. The traced
#: pass climbs the ladder (requests/second) to find the highest rate that
#: meets the latency objective; it splits the run evenly over the steps,
#: but gives each at least 100 requests so its p90 has ten beyond it.
HEADLINE_RATE = 100
LADDER = (50, 100, 150, 200, 300)
MIN_STEP_REQUESTS = 100

#: A ladder step meets the latency objective when its p90 (refusals count
#: as misses) is within this, nothing was shed, and the queue drained
#: within DRAIN_LIMIT_S of the step's last submit.
SLO_P90_MS = 25.0
DRAIN_LIMIT_S = 1.0

#: ``door.install_statistics(analyze(schema))`` fires at the start of
#: every step and then at this spacing, so each step starts cold and sees
#: the same refresh cadence whatever ran before it.
WRITE_INTERVAL_S = 2.0

#: Zipf exponent over the pool's 315 ranks. Every statistics write empties
#: the plan cache, so the hit rate is set by how many distinct texts 2 s
#: of traffic (200 requests) draws, not by the cache's 128 entries: about
#: 7 here, for a hit rate near 0.96. One star-6 text takes 83% of the
#: requests, so p50 and p90 both land on one text's cache hits. At a 0.8
#: hit rate p90 lands on misses and the requests queued behind them, and
#: read 8-16 ms over runs of one seed.
ZIPF_EXPONENT = 3.0

#: Requests cycle over this many tenants so the default per-tenant token
#: bucket (16/s) admits the top ladder step: independent users, not one.
TENANTS = 32


@dataclass
class Env:
    """One workload's catalog, inputs and (open loop) serving stack."""

    spec: inputs.Workload
    seed: int
    schema: repro.Schema
    stats: object
    pool: list[tuple[str, str]]
    door: repro.FrontDoor | None = None

    def optimize(self, sql: str):
        return repro.optimize(
            sql, schema=self.schema, stats=self.stats, technique=self.spec.technique
        )

    def refresh(self) -> None:
        """A statistics write: a fresh ``analyze()`` through the breaker."""
        self.door.install_statistics(repro.analyze(self.schema))

    def close(self) -> None:
        if self.door is not None:
            self.door.close()


def start_door(schema: repro.Schema, technique: str) -> repro.FrontDoor:
    """An SDP (or ``technique``) service with the default plan cache."""
    service = repro.OptimizationService(technique=technique)
    service.analyze(schema)
    config = repro.FrontDoorConfig(
        queue_capacity=QUEUE_CAPACITY, workers=FRONTDOOR_WORKERS
    )
    return repro.FrontDoor(service, config).start()


def first_per_shape(pool: list[tuple[str, str]]) -> list[str]:
    """The first text of each shape label, in pool order."""
    first: dict[str, str] = {}
    for label, sql in pool:
        first.setdefault(label, sql)
    return list(first.values())


def setup(spec: inputs.Workload, seed: int) -> Env:
    """Everything before the first timed request, warm-up included."""
    schema = inputs.build_schema(spec.schema)
    env = Env(spec, seed, schema, repro.analyze(schema), inputs.pool(spec, schema, seed))
    if spec.open_loop:
        env.door = start_door(schema, spec.technique)
    for sql in first_per_shape(env.pool):
        if env.door is not None:
            env.door.optimize(sql, tenant="warm-up")
        else:
            env.optimize(sql)
    return env


def check_answer(checker: oracle.Checker, label: str, sql: str, result) -> None:
    if isinstance(result, ReproError):
        checker.fail(f"{label}: {type(result).__name__}: {result}")
    else:
        checker.add(label, sql, result)


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    return {
        "latency_p50_ms": loops.segmented(latencies, statistics.median) * 1e3,
        "latency_p90_ms": loops.segmented(
            latencies, lambda part: loops.percentile(part, 90)
        )
        * 1e3,
    }


def measure_closed(env: Env, seconds: float, checker: oracle.Checker) -> dict:
    """The one-client closed loop over the pool."""
    meter = speed.Speedometer()
    spans = loops.closed_loop(
        env.optimize,
        env.pool,
        seconds,
        MIN_REQUESTS,
        partial(check_answer, checker),
        meter,
        QUANTUM_SHARE,
    )
    scales = [meter.scale(start, start + elapsed) for start, elapsed in spans]
    latencies = [elapsed * scale for (_, elapsed), scale in zip(spans, scales)]
    return {
        "attempted": len(latencies),
        "latencies": latencies,
        "scale": statistics.median(scales),
        **latency_metrics(latencies),
        "throughput_qps": loops.segmented(latencies, lambda part: len(part) / sum(part)),
    }


# -- the open-loop ladder ------------------------------------------------------


def cache_counts(door: repro.FrontDoor) -> tuple[int, int, int]:
    stats = door.service.cache_stats
    return stats.hits, stats.misses, stats.invalidations


@dataclass
class Step:
    """One ladder step's requests and what the service reported."""

    rate: int
    requests: list[loops.Scheduled]
    pending: list[loops.Scheduled]
    cache: tuple[int, int, int]

    @property
    def served(self) -> list:
        """``(request, FrontDoorResult)`` for every request answered."""
        return [
            (r, r.future.result())
            for r in self.requests
            if r.future is not None
            and r.future.done()
            and r.future.exception() is None
        ]

    @property
    def shed(self) -> int:
        return sum(r.error is not None for r in self.requests)

    @property
    def drain_seconds(self) -> float:
        done = [r.done for r in self.requests if r.done is not None]
        return max(done, default=0.0) - self.requests[-1].sent

    @property
    def p90_ms(self) -> float:
        """p90 with refused and unanswered requests counted as misses."""
        return loops.percentile([r.latency for r in self.requests], 90) * 1e3

    @property
    def meets_slo(self) -> bool:
        return (
            self.p90_ms <= SLO_P90_MS
            and self.shed == 0
            and not self.pending
            and self.drain_seconds <= DRAIN_LIMIT_S
        )


def max_qps_within_slo(steps: dict[int, Step]) -> int:
    """The highest rate up to which every ladder step met the objective."""
    best = 0
    for rate in LADDER:
        if not steps[rate].meets_slo:
            break
        best = rate
    return best


def run_step(
    env: Env,
    rate: int,
    duration: float,
    checker: oracle.Checker,
    meter: speed.Speedometer | None = None,
) -> Step:
    """Offer ``rate`` for ``duration`` seconds; answers go to ``checker``.

    With a ``meter``, the generator runs its quanta while it waits for
    the next due time and no request is in flight, and each answered
    request's ``scale`` is the host-speed factor around it.
    """
    tenants = itertools.cycle([f"tenant-{i}" for i in range(TENANTS)])

    def submit(sql: str):
        return env.door.submit(sql, tenant=next(tenants))

    rng = random.Random(f"{env.spec.name}/{env.seed}/{rate}")
    items = inputs.zipf_requests(env.pool, ZIPF_EXPONENT, round(rate * duration), rng)
    writes = tuple(
        WRITE_INTERVAL_S * k for k in range(math.ceil(duration / WRITE_INTERVAL_S))
    )
    before = cache_counts(env.door)
    idle = meter.tick if meter else None
    requests = loops.open_loop(submit, items, rate, writes, env.refresh, idle=idle)
    pending = loops.drain(requests, timeout=60.0)
    if meter:
        meter.tick(speed.MIN_QUANTA)
        for request in requests:
            if request.done is not None:
                request.scale = meter.scale(request.due, request.done)
    after = cache_counts(env.door)
    step = Step(rate, requests, pending, tuple(b - a for a, b in zip(before, after)))
    unanswered = set(map(id, pending))
    for request in requests:
        if request.error is not None:
            checker.fail(f"{request.label}: shed at {rate}/s: {request.error}")
        elif id(request) in unanswered:
            checker.fail(f"{request.label}: no answer at {rate}/s")
        elif request.future.exception() is not None:
            exc = request.future.exception()
            checker.fail(f"{request.label}: {type(exc).__name__}: {exc}")
        else:
            served = request.future.result()
            checker.add(
                request.label, request.sql, served.result, exact=not served.degraded
            )
    return step


def run_ladder(env: Env, seconds: float, checker: oracle.Checker) -> dict[int, Step]:
    """Every ladder step, in ascending order."""
    duration = max(seconds / len(LADDER), MIN_STEP_REQUESTS / min(LADDER))
    return {rate: run_step(env, rate, duration, checker) for rate in LADDER}


def measure_open(env: Env, seconds: float, checker: oracle.Checker) -> dict:
    """The headline rate for the whole run (and for 100 requests at least)."""
    duration = max(seconds, MIN_STEP_REQUESTS / HEADLINE_RATE)
    step = run_step(env, HEADLINE_RATE, duration, checker, speed.Speedometer())
    served = step.served
    latencies = [request.latency * request.scale for request, _ in served]
    finished = max(request.done for request, _ in served)
    return {
        "attempted": len(step.requests),
        "latencies": latencies,
        "scale": statistics.median(request.scale for request, _ in served),
        **latency_metrics(latencies),
        "throughput_qps": len(served) / (finished - step.requests[0].due),
        "cache_hit_rate": step.cache[0] / (step.cache[0] + step.cache[1]),
    }


def measure(env: Env, seconds: float, checker: oracle.Checker) -> dict:
    if env.spec.open_loop:
        return measure_open(env, seconds, checker)
    return measure_closed(env, seconds, checker)
