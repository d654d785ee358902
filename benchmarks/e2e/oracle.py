"""The benchmark's correctness oracle.

Every answer a run gets is checked after the timed region:

* ``validate_plan(plan, graph)`` on every result (structure: each
  relation once, no cartesian products, costs that add up);
* for results that are not degraded, an exact match of ``(cost,
  plans_costed)`` against the eager reference kernel
  (``REPRO_KERNEL=reference``), the repository's independent
  equivalence oracle. Brownout results are only validated: a cheaper
  plan is their contract.

``expected.json`` holds the reference answers for every text any seed can
draw (see :mod:`inputs`), plus the DP-optimal cost for each query of at
most :data:`DP_REFERENCE_MAX` relations. Answers missing from the file
are computed by a reference-kernel child process at the end of the run,
so a run never skips its check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.errors import PlanError
from repro.plans.validate import validate_plan

import inputs

EXPECTED_PATH = Path(__file__).with_name("expected.json")
RUN_PY = Path(__file__).with_name("run.py")

#: DP is the plan-quality reference up to this many relations; beyond it
#: exhaustive search costs seconds per query.
DP_REFERENCE_MAX = 15

#: Mismatch descriptions kept per run; the count is always exact.
MISMATCHES_KEPT = 20


def entry_key(technique: str, schema_name: str, sql: str) -> str:
    """The ``expected.json`` key of one request: a hash of its SQL text."""
    digest = hashlib.sha256(f"{technique}|{schema_name}|{sql}".encode())
    return digest.hexdigest()[:24]


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, list]:
    """``key -> [cost, plans_costed, dp_cost or None]``."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["entries"]


def write_expected(path: Path, entries: dict[str, list]) -> None:
    """Write ``expected.json`` with one reference answer per line."""
    lines = ",\n".join(
        f"    {json.dumps(key)}: {json.dumps(value)}"
        for key, value in sorted(entries.items())
    )
    path.write_text(
        "{\n"
        '  "kernel": "reference",\n'
        f'  "dp_reference_max_relations": {DP_REFERENCE_MAX},\n'
        f'  "entries": {{\n{lines}\n  }}\n'
        "}\n"
    )


def reference_answers(requests: list[list[str]]) -> dict[str, list]:
    """Answer ``[technique, schema, sql]`` requests in this process.

    Only meaningful under ``REPRO_KERNEL=reference``; use
    :func:`compute_reference` to get a child process set up that way.
    """
    catalogs: dict[str, tuple] = {}
    answers = {}
    for technique, schema_name, sql in requests:
        if schema_name not in catalogs:
            schema = inputs.build_schema(schema_name)
            catalogs[schema_name] = (schema, repro.analyze(schema))
        schema, stats = catalogs[schema_name]
        result = repro.optimize(sql, schema=schema, stats=stats, technique=technique)
        dp_cost = None
        if result.query.relation_count <= DP_REFERENCE_MAX:
            dp_cost = result.cost
            if technique != "DP":
                dp_cost = repro.optimize(
                    sql, schema=schema, stats=stats, technique="DP"
                ).cost
        answers[entry_key(technique, schema_name, sql)] = [
            result.cost,
            result.plans_costed,
            dp_cost,
        ]
    return answers


def compute_reference(requests: list[list[str]], timeout: float) -> dict[str, list]:
    """Answer ``requests`` with the eager reference kernel, in a child."""
    if not requests:
        return {}
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        REPRO_KERNEL="reference",
        PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src,
    )
    child = subprocess.run(
        [sys.executable, str(RUN_PY), "--reference"],
        input=json.dumps(requests),
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
        check=False,
    )
    if child.returncode != 0:
        raise RuntimeError(f"reference child failed:\n{child.stderr}")
    return json.loads(child.stdout.splitlines()[-1])


class Checker:
    """Collects a run's answers and checks them against the oracle.

    :meth:`add` validates the plan at once (callers invoke it outside the
    timed region) and keeps one ``(cost, plans_costed)`` per distinct
    text with a request count, so a long run holds neither plans nor a
    record per request. :meth:`finish` resolves missing reference
    answers and compares.
    """

    def __init__(self, spec: inputs.Workload, expected: dict[str, list]):
        self.spec = spec
        self.expected = expected
        self.answers: dict[str, list] = {}  # sql -> [cost, plans_costed, requests]
        self.failures: list[str] = []
        self.failed = 0

    def add(self, label: str, sql: str, result, exact: bool = True) -> None:
        """Record one answer (an ``OptimizerResult``-like object).

        ``exact=False`` validates the plan but skips the exact match (a
        brownout answer, or one a warm cache may have answered for an
        equivalent text).
        """
        try:
            validate_plan(result.plan, result.query.graph)
        except PlanError as exc:
            self.fail(f"{label}: invalid plan: {exc}")
            return
        if not exact:
            return
        answer = [result.cost, result.plans_costed]
        seen = self.answers.setdefault(sql, answer + [0])
        if seen[:2] != answer:
            self.fail(f"{label}: answer {answer} differs from an earlier {seen[:2]}")
            return
        seen[2] += 1

    def fail(self, description: str, requests: int = 1) -> None:
        """Record failed requests (error, shed, hang, invalid, wrong)."""
        self.failed += requests
        if len(self.failures) < MISMATCHES_KEPT:
            self.failures.append(description)

    def finish(self, timeout: float = 150.0) -> float:
        """Compare every recorded answer; returns the DP cost ratio.

        The ratio is the geometric mean of cost / DP-optimal cost over the
        exactly matched requests whose query has a DP reference (NaN when
        none does).
        """
        technique, schema = self.spec.technique, self.spec.schema
        keys = {sql: entry_key(technique, schema, sql) for sql in self.answers}
        missing = sorted(sql for sql, key in keys.items() if key not in self.expected)
        self.expected.update(
            compute_reference([[technique, schema, sql] for sql in missing], timeout)
        )
        log_ratio, weight = 0.0, 0
        for sql, (cost, plans_costed, requests) in self.answers.items():
            want_cost, want_plans, dp_cost = self.expected[keys[sql]]
            if (cost, plans_costed) != (want_cost, want_plans):
                self.fail(
                    f"{keys[sql]}: got cost {cost!r} / plans_costed {plans_costed}, "
                    f"reference {want_cost!r} / {want_plans}",
                    requests,
                )
            if dp_cost:
                log_ratio += requests * math.log(cost / dp_cost)
                weight += requests
        return math.exp(log_ratio / weight) if weight else math.nan
