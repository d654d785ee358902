#!/usr/bin/env bash
# Full pre-merge verification: static analysis, the tier-1 test suite,
# the end-to-end benchmark's answer check, the TPC-H-lite smoke through
# the front door, the hot-path regression guard, and the front-door
# overload smoke, in fail-fast order (cheapest first).
#
#   scripts/verify.sh            # from the repo root
#
# Each stage's own output explains any failure; the script stops at the
# first one and reports per-stage wall time on the way through. Uses
# PYTHONPATH so it works without `pip install -e .`.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

STAGE_T0=$SECONDS
stage_done() {
  echo "   stage time: $((SECONDS - STAGE_T0))s"
  STAGE_T0=$SECONDS
}

echo "== 1/6 static analysis (python -m repro.lint) =="
python -m repro.lint src/

stage_done

# Every pytest stage runs under development mode, where a leaked file or
# socket (ResourceWarning), or an exception raised where nothing can catch
# it (say, in a finalizer), fails the stage instead of printing a warning.
PYTEST_DEV=(python -X dev -m pytest -W error::ResourceWarning
  -W error::pytest.PytestUnraisableExceptionWarning)

echo "== 2/6 tier-1 tests (pytest, leaked resources fail) =="
"${PYTEST_DEV[@]}"

stage_done

# Every e2e workload for 0.5 s, failing if any answer differs from
# benchmarks/e2e/expected.json (the reference kernel's cost and
# plans_costed for the benchmark's queries, up to star-25), and the check
# that a tampered expected entry is caught.
echo "== 3/6 benchmark answer check (pytest benchmarks/e2e, leaked resources fail) =="
"${PYTEST_DEV[@]}" benchmarks/e2e -k "smoke or tampered"

stage_done

# The 13 TPC-H-lite texts go through a started FrontDoor over an analyzed
# SDP service twice. The second pass must be all plan-cache hits that
# never call parse_sql and are served at admission (no queue wait), with
# cost and plans_costed equal to repro.optimize(query) on the parsed
# Query; the plan cache counts one lookup per request, 13 misses and 13
# hits.
echo "== 4/6 SQL workload smoke (TPC-H-lite through the front door) =="
python - <<'SMOKE'
import repro
import repro.service.service as service_module
from repro.plans.validate import validate_plan

parses = []
parse_sql = service_module.parse_sql


def counting_parse(schema, sql):
    parses.append(sql)
    return parse_sql(schema, sql)


service_module.parse_sql = counting_parse
schema = repro.tpch_lite_schema()
service = repro.OptimizationService(technique="SDP")
stats = service.analyze(schema)
texts = [sql for _label, sql in repro.TPCH_LITE_SQL]
with repro.FrontDoor(service) as door:
    # One tenant per template: the default bucket admits 8 at once.
    for label, sql in repro.TPCH_LITE_SQL:
        door.optimize(sql, tenant=label)
    assert sorted(parses) == sorted(texts), "first pass parses each text once"
    parses.clear()
    second = [door.optimize(sql, tenant=label) for label, sql in repro.TPCH_LITE_SQL]
assert parses == [], f"second pass parsed {len(parses)} texts"
waits = [served.queue_wait_seconds for served in second]
assert waits == [0.0] * len(texts), f"second pass queued: {waits}"
cache = service.cache_stats
assert (cache.misses, cache.hits) == (13, 13), f"cache counted {cache}"
for (label, sql), query, served in zip(
    repro.TPCH_LITE_SQL, repro.tpch_lite_queries(schema), second
):
    inner = served.result
    direct = repro.optimize(query, stats=stats, technique="SDP")
    assert inner.cache_hit and not served.degraded, label
    assert inner.cost == direct.cost, label
    assert inner.plans_costed == direct.plans_costed, label
    assert inner.sql == sql and inner.tree() is not None, label
    validate_plan(inner.plan, inner.query.graph)
    print(f"  {label}: cache hit == repro.optimize, no parse "
          f"(cost={inner.cost:.1f}, plans_costed={inner.plans_costed})")
SMOKE

stage_done

echo "== 5/6 hot-path regression guard (sdp-bench --check) =="
python -m repro.bench --check BENCH_optimize.json

stage_done

echo "== 6/6 overload smoke (pytest -m stress, leaked resources fail) =="
"${PYTEST_DEV[@]}" -m stress

stage_done

echo "verify: all stages passed (total ${SECONDS}s)"
