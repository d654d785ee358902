#!/usr/bin/env bash
# Full pre-merge verification: static analysis, the tier-1 test suite,
# the SQL workload smoke, the hot-path regression guard, and the
# front-door overload smoke, in fail-fast order (cheapest first).
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

echo "== 1/5 static analysis (python -m repro.lint) =="
python -m repro.lint src/

stage_done

echo "== 2/5 tier-1 tests (pytest) =="
python -m pytest

stage_done

echo "== 3/5 SQL workload smoke (TPC-H-lite through the front door) =="
python - <<'SMOKE'
import repro
from repro.plans.validate import validate_plan

schema = repro.tpch_lite_schema()
for (label, sql), query in zip(repro.TPCH_LITE_SQL,
                               repro.tpch_lite_queries(schema)):
    from_sql = repro.optimize(sql, schema=schema)
    from_query = repro.optimize(query)
    assert from_sql.cost == from_query.cost, label
    assert from_sql.plans_costed == from_query.plans_costed, label
    validate_plan(from_sql.plan, query.graph)
    assert from_sql.tree() is not None      # provenance carries the query
    print(f"  {label}: sql==query, plan valid "
          f"(cost={from_sql.cost:.1f}, plans_costed={from_sql.plans_costed})")
SMOKE

stage_done

echo "== 4/5 hot-path regression guard (sdp-bench --check) =="
python -m repro.bench --check BENCH_optimize.json

stage_done

echo "== 5/5 overload smoke (pytest -m stress) =="
python -m pytest -m stress

stage_done

echo "verify: all stages passed (total ${SECONDS}s)"
