"""Fixture-tree tests for every repro.lint checker (RL001-RL008).

Each test builds a minimal ``src/repro`` tree on disk, runs one checker
over it, and asserts the checker fires (positive) or stays silent
(negative). Fixture trees are never imported — the linter works on
source text alone — so the snippets only need to parse.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import all_checkers, load_project, run_checkers

pytestmark = pytest.mark.lint


def make_tree(tmp_path, files: dict[str, str]):
    """Write ``files`` (relative to a ``src/`` root) and return both roots."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path / "src"


def lint_tree(tmp_path, files: dict[str, str], code: str):
    """Run just the checker for ``code`` over the fixture tree."""
    src = make_tree(tmp_path, files)
    checkers = [c for c in all_checkers() if c.code == code]
    assert checkers, f"no checker registered for {code}"
    return run_checkers(load_project([src]), checkers)


# ---------------------------------------------------------------- RL001


class TestLayering:
    def test_upward_import_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/cost/model.py": """\
                from repro.core.base import Optimizer
            """,
        }, "RL001")
        assert len(findings) == 1
        assert findings[0].code == "RL001"
        assert "rank" in findings[0].message

    def test_downward_and_sideways_imports_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/x.py": """\
                from repro.cost.model import CostModel
                from repro.plans.records import PlanRecord
                import repro.core.base
            """,
        }, "RL001")
        assert findings == []

    def test_lazy_function_body_import_still_counts(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/x.py": """\
                def build():
                    from repro.robust.ladder import RobustOptimizer
                    return RobustOptimizer
            """,
        }, "RL001")
        assert len(findings) == 1

    def test_unranked_package_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/mystery/x.py": "x = 1\n",
        }, "RL001")
        assert len(findings) == 1
        assert "no layer rank" in findings[0].message

    def test_waiver_suppresses(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/cost/model.py": """\
                # lint: waive[RL001] intentional back-edge for the test
                from repro.core.base import Optimizer
            """,
        }, "RL001")
        assert findings == []

    def test_new_core_module_is_layer_covered(self, tmp_path):
        # Layer ranks are keyed by subpackage, so a new core/ module is in
        # scope automatically: imports that point down (cost, errors,
        # plans) are clean, while an upward edge in the same file fires
        # without any registration.
        findings = lint_tree(tmp_path, {
            "src/repro/core/new_kernel.py": """\
                from repro.cost.model import COUT_COST_MODEL
                from repro.errors import OptimizationError
                from repro.plans.store import M_HASH_JOIN
            """,
        }, "RL001")
        assert findings == []

        findings = lint_tree(tmp_path, {
            "src/repro/core/new_kernel.py": """\
                from repro.plans.store import M_HASH_JOIN
                from repro.service.frontdoor import FrontDoor
            """,
        }, "RL001")
        assert len(findings) == 1
        assert "service" in findings[0].message


# ---------------------------------------------------------------- RL002


class TestDeterminism:
    def test_wall_clock_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/x.py": """\
                import time

                def elapsed():
                    return time.time()
            """,
        }, "RL002")
        assert len(findings) == 1
        assert "wall-clock" in findings[0].message

    def test_global_random_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/x.py": """\
                import random

                def pick(xs):
                    return random.choice(xs)
            """,
        }, "RL002")
        assert len(findings) == 1
        assert "global" in findings[0].message

    def test_unseeded_random_constructor_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/x.py": """\
                import random

                RNG = random.Random()
            """,
        }, "RL002")
        assert len(findings) == 1
        assert "unseeded" in findings[0].message

    def test_seeded_random_constructor_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/x.py": """\
                import random

                RNG = random.Random(7)
            """,
        }, "RL002")
        assert findings == []

    def test_locally_rebound_receiver_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/x.py": """\
                def shuffle(random, xs):
                    random.shuffle(xs)
            """,
        }, "RL002")
        assert findings == []

    def test_environ_outside_kernel_fires_inside_kernel_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/x.py": """\
                import os

                MODE = os.environ.get("REPRO_MODE")
            """,
            "src/repro/core/kernel.py": """\
                import os

                KERNEL = os.environ.get("REPRO_KERNEL", "fast")
            """,
        }, "RL002")
        assert len(findings) == 1
        assert findings[0].path.endswith("x.py")

    def test_set_iteration_fires_sorted_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/plans/x.py": """\
                def bad(items):
                    return [i for i in {x.key for x in items}]

                def good(items):
                    for key in sorted({x.key for x in items}):
                        yield key
            """,
        }, "RL002")
        assert len(findings) == 1
        assert findings[0].line == 2

    def test_non_kernel_layer_out_of_scope(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/bench/x.py": """\
                import time

                def stamp():
                    return time.time()
            """,
        }, "RL002")
        assert findings == []

    def test_new_core_module_is_determinism_covered(self, tmp_path):
        # A new core/ module is not the kernel-selection module, so the
        # env exemption does not extend to it — an env read there fires.
        findings = lint_tree(tmp_path, {
            "src/repro/core/new_kernel.py": """\
                import os

                CHUNK = os.environ.get("REPRO_CHUNK")
            """,
        }, "RL002")
        assert len(findings) == 1
        assert findings[0].path.endswith("new_kernel.py")


# ---------------------------------------------------------------- RL003


class TestFloatDiscipline:
    def test_cost_equality_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/x.py": """\
                def tie(cost, best_cost):
                    return cost == best_cost
            """,
        }, "RL003")
        assert len(findings) == 1
        assert "JCR.improves" in findings[0].message

    def test_selectivity_inequality_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/cost/x.py": """\
                def changed(selectivity, previous):
                    return selectivity != previous
            """,
        }, "RL003")
        assert len(findings) == 1

    def test_attribute_operand_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/skyline/x.py": """\
                def same(a, b):
                    return a.cost == b.cost
            """,
        }, "RL003")
        assert len(findings) == 1

    def test_strict_ordering_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/x.py": """\
                def improves(cost, best_cost):
                    return cost < best_cost
            """,
        }, "RL003")
        assert findings == []

    def test_exempt_identifiers_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/x.py": """\
                def same_model(cost_model, other):
                    return cost_model == other
            """,
        }, "RL003")
        assert findings == []

    def test_non_kernel_layer_out_of_scope(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/bench/x.py": """\
                def identical(cost, baseline_cost):
                    return cost == baseline_cost
            """,
        }, "RL003")
        assert findings == []


# ---------------------------------------------------------------- RL004


_UNCHARGED_LOOP = """\
    def enumerate_pairs(space, table, jcrs):
        for left, right in jcrs:
            space.join(table, left, right)
"""


class TestBudgetCharging:
    def test_uncharged_join_loop_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/x.py": _UNCHARGED_LOOP,
        }, "RL004")
        assert len(findings) == 1
        assert "enumerate_pairs" in findings[0].message

    def test_note_pairs_in_function_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/x.py": """\
                def enumerate_pairs(space, table, jcrs, counters):
                    for left, right in jcrs:
                        space.join(table, left, right)
                    counters.note_pairs(len(jcrs))
            """,
        }, "RL004")
        assert findings == []

    def test_counters_handed_to_callee_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/x.py": """\
                def enumerate_pairs(query, stats, counters):
                    space = make_planspace(query, stats, counters)
                    for left, right in space.pairs():
                        space.join(None, left, right)
            """,
        }, "RL004")
        assert findings == []

    def test_class_level_counters_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/x.py": """\
                class Walker:
                    def __init__(self, space, counters):
                        self.space = space
                        self.counters = counters

                    def cost(self, table, order):
                        current = order[0]
                        for rel in order[1:]:
                            current = self.space.join(table, current, rel)
                        return current
            """,
        }, "RL004")
        assert findings == []

    def test_pair_generator_fires_and_file_waiver_suppresses(self, tmp_path):
        generator = textwrap.dedent("""\
            def csg_cmp_pairs(neighbors):
                for s1 in neighbors:
                    for s2 in neighbors:
                        yield (s1, s2)
        """)
        findings = lint_tree(tmp_path, {
            "src/repro/core/gen.py": generator,
        }, "RL004")
        assert findings and all(f.code == "RL004" for f in findings)

        waived = lint_tree(tmp_path, {
            "src/repro/core/gen2.py": (
                "# lint: waive-file[RL004] consumers charge\n" + generator
            ),
        }, "RL004")
        assert [f for f in waived if f.path.endswith("gen2.py")] == []

    def test_chunked_convolution_charge_clean(self, tmp_path):
        # A convolution-shaped level: pair enumeration buckets work into
        # layers, and the (min,+) combine loop charges note_plans_costed
        # in chunks rather than per pair. The chunked charge is a
        # charge — the loop must stay clean.
        findings = lint_tree(tmp_path, {
            "src/repro/core/conv.py": """\
                CHUNK = 1024

                def convolve_level(table, level_pairs, counters):
                    layers = {}
                    for left, right in level_pairs:
                        layers.setdefault(left.layer, []).append((left, right))
                    for layer in sorted(layers):
                        pairs = layers[layer]
                        pending = len(pairs)
                        while pending > CHUNK:
                            counters.note_plans_costed(CHUNK)
                            pending -= CHUNK
                        counters.note_plans_costed(pending)
                        for left, right in pairs:
                            table.store_add(left.cost + right.cost)
            """,
        }, "RL004")
        assert findings == []

    def test_uncharged_convolution_loop_fires(self, tmp_path):
        # The same combine loop with the chunked charge removed must
        # fire: bucketing pairs without reporting them breaks the 1 GB
        # feasibility-frontier contract.
        findings = lint_tree(tmp_path, {
            "src/repro/core/conv.py": """\
                def convolve_level(table, jcrs):
                    best = {}
                    pairs = []
                    for left, right in jcrs:
                        pairs.append((left, right))
                    for left, right in pairs:
                        cost = left.cost + right.cost
                        if cost < best.get(left.mask, cost + 1.0):
                            best[left.mask] = cost
                    return best
            """,
        }, "RL004")
        assert findings and all(f.code == "RL004" for f in findings)

    def test_non_core_layer_out_of_scope(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/engine/x.py": _UNCHARGED_LOOP,
        }, "RL004")
        assert findings == []


# ---------------------------------------------------------------- RL005


_FIXTURE_NAMES = """\
    SPAN_WORK = "work.level"
    METRIC_CALLS = "repro_calls_total"
"""


class TestObsNames:
    def test_inline_span_literal_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/obs/names.py": _FIXTURE_NAMES,
            "src/repro/core/x.py": """\
                def run(tracer):
                    with maybe_span(tracer, "dp.custom") as span:
                        return span
            """,
        }, "RL005")
        assert len(findings) == 1
        assert "dp.custom" in findings[0].message

    def test_inline_metric_literal_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/obs/names.py": _FIXTURE_NAMES,
            "src/repro/service/x.py": """\
                def bump(registry):
                    registry.counter("repro_widgets_total", "w").inc()
            """,
        }, "RL005")
        assert len(findings) == 1

    def test_duplicated_registered_literal_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/obs/names.py": _FIXTURE_NAMES,
            "src/repro/robust/x.py": """\
                def is_work(span):
                    return span.name == "work.level"
            """,
        }, "RL005")
        assert len(findings) == 1
        assert "duplicates" in findings[0].message

    def test_constant_usage_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/obs/names.py": _FIXTURE_NAMES,
            "src/repro/core/x.py": """\
                from repro.obs.names import SPAN_WORK

                def run(tracer):
                    with maybe_span(tracer, SPAN_WORK) as span:
                        return span
            """,
        }, "RL005")
        assert findings == []

    def test_names_module_itself_exempt(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/obs/names.py": _FIXTURE_NAMES,
        }, "RL005")
        assert findings == []


# ---------------------------------------------------------------- RL006


_FIXTURE_ERRORS = """\
    class ReproError(Exception):
        pass

    class OptimizationError(ReproError):
        pass
"""


class TestExceptionHygiene:
    def test_bare_except_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/util/x.py": """\
                def swallow(fn):
                    try:
                        fn()
                    except:
                        pass
            """,
        }, "RL006")
        assert len(findings) == 1
        assert "bare" in findings[0].message

    def test_unchained_raise_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/util/x.py": """\
                def wrap(fn):
                    try:
                        fn()
                    except ValueError:
                        raise RuntimeError("wrapped")
            """,
        }, "RL006")
        assert len(findings) == 1
        assert "chain" in findings[0].message

    def test_chained_and_bare_reraise_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/util/x.py": """\
                def wrap(fn):
                    try:
                        fn()
                    except ValueError as exc:
                        raise RuntimeError("wrapped") from exc
                    except KeyError:
                        raise
            """,
        }, "RL006")
        assert findings == []

    def test_error_subclass_outside_errors_py_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/errors.py": _FIXTURE_ERRORS,
            "src/repro/service/x.py": """\
                from repro.errors import OptimizationError

                class ServiceTimeout(OptimizationError):
                    pass
            """,
        }, "RL006")
        assert len(findings) == 1
        assert "ServiceTimeout" in findings[0].message

    def test_subclass_inside_errors_py_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/errors.py": _FIXTURE_ERRORS,
        }, "RL006")
        assert findings == []


# ---------------------------------------------------------------- RL007


def _api_fixture(docs_block: str) -> dict[str, str]:
    return {
        "src/repro/__init__.py": """\
            from repro.api import optimize

            __all__ = ["optimize", "PlanResult"]
        """,
        "src/repro/api.py": """\
            def optimize(query, *, technique='sdp'):
                return query
        """,
        "docs/api.md": docs_block,
    }


_GOOD_BLOCK = """\
    # API

    <!-- repro-lint:public-api
    facade optimize(query, *, technique='sdp')
    symbol optimize
    symbol PlanResult
    -->
"""


class TestPublicApi:
    def test_matching_inventory_clean(self, tmp_path):
        findings = lint_tree(tmp_path, _api_fixture(_GOOD_BLOCK), "RL007")
        assert findings == []

    def test_missing_inventory_block_fires(self, tmp_path):
        findings = lint_tree(
            tmp_path, _api_fixture("# API\n\nno inventory here\n"), "RL007"
        )
        assert len(findings) == 1
        assert "inventory" in findings[0].message

    def test_undocumented_export_fires(self, tmp_path):
        block = _GOOD_BLOCK.replace("symbol PlanResult\n", "")
        findings = lint_tree(tmp_path, _api_fixture(block), "RL007")
        assert len(findings) == 1
        assert "PlanResult" in findings[0].message

    def test_stale_doc_symbol_fires(self, tmp_path):
        block = _GOOD_BLOCK.replace(
            "symbol PlanResult", "symbol PlanResult\n    symbol Removed"
        )
        findings = lint_tree(tmp_path, _api_fixture(block), "RL007")
        assert len(findings) == 1
        assert "Removed" in findings[0].message

    def test_facade_signature_drift_fires(self, tmp_path):
        block = _GOOD_BLOCK.replace("technique='sdp'", "technique='dp'")
        findings = lint_tree(tmp_path, _api_fixture(block), "RL007")
        assert len(findings) == 1
        assert "drift" in findings[0].message

    def test_partial_fixture_tree_silent(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/x.py": "x = 1\n",
        }, "RL007")
        assert findings == []


# ---------------------------------------------------------------- RL008


class TestServiceOps:
    def test_unbounded_queue_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/door.py": """\
                import queue

                work = queue.Queue()
            """,
        }, "RL008")
        assert len(findings) == 1
        assert "maxsize" in findings[0].message

    def test_bounded_queue_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/door.py": """\
                import queue

                work = queue.Queue(maxsize=32)
                also = queue.LifoQueue(8)
            """,
        }, "RL008")
        assert findings == []

    def test_simplequeue_always_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/door.py": """\
                from queue import SimpleQueue

                work = SimpleQueue()
            """,
        }, "RL008")
        assert len(findings) == 1
        assert "cannot be bounded" in findings[0].message

    def test_blocking_queue_get_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/door.py": """\
                def loop(self):
                    return self._queue.get()
            """,
        }, "RL008")
        assert len(findings) == 1
        assert ".get()" in findings[0].message

    def test_nonblocking_queue_ops_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/door.py": """\
                def loop(self, item):
                    self._queue.put(item, block=False)
                    return self._queue.get(timeout=0.05)
            """,
        }, "RL008")
        assert findings == []

    def test_wait_without_timeout_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/door.py": """\
                def follow(event):
                    event.wait()
            """,
        }, "RL008")
        assert len(findings) == 1
        assert "timeout" in findings[0].message

    def test_wait_with_timeout_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/door.py": """\
                def follow(event):
                    event.wait(timeout=30.0)
                    event.wait(1.0)
            """,
        }, "RL008")
        assert findings == []

    def test_worker_join_without_timeout_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/door.py": """\
                def close(self):
                    for worker in self._workers:
                        worker.join()
            """,
        }, "RL008")
        assert len(findings) == 1
        assert "shutdown" in findings[0].message

    def test_nonthread_join_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/door.py": """\
                def render(parts):
                    return ", ".join(parts)
            """,
        }, "RL008")
        assert findings == []

    def test_other_layers_out_of_scope(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/x.py": """\
                import queue

                work = queue.Queue()

                def follow(event):
                    event.wait()
            """,
        }, "RL008")
        assert findings == []

    def test_waiver_suppresses(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/door.py": """\
                def follow(event):
                    # lint: waive[RL008] event is set in a finally block
                    event.wait()
            """,
        }, "RL008")
        assert findings == []

    def test_process_join_without_timeout_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/pool.py": """\
                def shutdown(self):
                    for worker in self.workers:
                        worker.process.join()
            """,
        }, "RL008")
        assert len(findings) == 1
        assert "shutdown" in findings[0].message

    def test_bounded_worker_process_ops_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/pool.py": """\
                def collect(self):
                    self.inbox_queue.put(("level",), timeout=60.0)
                    return self.outbox_queue.get(timeout=0.5)

                def shutdown(self):
                    for worker in self.workers:
                        worker.process.join(timeout=5.0)
            """,
        }, "RL008")
        assert findings == []

    def test_other_core_modules_still_out_of_scope(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/dp.py": """\
                def collect(self):
                    return self.outbox_queue.get()
            """,
        }, "RL008")
        assert findings == []


# ---------------------------------------------------------------- RL009


class TestLockOrder:
    def test_opposite_nesting_orders_fire_cycle(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/locks.py": """\
                import threading

                A = threading.Lock()
                B = threading.Lock()

                def one():
                    with A:
                        with B:
                            pass

                def two():
                    with B:
                        with A:
                            pass
            """,
        }, "RL009")
        assert len(findings) == 1
        assert "lock-order cycle" in findings[0].message

    def test_consistent_order_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/locks.py": """\
                import threading

                A = threading.Lock()
                B = threading.Lock()

                def one():
                    with A:
                        with B:
                            pass

                def two():
                    with A:
                        with B:
                            pass
            """,
        }, "RL009")
        assert findings == []

    def test_interprocedural_cycle_through_methods(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/pair.py": """\
                import threading

                class Cache:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._svc = Service(self)

                    def evict(self):
                        with self._lock:
                            self._svc.note_eviction()

                class Service:
                    def __init__(self, cache):
                        self._lock = threading.Lock()
                        self._cache = Cache()

                    def note_eviction(self):
                        with self._lock:
                            pass

                    def refresh(self):
                        with self._lock:
                            self._cache.invalidate()
            """,
            "src/repro/service/more.py": """\
                import threading

                class Extra:
                    pass
            """,
        }, "RL009")
        # Cache._lock -> Service._lock (evict) and Service._lock ->
        # Cache._lock would need Cache.invalidate to acquire; it does
        # not exist, so only the one-directional edges — no cycle.
        assert findings == []

    def test_transitive_cycle_via_call_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/pair.py": """\
                import threading

                class Cache:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._svc = Service(self)

                    def evict(self):
                        with self._lock:
                            self._svc.note_eviction()

                    def invalidate(self):
                        with self._lock:
                            pass

                class Service:
                    def __init__(self, cache):
                        self._lock = threading.Lock()
                        self._cache = Cache()

                    def note_eviction(self):
                        with self._lock:
                            pass

                    def refresh(self):
                        with self._lock:
                            self._cache.invalidate()
            """,
        }, "RL009")
        assert len(findings) == 1
        assert "lock-order cycle" in findings[0].message
        assert "Cache._lock" in findings[0].message
        assert "Service._lock" in findings[0].message

    def test_plain_lock_self_reacquire_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/self_deadlock.py": """\
                import threading

                class Registry:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def outer(self):
                        with self._lock:
                            self.inner()

                    def inner(self):
                        with self._lock:
                            pass
            """,
        }, "RL009")
        assert len(findings) == 1
        assert "self-deadlock" in findings[0].message

    def test_rlock_reentrancy_is_sanctioned(self, tmp_path):
        # The epoch-swap pattern: optimize() holds the RLock and calls
        # install_statistics(), which re-acquires it.
        findings = lint_tree(tmp_path, {
            "src/repro/service/epoch.py": """\
                import threading

                class Service:
                    def __init__(self):
                        self._lock = threading.RLock()

                    def optimize(self):
                        with self._lock:
                            self.install_statistics()

                    def install_statistics(self):
                        with self._lock:
                            pass
            """,
        }, "RL009")
        assert findings == []

    def test_acquire_release_calls_count_as_scopes(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/manual.py": """\
                import threading

                A = threading.Lock()
                B = threading.Lock()

                def one():
                    A.acquire()
                    with B:
                        pass
                    A.release()

                def two():
                    with B:
                        A.acquire()
                        A.release()
            """,
        }, "RL009")
        assert len(findings) == 1
        assert "lock-order cycle" in findings[0].message

    def test_out_of_scope_layers_ignored(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/core/dp.py": """\
                import threading

                A = threading.Lock()
                B = threading.Lock()

                def one():
                    with A:
                        with B:
                            pass

                def two():
                    with B:
                        with A:
                            pass
            """,
        }, "RL009")
        assert findings == []


# ---------------------------------------------------------------- RL010


class TestResourceLifecycle:
    def test_early_return_leaks_segment(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/segments.py": """\
                from multiprocessing import shared_memory

                def grab(name, fast):
                    seg = shared_memory.SharedMemory(
                        name=name, create=True, size=8)
                    if fast:
                        return None
                    seg.close()
                    seg.unlink()
            """,
        }, "RL010")
        assert len(findings) == 1
        assert "close, unlink" in findings[0].message

    def test_close_without_unlink_on_owner_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/segments.py": """\
                from multiprocessing import shared_memory

                def grab(name):
                    seg = shared_memory.SharedMemory(
                        name=name, create=True, size=8)
                    seg.close()
            """,
        }, "RL010")
        assert len(findings) == 1
        assert "unlink" in findings[0].message

    def test_exception_path_leak_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/segments.py": """\
                from multiprocessing import shared_memory

                def grab(name, size):
                    seg = shared_memory.SharedMemory(
                        name=name, create=True, size=8)
                    if size < 0:
                        raise ValueError(str(size))
                    seg.close()
                    seg.unlink()
            """,
        }, "RL010")
        assert len(findings) == 1

    def test_try_finally_cleanup_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/segments.py": """\
                from multiprocessing import shared_memory

                def grab(name, fill):
                    seg = shared_memory.SharedMemory(
                        name=name, create=True, size=8)
                    try:
                        fill(seg)
                    finally:
                        seg.close()
                        seg.unlink()
            """,
        }, "RL010")
        assert findings == []

    def test_escape_to_attribute_transfers_ownership(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/segments.py": """\
                from multiprocessing import shared_memory

                class Store:
                    def _grow(self, name):
                        segment = shared_memory.SharedMemory(
                            name=name, create=True, size=8)
                        self._segments.append(segment)
            """,
        }, "RL010")
        assert findings == []

    def test_attach_handle_needs_close_only(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/segments.py": """\
                from multiprocessing import shared_memory

                def peek(name):
                    seg = shared_memory.SharedMemory(name=name)
                    value = bytes(seg.buf[:1])
                    seg.close()
                    return value
            """,
        }, "RL010")
        assert findings == []

    def test_search_layers_out_of_scope(self, tmp_path):
        # Only the serving layer creates processes and shared memory; the
        # same leak in a search-side module is not RL010's business.
        leak = """\
            from multiprocessing import shared_memory

            def grab(name):
                seg = shared_memory.SharedMemory(
                    name=name, create=True, size=8)
                seg.close()
        """
        for path in ("src/repro/plans/store.py", "src/repro/core/dp.py"):
            assert lint_tree(tmp_path, {path: leak}, "RL010") == [], path

    def test_shared_store_needs_close(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/segments.py": """\
                def fill(rows, SharedRowStore):
                    store = SharedRowStore()
                    for row in rows:
                        store.add(row)
            """,
        }, "RL010")
        assert len(findings) == 1
        assert "close" in findings[0].message

    def test_view_alive_when_buffer_closes_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/segments.py": """\
                def snapshot(seg):
                    view = memoryview(seg.buf)
                    seg.close()
                    view.release()
            """,
        }, "RL010")
        assert len(findings) == 1
        assert "release() first" in findings[0].message

    def test_view_released_before_close_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/segments.py": """\
                def snapshot(seg):
                    view = memoryview(seg.buf)
                    view.release()
                    seg.close()
            """,
        }, "RL010")
        assert findings == []

    def test_pool_without_shutdown_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/runner.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def run(tasks):
                    pool = ProcessPoolExecutor(max_workers=2)
                    for task in tasks:
                        pool.submit(task)
            """,
        }, "RL010")
        assert len(findings) == 1
        assert "shutdown" in findings[0].message

    def test_with_statement_cleanup_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/runner.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def run(task):
                    with ProcessPoolExecutor(max_workers=2) as pool:
                        return pool.submit(task).result(timeout=30.0)
            """,
        }, "RL010")
        assert findings == []

    def test_global_publication_is_an_escape(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/runner.py": """\
                from concurrent.futures import ProcessPoolExecutor

                _POOL = None

                def get_pool():
                    global _POOL
                    if _POOL is None:
                        _POOL = ProcessPoolExecutor(max_workers=2)
                    return _POOL
            """,
        }, "RL010")
        assert findings == []

    def test_rebind_while_obligated_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/segments.py": """\
                from multiprocessing import shared_memory

                def churn(name):
                    seg = shared_memory.SharedMemory(
                        name=name, create=True, size=8)
                    seg = shared_memory.SharedMemory(
                        name=name + "b", create=True, size=8)
                    seg.close()
                    seg.unlink()
            """,
        }, "RL010")
        assert len(findings) == 1


# ---------------------------------------------------------------- RL011


class TestSharedState:
    DOOR = """\
        import threading

        class Door:
            def __init__(self):
                self._lock = threading.Lock()
                self._counts = {{}}
                self._stop = threading.Event()

            def start(self):
                worker = threading.Thread(target=self._run, daemon=True)
                worker.start()

            def _run(self):
                while not self._stop.is_set():
                    {worker_write}

            def stop(self):
                self._stop.set()

            def stats(self):
                {public_read}
    """

    def test_unlocked_worker_write_and_public_read_fire(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/door.py": self.DOOR.format(
                worker_write='self._counts["x"] = 1',
                public_read="return dict(self._counts)",
            ),
        }, "RL011")
        assert len(findings) == 2
        messages = " | ".join(f.message for f in findings)
        assert "worker-side method _run" in messages
        assert "public method stats" in messages

    def test_locked_accesses_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/door.py": self.DOOR.format(
                worker_write=(
                    "with self._lock:\n"
                    + " " * 24 + "self._counts['x'] = 1"
                ),
                public_read=(
                    "with self._lock:\n"
                    + " " * 20 + "return dict(self._counts)"
                ),
            ),
        }, "RL011")
        assert findings == []

    def test_event_attribute_is_exempt(self, tmp_path):
        # self._stop is a threading.Event — self-synchronizing, so the
        # unlocked set()/is_set() calls above must not fire on it.
        findings = lint_tree(tmp_path, {
            "src/repro/service/door.py": self.DOOR.format(
                worker_write="pass",
                public_read="return None",
            ),
        }, "RL011")
        assert findings == []

    def test_non_worker_class_ignored(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/service/plain.py": """\
                import threading

                class Plain:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._counts = {}

                    def bump(self):
                        self._counts["x"] = 1
            """,
        }, "RL011")
        assert findings == []


# ---------------------------------------------------------------- RL012


class TestCrossProcessErrors:
    def test_computed_super_message_without_reduce_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/errors.py": """\
                class ReproError(Exception):
                    pass

                class BudgetBlown(ReproError):
                    def __init__(self, limit, used):
                        super().__init__(f"{used} > {limit}")
                        self.limit = limit
                        self.used = used
            """,
        }, "RL012")
        assert len(findings) == 1
        assert "__reduce__" in findings[0].message

    def test_reduce_makes_computed_message_safe(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/errors.py": """\
                class ReproError(Exception):
                    pass

                class BudgetBlown(ReproError):
                    def __init__(self, limit, used):
                        super().__init__(f"{used} > {limit}")
                        self.limit = limit
                        self.used = used

                    def __reduce__(self):
                        return (type(self), (self.limit, self.used))
            """,
        }, "RL012")
        assert findings == []

    def test_exact_positional_forwarding_is_safe(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/errors.py": """\
                class ReproError(Exception):
                    pass

                class Cancelled(ReproError):
                    def __init__(self, reason):
                        super().__init__(reason)
                        self.reason = reason
            """,
        }, "RL012")
        assert findings == []

    def test_adhoc_exception_escaping_worker_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/errors.py": """\
                class ReproError(Exception):
                    pass
            """,
            "src/repro/service/workers.py": """\
                from multiprocessing import Process

                class Boom(Exception):
                    pass

                def _worker(inbox):
                    raise Boom("bad cell")

                def start(inbox):
                    proc = Process(target=_worker, args=(inbox,))
                    proc.start()
                    return proc
            """,
        }, "RL012")
        assert len(findings) == 1
        assert "Boom" in findings[0].message
        assert "_worker" in findings[0].message

    def test_caught_in_worker_does_not_escape(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/errors.py": """\
                class ReproError(Exception):
                    pass
            """,
            "src/repro/service/workers.py": """\
                from multiprocessing import Process

                class Boom(Exception):
                    pass

                def _worker(inbox):
                    try:
                        raise Boom("bad cell")
                    except Boom:
                        inbox.put(("error", "bad cell"), timeout=5.0)

                def start(inbox):
                    proc = Process(target=_worker, args=(inbox,))
                    proc.start()
                    return proc
            """,
        }, "RL012")
        assert findings == []

    def test_taxonomy_exception_may_escape_worker(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/errors.py": """\
                class ReproError(Exception):
                    pass

                class WorkerFault(ReproError):
                    def __init__(self, index):
                        super().__init__(index)
                        self.index = index
            """,
            "src/repro/service/workers.py": """\
                from multiprocessing import Process

                from repro.errors import WorkerFault

                def _worker(index):
                    raise WorkerFault(index)

                def start(index):
                    proc = Process(target=_worker, args=(index,))
                    proc.start()
                    return proc
            """,
        }, "RL012")
        assert findings == []

    def test_escape_through_helper_call_fires(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "src/repro/errors.py": """\
                class ReproError(Exception):
                    pass
            """,
            "src/repro/service/workers.py": """\
                from multiprocessing import Process

                class Boom(Exception):
                    pass

                def _cost_cell(cell):
                    if cell is None:
                        raise Boom("empty")
                    return cell

                def _worker(inbox):
                    _cost_cell(inbox.get(timeout=5.0))

                def start(inbox):
                    proc = Process(target=_worker, args=(inbox,))
                    proc.start()
                    return proc
            """,
        }, "RL012")
        assert len(findings) == 1
        assert "Boom" in findings[0].message


# ------------------------------------------------- negative sweep (RL009-12)


class TestConcurrencyNegativeSweep:
    """Property-style false-positive guard for the dataflow checkers.

    Generates structurally varied *correct* modules — consistently
    ordered locks, resources cleaned through every supported pattern,
    locked shared state, taxonomy-safe worker errors — and asserts all
    four checkers stay silent on every permutation.
    """

    CLEANUP_PATTERNS = [
        # try/finally
        """\
            def use_{i}(name, fill):
                seg = shared_memory.SharedMemory(
                    name=name, create=True, size=8)
                try:
                    fill(seg)
                finally:
                    seg.close()
                    seg.unlink()
        """,
        # straight-line cleanup
        """\
            def use_{i}(name):
                seg = shared_memory.SharedMemory(
                    name=name, create=True, size=8)
                seg.close()
                seg.unlink()
        """,
        # ownership handoff via return
        """\
            def use_{i}(name):
                seg = shared_memory.SharedMemory(
                    name=name, create=True, size=8)
                return seg
        """,
        # ownership handoff via call argument
        """\
            def use_{i}(name, registry):
                seg = shared_memory.SharedMemory(
                    name=name, create=True, size=8)
                registry.adopt(seg)
        """,
        # view released before close, then full cleanup
        """\
            def use_{i}(name):
                seg = shared_memory.SharedMemory(
                    name=name, create=True, size=8)
                view = memoryview(seg.buf)
                view.release()
                seg.close()
                seg.unlink()
        """,
    ]

    @pytest.mark.parametrize("ordering", [
        ("alpha", "beta", "gamma"),
        ("gamma", "alpha", "beta"),
        ("beta", "gamma", "alpha"),
    ])
    def test_consistent_lock_orderings_stay_clean(self, tmp_path, ordering):
        # Every function nests the same global order (possibly skipping
        # locks), which can never produce a cycle.
        first, second, third = ordering
        decls = "\n".join(
            f"{name.upper()} = threading.Lock()" for name in ordering
        )
        chains = []
        order = sorted(ordering)
        for i, chain in enumerate((order, order[:2], order[1:], order[::2])):
            body = "pass"
            for name in reversed(chain):
                body = f"with {name.upper()}:\n" + textwrap.indent(
                    body, "    ")
            chains.append(
                f"def chain_{i}():\n" + textwrap.indent(body, "    "))
        source = "import threading\n\n" + decls + "\n\n" + "\n\n".join(chains)
        findings = lint_tree(
            tmp_path, {"src/repro/service/ordered.py": source}, "RL009")
        assert findings == [], [f.render() for f in findings]

    @pytest.mark.parametrize("index", range(len(CLEANUP_PATTERNS)))
    def test_correctly_released_resources_stay_clean(self, tmp_path, index):
        pattern = textwrap.dedent(self.CLEANUP_PATTERNS[index]).format(i=index)
        source = "from multiprocessing import shared_memory\n\n" + pattern
        findings = lint_tree(
            tmp_path, {"src/repro/service/segments.py": source}, "RL010")
        assert findings == [], [f.render() for f in findings]

    def test_all_checkers_silent_on_correct_concurrent_module(self, tmp_path):
        files = {
            "src/repro/errors.py": """\
                class ReproError(Exception):
                    pass

                class WorkerFault(ReproError):
                    def __init__(self, index):
                        super().__init__(index)
                        self.index = index
            """,
            "src/repro/service/correct.py": """\
                import threading

                REGISTRY_LOCK = threading.Lock()

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._counts = {}
                        self._stop = threading.Event()

                    def start(self):
                        worker = threading.Thread(
                            target=self._drain, daemon=True)
                        worker.start()

                    def _drain(self):
                        while not self._stop.is_set():
                            with self._lock:
                                self._counts["tick"] = 1

                    def stats(self):
                        with self._lock:
                            return dict(self._counts)

                    def stop(self):
                        self._stop.set()
            """,
            "src/repro/service/workers.py": """\
                from multiprocessing import Process, shared_memory

                from repro.errors import WorkerFault

                def _worker(index, inbox):
                    cell = inbox.get(timeout=5.0)
                    if cell is None:
                        raise WorkerFault(index)

                def start(index, inbox):
                    flag = shared_memory.SharedMemory(
                        name=f"flag-{index}", create=True, size=1)
                    try:
                        proc = Process(target=_worker, args=(index, inbox))
                        proc.start()
                        return proc
                    finally:
                        flag.close()
                        flag.unlink()
            """,
        }
        src = make_tree(tmp_path, files)
        new = [c for c in all_checkers()
               if c.code in ("RL009", "RL010", "RL011", "RL012")]
        findings = run_checkers(load_project([src]), new)
        assert findings == [], [f.render() for f in findings]
