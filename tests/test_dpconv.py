"""DPconv kernel plumbing.

Bit-identity of the ``dpconv`` kernel against the other kernels under
C_out cost lives in ``tests/test_kernel_equivalence.py``; this module
covers everything around it:

* the cardinality-layer quantization the convolution buckets by;
* the kernel registry as single source of truth — ``kernel_name``
  errors, ``sdp-bench --list-kernels`` and ``docs/api.md`` all agree
  with :data:`repro.core.kernel.KERNELS`;
* ``technique="DPconv"`` through the registry and the facade, and its
  rejection of non-C_out cost models.
"""

from __future__ import annotations

import os

import pytest

import repro
from repro.core.base import SearchBudget, SearchCounters
from repro.core.dpconv import DPconvPlanSpace, cardinality_layer
from repro.core.kernel import KERNELS, kernel_name, make_planspace
from repro.core.registry import available_techniques, make_optimizer
from repro.cost import COUT_COST_MODEL, DEFAULT_COST_MODEL
from repro.errors import DPconvUnsupportedError, OptimizationError
from repro.util.timer import Timer
from tests.conftest import make_star_query

BUDGET = SearchBudget(max_seconds=60.0)


def serialize(plan) -> tuple:
    """Full recursive identity of a plan record: shape, methods, numbers."""
    children = tuple(
        serialize(child) for child in (plan.left, plan.right) if child is not None
    )
    return (
        plan.method,
        plan.mask,
        plan.rel,
        plan.eclass,
        plan.order,
        plan.rows,
        plan.cost,
        children,
    )


class TestCardinalityLayer:
    def test_small_cardinalities(self):
        assert cardinality_layer(0.0) == 0
        assert cardinality_layer(1.0) == 1
        assert cardinality_layer(3.0) == 2

    def test_layers_quantize_by_powers_of_two(self):
        # Doubling 1 + rows advances the layer by exactly one.
        for rows in (1.0, 10.0, 1000.0, 1e6):
            assert (
                cardinality_layer(2.0 * (1.0 + rows) - 1.0)
                == cardinality_layer(rows) + 1
            )

    def test_monotonic(self):
        layers = [cardinality_layer(float(r)) for r in range(0, 5000, 7)]
        assert layers == sorted(layers)


class TestKernelRegistry:
    def test_registry_names(self):
        assert tuple(KERNELS) == ("fast", "reference", "dpconv")
        for name, description in KERNELS.items():
            assert kernel_name(name) == name
            assert description  # every kernel carries a one-line description

    # "parallel" named a kernel that has since been removed: a leftover
    # REPRO_KERNEL=parallel must fail with the same typed error.
    @pytest.mark.parametrize("name", ("bogus", "parallel"))
    def test_unknown_kernel_error_lists_registry(self, name):
        with pytest.raises(OptimizationError) as excinfo:
            kernel_name(name)
        for name in KERNELS:
            assert name in str(excinfo.value)

    def test_docs_render_the_same_registry(self):
        api_md = os.path.join(
            os.path.dirname(__file__), "..", "docs", "api.md"
        )
        with open(api_md, encoding="utf-8") as handle:
            text = handle.read()
        for name in KERNELS:
            assert f"`{name}`" in text, f"kernel {name!r} missing from docs/api.md"

    def test_list_kernels_cli(self, capsys):
        from repro.bench.cli import main

        assert main(["--list-kernels"]) == 0
        out = capsys.readouterr().out
        for name in KERNELS:
            assert out.startswith(name) or f"\n{name}" in out


class TestDPconvTechnique:
    def test_advertised_and_constructible(self):
        assert "DPconv" in available_techniques()
        optimizer = make_optimizer("DPconv")
        # C_out is the only regime the kernel is exact in, so it is the
        # technique's default cost model.
        assert optimizer.cost_model is COUT_COST_MODEL

    def test_facade_technique_matches_dp_under_cout(
        self, small_schema, small_stats
    ):
        query = make_star_query(small_schema, 7)
        conv = repro.optimize(query, stats=small_stats, technique="dpconv")
        witness = make_optimizer(
            "DP", budget=BUDGET, cost_model=COUT_COST_MODEL
        ).optimize(query, small_stats)
        assert conv.cost == witness.cost
        assert serialize(conv.plan) == serialize(witness.plan)

    def test_non_cout_model_rejected_at_search_time(
        self, small_schema, small_stats
    ):
        query = make_star_query(small_schema, 5)
        optimizer = make_optimizer("DPconv", cost_model=DEFAULT_COST_MODEL)
        with pytest.raises(DPconvUnsupportedError):
            optimizer.optimize(query, small_stats)

    def test_make_planspace_builds_dpconv_space(self, small_schema, small_stats):
        query = make_star_query(small_schema, 5)
        counters = SearchCounters(BUDGET, Timer().start())
        space = make_planspace(
            query, small_stats, COUT_COST_MODEL, counters, kernel="dpconv"
        )
        assert isinstance(space, DPconvPlanSpace)
