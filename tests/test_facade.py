"""The ``repro.optimize()`` facade and the shared result protocol."""

from __future__ import annotations

import pytest

import repro
import repro.obs as obs
from repro.core.base import SearchBudget
from repro.errors import OptimizationBudgetExceeded, OptimizationError
from tests.conftest import make_star_query


@pytest.fixture(autouse=True)
def _pristine_obs():
    obs.reset()
    yield
    obs.reset()


class TestTechniqueResolution:
    @pytest.mark.parametrize(
        ("spelled", "resolved"),
        [
            ("sdp", "SDP"),
            ("SDP", "SDP"),
            ("Sdp", "SDP"),
            ("dp", "DP"),
            ("idp(7)", "IDP(7)"),
            ("IDP(4)", "IDP(4)"),
            ("sdp/global", "SDP/Global"),
            ("goo", "GOO"),
            ("geqo", "GEQO"),
            (" sdp ", "SDP"),
        ],
    )
    def test_case_insensitive(self, spelled, resolved):
        assert repro.resolve_technique(spelled) == resolved

    def test_unknown_technique_lists_known(self):
        with pytest.raises(OptimizationError, match="known:"):
            repro.resolve_technique("postgres")

    @pytest.mark.parametrize(
        ("spelled", "resolved"),
        [("idp(5)", "IDP(5)"), ("IDP(2)", "IDP(2)"), ("idp2(5)", "IDP2(5)"),
         ("Idp(05)", "IDP(5)"), ("IDP2(12)", "IDP2(12)")],
    )
    def test_any_idp_block_size(self, spelled, resolved):
        assert repro.resolve_technique(spelled) == resolved
        # The registry builds what the facade resolves, from either spelling.
        assert repro.make_optimizer(spelled).name == resolved

    @pytest.mark.parametrize("bad", ["IDP(1)", "idp(0)", "IDP2(1)", "IDP()", "idp(x)"])
    def test_idp_block_size_below_two_rejected(self, bad):
        with pytest.raises(OptimizationError, match="unknown technique"):
            repro.resolve_technique(bad)
        with pytest.raises(OptimizationError, match="unknown technique"):
            repro.make_optimizer(bad)

    def test_unlisted_idp_block_size_optimizes(self, small_schema, small_stats):
        query = make_star_query(small_schema, 7)
        served = repro.optimize(query, stats=small_stats, technique="idp(5)")
        direct = repro.make_optimizer("IDP(5)").optimize(query, small_stats)
        assert served.technique == "IDP(5)"
        assert served.cost == direct.cost
        assert served.plans_costed == direct.plans_costed

    @pytest.mark.parametrize("bad", [None, 7])
    def test_wrong_type_technique_rejected(self, bad, small_schema, small_stats):
        sql = repro.render_sql(make_star_query(small_schema, 4))
        with pytest.raises(OptimizationError, match="technique must be"):
            repro.optimize(
                sql, schema=small_schema, stats=small_stats, technique=bad
            )
        with pytest.raises(OptimizationError, match="technique must be"):
            repro.make_optimizer(bad)


class TestFacade:
    def test_default_matches_direct_sdp(self, small_schema, small_stats):
        query = make_star_query(small_schema, 6)
        facade = repro.optimize(query, stats=small_stats)
        direct = repro.SDPOptimizer().optimize(query, small_stats)
        assert facade.technique == "SDP"
        assert facade.cost == direct.cost
        assert facade.plans_costed == direct.plans_costed
        assert repro.explain(facade.tree(query)) == repro.explain(
            direct.tree(query)
        )

    def test_technique_matches_direct_dp(self, small_schema, small_stats):
        query = make_star_query(small_schema, 6)
        facade = repro.optimize(query, technique="dp", stats=small_stats)
        direct = repro.DynamicProgrammingOptimizer().optimize(
            query, small_stats
        )
        assert facade.cost == direct.cost
        assert facade.plans_costed == direct.plans_costed

    def test_numeric_budget_is_seconds(self, small_schema, small_stats):
        query = make_star_query(small_schema, 6)
        result = repro.optimize(query, stats=small_stats, budget=30.0)
        assert result.plans_costed > 0

    def test_budget_object_passthrough(self, small_schema, small_stats):
        query = make_star_query(small_schema, 8)
        with pytest.raises(OptimizationBudgetExceeded):
            repro.optimize(
                query,
                technique="dp",
                stats=small_stats,
                budget=SearchBudget(max_plans_costed=10),
            )

    @pytest.mark.parametrize("bad", [0, -2.5, float("nan"), True, "fast"])
    def test_invalid_budget_rejected(self, small_schema, small_stats, bad):
        query = make_star_query(small_schema, 5)
        with pytest.raises(OptimizationError):
            repro.optimize(query, stats=small_stats, budget=bad)

    def test_robust_degrades_instead_of_raising(
        self, small_schema, small_stats
    ):
        query = make_star_query(small_schema, 8)
        tight = SearchBudget(max_plans_costed=10)
        result = repro.optimize(
            query, technique="dp", stats=small_stats,
            budget=tight, robust=True,
        )
        assert result.degraded
        assert result.technique.startswith("Robust(")
        assert result.attempts[0].outcome == "budget-exceeded"

    def test_trace_attaches_recording(self, small_schema, small_stats):
        query = make_star_query(small_schema, 6)
        result = repro.optimize(query, stats=small_stats, trace=True)
        assert result.trace is not None
        assert result.trace.find("optimize")
        assert result.trace.find("sdp.level")
        assert "sdp.level" in result.trace.explain()
        assert "Plans costed" in result.trace.profile()
        # Tracing never leaks into steady state.
        assert not obs.enabled()

    def test_untraced_result_has_no_trace(self, small_schema, small_stats):
        query = make_star_query(small_schema, 5)
        result = repro.optimize(query, stats=small_stats)
        assert result.trace is None

    def test_service_routing(self, small_schema, small_stats):
        query = make_star_query(small_schema, 5)
        service = repro.OptimizationService(technique="SDP")
        service.install_statistics(small_stats)
        cold = repro.optimize(query, service=service)
        warm = repro.optimize(query, service=service)
        assert not cold.cache_hit and warm.cache_hit
        assert warm.cost == cold.cost

    def test_service_conflicts_rejected(self, small_schema, small_stats):
        query = make_star_query(small_schema, 5)
        service = repro.OptimizationService(technique="SDP")
        service.install_statistics(small_stats)
        for kwargs in (
            {"robust": True},
            {"budget": 1.0},
            {"cost_model": repro.DEFAULT_COST_MODEL},
        ):
            with pytest.raises(OptimizationError):
                repro.optimize(query, service=service, **kwargs)

    @pytest.mark.parametrize("knob", ({"workers": 2}, {"bound": "dpconv"}))
    def test_removed_search_knobs_rejected(self, knob, small_schema, small_stats):
        query = make_star_query(small_schema, 5)
        with pytest.raises(TypeError):
            repro.optimize(query, stats=small_stats, **knob)
        with pytest.raises(TypeError):
            repro.make_optimizer("SDP", **knob)


class TestSqlFirst:
    def _sql(self, small_schema):
        names = small_schema.relation_names
        return (
            f"SELECT * FROM {names[0]}, {names[1]} "
            f"WHERE {names[0]}.c1 = {names[1]}.c2 "
            f"AND {names[0]}.c3 < 40 ORDER BY {names[1]}.c2"
        )

    def test_sql_text_matches_parsed_query(self, small_schema, small_stats):
        sql = self._sql(small_schema)
        query = repro.parse_sql(small_schema, sql)
        from_sql = repro.optimize(sql, schema=small_schema, stats=small_stats)
        from_query = repro.optimize(query, stats=small_stats)
        assert from_sql.cost == from_query.cost
        assert from_sql.plans_costed == from_query.plans_costed
        assert repr(from_sql.plan) == repr(from_query.plan)

    def test_selection_free_sql_matches_too(self, small_schema, small_stats):
        query = make_star_query(small_schema, 6)
        sql = repro.render_sql(query)
        from_sql = repro.optimize(sql, schema=small_schema, stats=small_stats)
        from_query = repro.optimize(query, stats=small_stats)
        assert from_sql.cost == from_query.cost
        assert from_sql.plans_costed == from_query.plans_costed

    def test_provenance_attached(self, small_schema, small_stats):
        sql = self._sql(small_schema)
        result = repro.optimize(sql, schema=small_schema, stats=small_stats)
        assert result.sql == sql
        assert result.query is not None
        assert result.query.selections and result.query.order_by
        assert repro.explain(result.tree())  # no query argument needed
        from_query = repro.optimize(
            repro.parse_sql(small_schema, sql), stats=small_stats
        )
        assert from_query.sql is None
        assert from_query.query is not None

    def test_provenance_copies_the_search_result(self, small_schema, small_stats):
        from dataclasses import fields

        from repro.core.base import OptimizerResult

        sql = self._sql(small_schema)
        result = repro.optimize(sql, schema=small_schema, stats=small_stats)
        direct = repro.make_optimizer("SDP").optimize(result.query, small_stats)
        assert type(result) is OptimizerResult
        assert repr(result.plan) == repr(direct.plan)
        for field in fields(OptimizerResult):
            if field.name not in ("plan", "elapsed_seconds", "query", "sql"):
                assert getattr(result, field.name) == getattr(direct, field.name)

    def test_text_without_parse_target_rejected(self, small_schema):
        with pytest.raises(OptimizationError, match="parse target"):
            repro.optimize(self._sql(small_schema))

    def test_schema_with_query_rejected(self, small_schema, small_stats):
        query = make_star_query(small_schema, 5)
        with pytest.raises(OptimizationError, match="SQL text"):
            repro.optimize(query, schema=small_schema, stats=small_stats)

    @pytest.mark.parametrize("bad", [123, None, b"SELECT"])
    def test_wrong_type_query_rejected(self, bad, small_stats):
        with pytest.raises(OptimizationError, match="Query or SQL text"):
            repro.optimize(bad, stats=small_stats)

    def test_malformed_sql_raises_query_error(self, small_schema):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            repro.optimize("SELECT FROM WHERE", schema=small_schema)

    def test_text_through_service(self, small_schema):
        sql = self._sql(small_schema)
        service = repro.OptimizationService(technique="SDP")
        service.analyze(small_schema)
        cold = repro.optimize(sql, service=service)
        warm = repro.optimize(sql, service=service)
        assert not cold.cache_hit and warm.cache_hit
        assert cold.sql == warm.sql == sql
        assert warm.query is not None

    def test_result_without_provenance_needs_query_for_tree(
        self, small_schema, small_stats
    ):
        query = make_star_query(small_schema, 5)
        result = repro.SDPOptimizer().optimize(query, small_stats)
        if result.query is None:
            with pytest.raises(OptimizationError):
                result.tree()
        else:
            assert result.tree() is not None


class TestPlanResultProtocol:
    def test_every_path_satisfies_protocol(self, small_schema, small_stats):
        query = make_star_query(small_schema, 6)
        service = repro.OptimizationService(technique="SDP")
        service.install_statistics(small_stats)
        results = [
            repro.optimize(query, stats=small_stats),
            repro.optimize(query, stats=small_stats, robust=True),
            repro.optimize(query, service=service),
            repro.SDPOptimizer().optimize(query, small_stats),
            repro.RobustOptimizer().optimize(query, small_stats),
        ]
        for result in results:
            assert isinstance(result, repro.PlanResult)
            assert isinstance(result.degraded, bool)
            assert result.plans_costed >= 0
            assert result.cost > 0
            assert result.trace is None

    def test_protocol_rejects_strangers(self):
        assert not isinstance(object(), repro.PlanResult)

    def test_robust_result_single_degraded_field(self):
        from dataclasses import fields

        from repro.robust import RobustResult

        names = [f.name for f in fields(RobustResult)]
        assert names.count("degraded") == 1
