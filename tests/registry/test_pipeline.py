"""Tests for the PlanRequest → PlanResult pipeline."""

import pytest

from repro.core.pipeline import (
    PlanRequest,
    PlanResult,
    plan_request,
    supported_kwargs,
)
from repro.core.session import default_session


class TestSupportedKwargs:
    def test_filters_unknown_parameters(self):
        def factory(imbalance_target=0.01):
            return imbalance_target

        params = {"imbalance_target": 0.5, "other": 1}
        assert supported_kwargs(factory, params) == {"imbalance_target": 0.5}

    def test_var_keyword_receives_everything(self):
        def factory(**kwargs):
            return kwargs

        params = {"a": 1, "b": 2}
        assert supported_kwargs(factory, params) == params

    def test_no_parameters(self):
        def factory():
            return None

        assert supported_kwargs(factory, {"a": 1}) == {}


class TestSessionPlan:
    def test_single_request(self, heterogeneous_platform):
        result = default_session().plan(
            PlanRequest(platform=heterogeneous_platform, N=1000.0, strategy="het")
        )
        assert isinstance(result, PlanResult)
        assert result.strategy == "het"
        assert result.comm_volume > 0
        assert result.ratio_to_lower_bound >= 1.0 - 1e-9
        assert result.elapsed_s >= 0.0
        # the default session may have planned this exact instance for
        # an earlier test, in which case the plan is served from cache
        summary = result.summary()
        assert "planned in" in summary or "served from cache" in summary

    def test_params_routed_to_accepting_strategy(self, heterogeneous_platform):
        result = default_session().plan(
            PlanRequest(
                platform=heterogeneous_platform,
                N=1000.0,
                strategy="hom/k",
                params={"imbalance_target": 0.5},
            )
        )
        converged = result.plan.detail.get("converged", True)
        assert result.imbalance <= 0.5 or not converged

    def test_unknown_strategy_raises_with_available(
        self, heterogeneous_platform
    ):
        with pytest.raises(ValueError, match="unknown strategy 'nope'"):
            default_session().plan(
                PlanRequest(
                    platform=heterogeneous_platform, N=100.0, strategy="nope"
                )
            )

    def test_with_strategy_rebinds(self, heterogeneous_platform):
        req = PlanRequest(platform=heterogeneous_platform, N=100.0)
        assert req.with_strategy("hom").strategy == "hom"
        assert req.with_strategy("hom").N == req.N


class TestSessionSweep:
    def test_sweeps_every_registered_strategy(self, heterogeneous_platform):
        sweep = default_session().sweep(heterogeneous_platform, 1000.0)
        assert set(sweep.results) == {"hom", "hom/k", "het"}

    def test_best_is_lowest_comm_volume(self, heterogeneous_platform):
        sweep = default_session().sweep(heterogeneous_platform, 1000.0)
        best = sweep.best
        assert all(
            best.comm_volume <= r.comm_volume for r in sweep.results.values()
        )
        # on a heterogeneous platform het wins (the paper's point)
        assert best.strategy == "het"

    def test_subset_selection(self, heterogeneous_platform):
        sweep = default_session().sweep(
            heterogeneous_platform, 1000.0, strategies=("hom", "het")
        )
        assert set(sweep.results) == {"hom", "het"}

    def test_render_mentions_every_strategy(self, heterogeneous_platform):
        text = default_session().sweep(heterogeneous_platform, 500.0).render()
        for name in ("hom", "hom/k", "het"):
            assert name in text
        assert "ratio to LB" in text

    def test_empty_sweep_best_raises_cleanly(self, heterogeneous_platform):
        sweep = default_session().sweep(
            heterogeneous_platform, 100.0, strategies=()
        )
        with pytest.raises(ValueError, match="empty sweep"):
            sweep.best

    def test_ratios_match_plans(self, heterogeneous_platform):
        sweep = default_session().sweep(heterogeneous_platform, 1000.0)
        for name, res in sweep.results.items():
            assert sweep.ratios[name] == res.plan.ratio_to_lower_bound

    def test_iteration_order_sorted(self, heterogeneous_platform):
        """Sweeps iterate sorted, so every backend renders one table."""
        sweep = default_session().sweep(
            heterogeneous_platform, 1000.0, strategies=("hom/k", "het", "hom")
        )
        assert list(sweep.results) == ["het", "hom", "hom/k"]


class TestShimsRemoved:
    """The 1.x ``execute`` / ``execute_all`` shims are gone in 2.0."""

    def test_pipeline_no_longer_exports_shims(self):
        import repro.core.pipeline as pipeline

        assert not hasattr(pipeline, "execute")
        assert not hasattr(pipeline, "execute_all")

    def test_package_no_longer_exports_shims(self):
        import repro

        assert not hasattr(repro, "execute")
        assert not hasattr(repro, "execute_all")
        assert "execute" not in repro.__all__
        assert "execute_all" not in repro.__all__


class TestRawPlanner:
    def test_plan_request_never_caches(self, heterogeneous_platform):
        request = PlanRequest(platform=heterogeneous_platform, N=777.0)
        first = plan_request(request)
        second = plan_request(request)
        assert not first.cached and not second.cached
        assert first.comm_volume == second.comm_volume
