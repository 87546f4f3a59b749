"""Tests for repro.registry — the plugin registry subsystem."""

import pytest

from repro import registry
from repro.registry import (
    KINDS,
    DuplicateComponentError,
    Registry,
    UnknownComponentError,
    UnknownKindError,
)


class TestRegistryCore:
    """Behaviour of a fresh, empty Registry instance."""

    def test_registration_round_trip(self):
        reg = Registry()

        @reg.register("strategy", "dummy", summary="a test strategy")
        class Dummy:
            def plan(self, platform, N):
                return "planned"

        assert reg.available("strategy") == ("dummy",)
        assert reg.get("strategy", "dummy") is Dummy
        assert isinstance(reg.create("strategy", "dummy"), Dummy)
        comp = reg.component("strategy", "dummy")
        assert comp.summary == "a test strategy"
        assert "Dummy" in comp.origin

    def test_function_components_are_called_by_create(self):
        reg = Registry()
        reg.add("partitioner", "double", lambda x: 2 * x)
        assert reg.create("partitioner", "double", 21) == 42

    def test_duplicate_name_rejected(self):
        reg = Registry()
        reg.add("cost_model", "dup", lambda: 1)
        with pytest.raises(DuplicateComponentError, match="already registered"):
            reg.add("cost_model", "dup", lambda: 2)
        # the original registration survives the failed attempt
        assert reg.create("cost_model", "dup") == 1

    def test_duplicate_allowed_with_replace(self):
        reg = Registry()
        reg.add("cost_model", "dup", lambda: 1)
        reg.add("cost_model", "dup", lambda: 2, replace=True)
        assert reg.create("cost_model", "dup") == 2

    def test_unknown_name_error_lists_available(self):
        reg = Registry()
        reg.add("strategy", "alpha", lambda: None)
        reg.add("strategy", "beta", lambda: None)
        with pytest.raises(
            UnknownComponentError, match=r"unknown strategy 'gamma'"
        ) as exc:
            reg.get("strategy", "gamma")
        # the message names every available component
        assert "alpha" in str(exc.value) and "beta" in str(exc.value)

    def test_unknown_component_error_is_a_value_error(self):
        reg = Registry()
        with pytest.raises(ValueError):
            reg.get("strategy", "nope")

    def test_unknown_kind_rejected(self):
        reg = Registry()
        with pytest.raises(UnknownKindError, match="unknown component kind"):
            reg.available("flavour")

    def test_add_kind_extends_namespace(self):
        reg = Registry(kinds=("strategy",))
        reg.add_kind("simulation")
        reg.add("simulation", "local", lambda: "ok")
        assert reg.create("simulation", "local") == "ok"
        assert reg.kinds() == ("strategy", "simulation")

    def test_unregister(self):
        reg = Registry()
        reg.add("strategy", "gone", lambda: None)
        reg.unregister("strategy", "gone")
        assert ("strategy", "gone") not in reg
        assert reg.available("strategy") == ()

    def test_contains(self):
        reg = Registry()
        reg.add("strategy", "x", lambda: None)
        assert ("strategy", "x") in reg
        assert ("strategy", "y") not in reg
        assert ("flavour", "x") not in reg

    def test_summary_defaults_to_docstring_first_line(self):
        reg = Registry()

        def factory():
            """First line.

            Not this one.
            """

        reg.add("simulation", "doc", factory)
        assert reg.component("simulation", "doc").summary == "First line."

    def test_lazy_provider_modules_load_on_first_query(self):
        import sys

        from tests.registry import _hooks

        sys.modules.pop("tests.registry._lazy_provider", None)
        reg = Registry()
        _hooks.TARGET = reg
        _hooks.IMPORT_COUNT = 0
        try:
            reg.register_provider_modules(
                "strategy", ("tests.registry._lazy_provider",)
            )
            # declaring the provider must not import it
            assert _hooks.IMPORT_COUNT == 0
            # first query triggers the import and finds the component
            assert reg.available("strategy") == ("lazy-strategy",)
            assert _hooks.IMPORT_COUNT == 1
            assert reg.create("strategy", "lazy-strategy") == "loaded lazily"
            # subsequent queries do not re-import
            reg.available("strategy")
            assert _hooks.IMPORT_COUNT == 1
        finally:
            _hooks.TARGET = None
            sys.modules.pop("tests.registry._lazy_provider", None)

    def test_provider_declared_during_load_is_imported(self):
        """A provider that declares another provider mid-load is honored."""
        import sys

        from tests.registry import _hooks

        sys.modules.pop("tests.registry._lazy_provider", None)
        reg = Registry()
        _hooks.IMPORT_COUNT = 0

        class ChainingTarget:
            @staticmethod
            def add(kind, name, factory):
                reg.add(kind, name, factory)
                # simulate a provider declaring a follow-on provider
                reg.register_provider_modules(
                    "strategy", ("tests.registry._chained_provider",)
                )

        _hooks.TARGET = ChainingTarget
        try:
            reg.register_provider_modules(
                "strategy", ("tests.registry._lazy_provider",)
            )
            names = reg.available("strategy")
            assert "lazy-strategy" in names
            assert "chained-strategy" in names
        finally:
            _hooks.TARGET = None
            sys.modules.pop("tests.registry._lazy_provider", None)
            sys.modules.pop("tests.registry._chained_provider", None)

    def test_concurrent_first_query_sees_full_catalogue(self):
        """Worker threads racing the first lazy load must not observe a
        partially populated catalogue (a plan server's front door
        resolves components from one handler thread per connection)."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from tests.registry import _hooks

        sys.modules.pop("tests.registry._slow_provider", None)
        reg = Registry()
        _hooks.TARGET = reg
        _hooks.IMPORT_COUNT = 0
        try:
            reg.register_provider_modules(
                "strategy", ("tests.registry._slow_provider",)
            )
            with ThreadPoolExecutor(max_workers=8) as pool:
                catalogues = list(
                    pool.map(lambda _: reg.available("strategy"), range(8))
                )
            assert all(c == ("slow-strategy",) for c in catalogues)
            assert _hooks.IMPORT_COUNT == 1
        finally:
            _hooks.TARGET = None
            sys.modules.pop("tests.registry._slow_provider", None)

    def test_failed_provider_import_raises_on_every_query(self):
        """A broken provider must not leave a silently empty catalogue."""
        reg = Registry()
        reg.register_provider_modules("strategy", ("no_such_module_xyz",))
        for _ in range(2):  # second query must raise too, not return ()
            with pytest.raises(ModuleNotFoundError):
                reg.available("strategy")


class TestDefaultRegistry:
    """The process-wide registry holding the paper's built-ins."""

    def test_all_kinds_present(self):
        # exactly the paper's five component families
        assert registry.kinds() == KINDS == (
            "cost_model", "strategy", "partitioner", "dlt_solver",
            "simulation",
        )

    def test_builtin_strategies(self):
        assert set(registry.available("strategy")) == {"hom", "hom/k", "het"}

    def test_builtin_cost_models(self):
        names = set(registry.available("cost_model"))
        assert {"linear", "affine", "power-law", "n-log-n"} <= names

    def test_builtin_partitioners(self):
        names = set(registry.available("partitioner"))
        assert {"peri-sum", "peri-max", "recursive", "strip", "grid"} <= names

    def test_builtin_dlt_solvers(self):
        names = set(registry.available("dlt_solver"))
        assert {
            "linear-parallel",
            "linear-one-port",
            "equal-split",
            "nonlinear-parallel",
            "nonlinear-one-port",
            "multi-round",
            "tree",
        } <= names

    def test_builtin_backends(self):
        # where misses are planned (serial or remote:HOST:PORT) and the
        # plan store are session specs, not registered components
        for kind in ("backend", "cache"):
            with pytest.raises(UnknownKindError):
                registry.available(kind)

    def test_builtin_simulations(self):
        names = set(registry.available("simulation"))
        assert {
            "master-worker",
            "demand-driven",
            "mapreduce-map-phase",
        } <= names

    def test_create_cost_model(self):
        model = registry.create("cost_model", "power-law", alpha=3.0)
        assert model.work(2.0) == 8.0

    def test_create_strategy_plans(self, heterogeneous_platform):
        strategy = registry.create("strategy", "het")
        plan = strategy.plan(heterogeneous_platform, 1000.0)
        assert plan.comm_volume > 0

    def test_create_partitioner(self):
        part = registry.create("partitioner", "peri-sum", [0.25, 0.25, 0.5])
        assert part.sum_half_perimeters > 0

    def test_create_dlt_solver(self, heterogeneous_platform):
        alloc = registry.create(
            "dlt_solver", "linear-parallel", heterogeneous_platform, 100.0
        )
        assert alloc.total == pytest.approx(100.0)

    def test_every_component_has_origin_and_factory(self):
        for kind in registry.kinds():
            for comp in registry.describe(kind):
                assert callable(comp.factory), (kind, comp.name)
                assert comp.origin, (kind, comp.name)

    def test_plugin_registration_reaches_facade(self, heterogeneous_platform):
        """A plugin registered at runtime is planable via the façade."""
        from repro.blocks.metrics import StrategyResult
        from repro.core.strategies import compare_strategies, plan_outer_product

        @registry.register(
            "strategy", "test-plugin", summary="registered by a test"
        )
        class PluginStrategy:
            def plan(self, platform, N):
                import numpy as np

                finish = np.ones(platform.size)
                return StrategyResult(
                    strategy="test-plugin",
                    N=float(N),
                    speeds=platform.speeds,
                    comm_volume=2.0 * N * platform.size,
                    finish_times=finish,
                    imbalance=0.0,
                )

        try:
            plan = plan_outer_product(
                heterogeneous_platform, 100.0, strategy="test-plugin"
            )
            assert plan.strategy == "test-plugin"
            cmp = compare_strategies(heterogeneous_platform, 100.0)
            assert "test-plugin" in cmp.plans
        finally:
            registry.unregister("strategy", "test-plugin")
        assert "test-plugin" not in registry.available("strategy")
