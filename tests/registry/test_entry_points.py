"""Entry-point discovery: third-party plugins via ``repro.plugins``."""

import importlib.metadata
import types

import pytest

from repro.registry import ENTRY_POINT_GROUP, Registry


class _StubEntryPoint:
    """Minimal stand-in for ``importlib.metadata.EntryPoint``."""

    def __init__(self, name, payload):
        self.name = name
        self.group = ENTRY_POINT_GROUP
        self._payload = payload
        self.load_count = 0

    def load(self):
        self.load_count += 1
        return self._payload


@pytest.fixture
def stub_entry_points(monkeypatch):
    """Patch importlib.metadata.entry_points to serve a controllable list."""
    served = []

    def fake_entry_points(*, group=None):
        assert group == ENTRY_POINT_GROUP
        return list(served)

    monkeypatch.setattr(
        importlib.metadata, "entry_points", fake_entry_points
    )
    return served


class TestEntryPointDiscovery:
    def test_callable_plugin_registers_components(self, stub_entry_points):
        def install(registry):
            registry.add("strategy", "ep-strategy", lambda: "from plugin")
            registry.add("partitioner", "ep-partitioner", lambda: "cut")

        stub_entry_points.append(_StubEntryPoint("my-plugin", install))
        reg = Registry()
        reg.enable_entry_point_discovery()
        assert "ep-strategy" in reg.available("strategy")
        assert "ep-partitioner" in reg.available("partitioner")
        assert reg.create("strategy", "ep-strategy") == "from plugin"

    def test_discovery_is_lazy_and_runs_once(self, stub_entry_points):
        ep = _StubEntryPoint("lazy-plugin", lambda registry: None)
        stub_entry_points.append(ep)
        reg = Registry()
        reg.enable_entry_point_discovery()
        # enabling alone must not load anything
        assert ep.load_count == 0
        reg.available("strategy")
        assert ep.load_count == 1
        # further queries (any kind) do not reload
        reg.available("partitioner")
        reg.available("strategy")
        assert ep.load_count == 1

    def test_module_entry_point_loads_by_import(self, stub_entry_points):
        # a module-valued entry point registers via its import-time
        # decorators; loading it is the whole job
        module = types.ModuleType("fake_repro_plugin")
        stub_entry_points.append(_StubEntryPoint("mod-plugin", module))
        reg = Registry()
        reg.enable_entry_point_discovery()
        # no error, nothing registered (the stub module registers nothing)
        assert reg.available("strategy") == ()

    def test_broken_plugin_does_not_poison_loaded_siblings(
        self, stub_entry_points
    ):
        """A failing entry point re-raises its own error on retry; the
        plugins that already registered are not re-invoked (which would
        surface as a spurious DuplicateComponentError)."""

        def install_good(registry):
            registry.add("strategy", "good-ep", lambda: "ok")

        class _Broken:
            name = "z-broken"  # sorts after the good one
            group = ENTRY_POINT_GROUP

            def load(self):
                raise ImportError("plugin is broken")

        stub_entry_points.append(_StubEntryPoint("a-good", install_good))
        stub_entry_points.append(_Broken())
        reg = Registry()
        reg.enable_entry_point_discovery()
        for _ in range(2):  # the second query must raise the same error
            with pytest.raises(ImportError, match="plugin is broken"):
                reg.available("strategy")
        # the good plugin registered exactly once despite the retries
        assert reg._components["strategy"].keys() == {"good-ep"}

    def test_without_discovery_nothing_is_scanned(self, stub_entry_points):
        ep = _StubEntryPoint("unused", lambda registry: None)
        stub_entry_points.append(ep)
        reg = Registry()  # discovery NOT enabled
        reg.available("strategy")
        assert ep.load_count == 0

    def test_plugin_registered_strategy_is_planable(
        self, stub_entry_points, heterogeneous_platform
    ):
        """An entry-point strategy flows through a session end to end."""
        from repro.blocks.metrics import StrategyResult
        from repro.core.session import PlannerSession
        from repro.registry import default_registry

        class EPStrategy:
            def plan(self, platform, N):
                import numpy as np

                return StrategyResult(
                    strategy="ep-planable",
                    N=float(N),
                    speeds=platform.speeds,
                    comm_volume=2.0 * N * platform.size,
                    finish_times=np.ones(platform.size),
                    imbalance=0.0,
                )

        def install(registry):
            registry.add("strategy", "ep-planable", EPStrategy)

        stub_entry_points.append(_StubEntryPoint("planable", install))
        # simulate a fresh process: force the default registry to rescan
        default_registry._entry_points_loaded = False
        try:
            from repro.core.pipeline import PlanRequest

            with PlannerSession() as session:
                result = session.plan(
                    PlanRequest(
                        platform=heterogeneous_platform,
                        N=100.0,
                        strategy="ep-planable",
                    )
                )
            assert result.comm_volume == 2.0 * 100.0 * heterogeneous_platform.size
        finally:
            default_registry.unregister("strategy", "ep-planable")
            default_registry._entry_points_loaded = True
