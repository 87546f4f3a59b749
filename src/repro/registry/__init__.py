"""repro.registry — the library's plugin registry.

Every comparable component family of the paper — **cost models**
(§2), **outer product strategies** (§4), **partitioners** (§4.1.2),
**DLT solvers** (§2–3) and **simulations** — registers here under a
short name, and all dispatch (the
:func:`repro.core.plan_outer_product` façade, planner sessions, the
experiment sweeps, the CLI) goes through these catalogues instead of
hard-coded ``if/elif`` chains.

Usage::

    from repro import registry

    registry.available("strategy")          # ('het', 'hom', 'hom/k')
    registry.create("strategy", "het")      # HeterogeneousBlocksStrategy()
    registry.create("cost_model", "power-law", alpha=3.0)
    registry.get("partitioner", "peri-sum") # the function itself

Registering a new component (anywhere — plugins included)::

    from repro import registry

    @registry.register("strategy", "my-strategy")
    class MyStrategy:
        \"\"\"One-line summary shown by `repro list strategy`.\"\"\"
        def plan(self, platform, N): ...

After that, ``repro plan --strategy my-strategy``, ``repro compare``
and every registry-driven sweep pick it up with no further edits.

Built-ins are loaded lazily: the provider-module table in
:mod:`repro.registry.builtins` is imported on the first query of each
kind, entry-point style.  Genuine ``importlib.metadata`` entry points
are honored too: a third-party distribution declaring
``[project.entry-points."repro.plugins"]`` has its components
discovered on the first query, no import required.
"""

from repro.registry.builtins import PROVIDER_MODULES, install_builtin_providers
from repro.registry.core import (
    ENTRY_POINT_GROUP,
    KINDS,
    Component,
    DuplicateComponentError,
    Registry,
    RegistryError,
    UnknownComponentError,
    UnknownKindError,
)

#: the process-wide default registry holding all built-ins
default_registry = Registry()
install_builtin_providers(default_registry)
# third-party distributions join via the "repro.plugins" entry-point
# group — scanned lazily on the first catalogue query, like built-ins
default_registry.enable_entry_point_discovery(ENTRY_POINT_GROUP)

# module-level façade over the default registry
register = default_registry.register
add = default_registry.add
unregister = default_registry.unregister
get = default_registry.get
create = default_registry.create
component = default_registry.component
available = default_registry.available
describe = default_registry.describe
kinds = default_registry.kinds
add_kind = default_registry.add_kind
register_provider_modules = default_registry.register_provider_modules
ensure_loaded = default_registry.ensure_loaded
enable_entry_point_discovery = default_registry.enable_entry_point_discovery

__all__ = [
    "ENTRY_POINT_GROUP",
    "KINDS",
    "Component",
    "Registry",
    "RegistryError",
    "UnknownKindError",
    "UnknownComponentError",
    "DuplicateComponentError",
    "PROVIDER_MODULES",
    "install_builtin_providers",
    "default_registry",
    "register",
    "add",
    "unregister",
    "get",
    "create",
    "component",
    "available",
    "describe",
    "kinds",
    "add_kind",
    "register_provider_modules",
    "ensure_loaded",
    "enable_entry_point_discovery",
]
