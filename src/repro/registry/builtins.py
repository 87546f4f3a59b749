"""Provider table for the library's built-in components.

Maps each component kind to the modules that register components of
that kind when imported.  The registry imports these lazily on the
first query of a kind — nothing here triggers an import by itself, so
``import repro.registry`` never pulls in NumPy-heavy modules.

Adding a new built-in component is a two-line change: decorate the
factory with ``@register(kind, name)`` in its own module and list that
module here (third-party plugins skip even that — they just import
:mod:`repro.registry` and decorate).
"""

from __future__ import annotations

from repro.registry.core import Registry

#: kind → modules whose import registers that kind's built-ins
PROVIDER_MODULES: dict[str, tuple[str, ...]] = {
    "cost_model": ("repro.core.cost_models",),
    "strategy": (
        "repro.blocks.homogeneous",
        "repro.blocks.refined",
        "repro.blocks.heterogeneous",
    ),
    "partitioner": (
        "repro.partition.column_based",
        "repro.partition.perimax",
        "repro.partition.recursive",
        "repro.partition.naive",
    ),
    "dlt_solver": (
        "repro.dlt.single_round",
        "repro.dlt.nonlinear_solver",
        "repro.dlt.multi_round",
        "repro.dlt.tree_solver",
    ),
    "simulation": (
        "repro.simulate.master_worker",
        "repro.simulate.demand_driven",
        "repro.simulate.affinity",
        "repro.mapreduce.scheduler",
    ),
}


def install_builtin_providers(registry: Registry) -> None:
    """Declare every built-in provider module on ``registry``."""
    for kind, modules in PROVIDER_MODULES.items():
        registry.register_provider_modules(kind, modules)
