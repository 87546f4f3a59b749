"""The registry machinery: typed, namespaced component catalogues.

A :class:`Registry` maps ``(kind, name)`` pairs to factories.  *Kinds*
are the component families the library compares (cost models,
outer-product strategies, partitioners, DLT solvers, simulations);
*names* are the short identifiers used in tables, traces and on the
command line ("het", "peri-sum", "power-law", …).

Components self-register at import time with the :func:`register`
decorator; the registry itself never imports them eagerly.  Instead it
keeps an entry-point-style table of *provider modules* per kind
(:func:`register_provider_modules`) and imports those lazily on the
first lookup, so ``import repro.registry`` stays cheap and free of
import cycles — the provider modules import :mod:`repro.registry`, not
the other way round.

This module depends only on the standard library by design.
"""

from __future__ import annotations

import importlib
import inspect
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Tuple

#: the built-in component kinds, in presentation order
KINDS: Tuple[str, ...] = (
    "cost_model",
    "strategy",
    "partitioner",
    "dlt_solver",
    "simulation",
)

#: the entry-point group third-party distributions register under
ENTRY_POINT_GROUP = "repro.plugins"


class RegistryError(ValueError):
    """Base class for registry failures (a :class:`ValueError`)."""


class UnknownKindError(RegistryError):
    """The requested component kind does not exist."""


class UnknownComponentError(RegistryError, KeyError):
    """No component of the requested kind has the requested name."""

    def __str__(self) -> str:
        # KeyError.__str__ reprs the message (adds quotes); we want the
        # plain ValueError rendering for CLI/error-report legibility.
        return ValueError.__str__(self)


class DuplicateComponentError(RegistryError):
    """A component with this (kind, name) is already registered."""


@dataclass(frozen=True)
class Component:
    """One registered component: factory plus presentation metadata."""

    kind: str
    name: str
    factory: Callable[..., Any]
    #: one-line human description (defaults to the factory's docstring)
    summary: str = ""
    #: dotted location of the factory, for error messages and docs
    origin: str = ""
    #: free-form extras (paper section, aliases, …)
    metadata: Dict[str, Any] = field(default_factory=dict, compare=False)


def _first_doc_line(obj: Any) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.strip().splitlines()[0].strip()


def _origin_of(factory: Callable[..., Any]) -> str:
    mod = getattr(factory, "__module__", "?")
    qual = getattr(factory, "__qualname__", getattr(factory, "__name__", "?"))
    return f"{mod}.{qual}"


class Registry:
    """A set of named component catalogues, one per kind.

    Registration is import-time and single-threaded by convention, but
    *lazy loading* must be thread-safe: a plan server's front door
    resolves components from one handler thread per connection, so the
    first query of a kind may race.  A re-entrant lock
    serialises provider/entry-point loading; reads after loading are
    pure dict lookups.
    """

    def __init__(self, kinds: Iterable[str] = KINDS) -> None:
        self._components: Dict[str, Dict[str, Component]] = {
            kind: {} for kind in kinds
        }
        self._providers: Dict[str, Tuple[str, ...]] = {}
        self._loaded: set[str] = set()
        self._loading: set[str] = set()
        self._entry_point_groups: Tuple[str, ...] = ()
        self._entry_points_loaded = False
        self._entry_points_loading = False
        #: already-loaded (group, name) entry points — never re-run, so
        #: a broken sibling retried later cannot double-register these
        self._entry_points_done: set[Tuple[str, str]] = set()
        # RLock: a provider that queries the registry while registering
        # re-enters on the same thread (the _loading marker then stops
        # the recursion); other threads block until loading finishes
        self._load_lock = threading.RLock()

    # -- kinds ------------------------------------------------------------

    def kinds(self) -> Tuple[str, ...]:
        """All known component kinds, in declaration order."""
        return tuple(self._components)

    def add_kind(self, kind: str) -> None:
        """Declare a new component kind (idempotent)."""
        self._components.setdefault(kind, {})

    def _check_kind(self, kind: str) -> None:
        if kind not in self._components:
            raise UnknownKindError(
                f"unknown component kind {kind!r}; "
                f"expected one of {self.kinds()}"
            )

    # -- registration -----------------------------------------------------

    def register(
        self,
        kind: str,
        name: str,
        *,
        summary: str | None = None,
        replace: bool = False,
        **metadata: Any,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator: register the decorated factory as ``(kind, name)``.

        The factory may be a class (instantiated by :meth:`create`) or a
        plain function (called by :meth:`create`).  ``summary`` defaults
        to the first line of the factory's docstring.  Re-registering an
        existing name raises :class:`DuplicateComponentError` unless
        ``replace=True``.
        """
        self._check_kind(kind)

        def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
            self.add(
                kind,
                name,
                factory,
                summary=summary,
                replace=replace,
                **metadata,
            )
            return factory

        return decorator

    def add(
        self,
        kind: str,
        name: str,
        factory: Callable[..., Any],
        *,
        summary: str | None = None,
        replace: bool = False,
        **metadata: Any,
    ) -> Component:
        """Imperative form of :meth:`register`."""
        self._check_kind(kind)
        existing = self._components[kind].get(name)
        if existing is not None and not replace:
            raise DuplicateComponentError(
                f"{kind} {name!r} is already registered "
                f"(by {existing.origin}); pass replace=True to override"
            )
        component = Component(
            kind=kind,
            name=name,
            factory=factory,
            summary=summary if summary is not None else _first_doc_line(factory),
            origin=_origin_of(factory),
            metadata=dict(metadata),
        )
        self._components[kind][name] = component
        return component

    def unregister(self, kind: str, name: str) -> None:
        """Remove a component (used by tests and plugin teardown)."""
        self._check_kind(kind)
        self._components[kind].pop(name, None)

    # -- lazy provider loading -------------------------------------------

    def register_provider_modules(
        self, kind: str, modules: Iterable[str]
    ) -> None:
        """Declare modules that register ``kind`` components on import.

        This is the entry-point-style indirection: the registry stores
        dotted module paths as strings and imports them only when the
        kind is first queried, so listing what *could* be loaded costs
        nothing and circular imports are impossible.
        """
        self._check_kind(kind)
        current = self._providers.get(kind, ())
        merged = current + tuple(m for m in modules if m not in current)
        self._providers[kind] = merged
        # a provider added after the kind was already queried must still
        # be picked up on the next query
        self._loaded.discard(kind)

    # -- entry-point discovery -------------------------------------------

    def enable_entry_point_discovery(
        self, group: str = ENTRY_POINT_GROUP
    ) -> None:
        """Also discover components via ``importlib.metadata`` entry points.

        Third-party distributions declare, in their packaging metadata::

            [project.entry-points."repro.plugins"]
            my-components = "my_package.repro_components"

        and their components register with no explicit import by the
        user: on the first catalogue query, every entry point in
        ``group`` is loaded.  An entry point may resolve to a *module*
        (whose import-time ``@register`` decorators run against the
        default registry) or to a *callable*, which is invoked with
        this :class:`Registry` so plugins can target non-default
        registries too.
        """
        if group not in self._entry_point_groups:
            self._entry_point_groups = self._entry_point_groups + (group,)
            # plugins discovered later must be picked up by kinds that
            # were already queried
            self._entry_points_loaded = False

    def _load_entry_points(self) -> None:
        """Load every declared entry-point group (once, lazily).

        Each entry point is loaded at most once (tracked by
        ``(group, name)``): if one plugin raises, a later retry skips
        the plugins that already registered and re-raises the broken
        one's real error instead of a spurious
        :class:`DuplicateComponentError`.
        """
        if self._entry_points_loaded or not self._entry_point_groups:
            return
        with self._load_lock:
            if self._entry_points_loaded or self._entry_points_loading:
                return
            import importlib.metadata
            import types

            self._entry_points_loading = True
            try:
                for group in self._entry_point_groups:
                    eps = importlib.metadata.entry_points(group=group)
                    for ep in sorted(eps, key=lambda e: e.name):
                        key = (group, ep.name)
                        if key in self._entry_points_done:
                            continue
                        obj = ep.load()
                        if not isinstance(obj, types.ModuleType) and callable(
                            obj
                        ):
                            obj(self)
                        # module entry points register on import
                        self._entry_points_done.add(key)
            finally:
                self._entry_points_loading = False
            self._entry_points_loaded = True

    def ensure_loaded(self, kind: str) -> None:
        """Import every provider module declared for ``kind`` (once).

        Marked loaded only after every import succeeds — a provider
        that fails to import raises on *every* query rather than
        leaving a silently truncated catalogue.  A separate in-progress
        marker keeps re-entrant queries (a provider querying the
        registry while registering) from recursing.  Entry-point
        discovery (when enabled) runs first, so plugin registrations
        land before the kind's catalogue is first read.
        """
        self._check_kind(kind)
        self._load_entry_points()
        if kind in self._loaded:
            return
        with self._load_lock:
            # re-check under the lock: another thread may have finished
            # the load while we waited; same-thread re-entry (a provider
            # querying the registry mid-registration) sees _loading
            if kind in self._loaded or kind in self._loading:
                return
            self._loading.add(kind)
            try:
                # re-read the provider list each pass: a provider may
                # itself declare further providers for this kind while
                # loading
                imported: set[str] = set()
                while True:
                    todo = [
                        m
                        for m in self._providers.get(kind, ())
                        if m not in imported
                    ]
                    if not todo:
                        break
                    for module in todo:
                        imported.add(module)
                        importlib.import_module(module)
            finally:
                self._loading.discard(kind)
            self._loaded.add(kind)

    # -- lookup -----------------------------------------------------------

    def component(self, kind: str, name: str) -> Component:
        """The full :class:`Component` record for ``(kind, name)``."""
        self.ensure_loaded(kind)
        try:
            return self._components[kind][name]
        except KeyError:
            raise UnknownComponentError(
                f"unknown {kind} {name!r}; "
                f"expected one of {self.available(kind)}"
            ) from None

    def get(self, kind: str, name: str) -> Callable[..., Any]:
        """The registered factory for ``(kind, name)``."""
        return self.component(kind, name).factory

    def create(self, kind: str, name: str, /, *args: Any, **kwargs: Any) -> Any:
        """Instantiate/call the factory for ``(kind, name)``.

        For strategy classes this returns a strategy instance; for
        function components (partitioners, solvers) it simply calls the
        function with the given arguments.
        """
        return self.get(kind, name)(*args, **kwargs)

    def available(self, kind: str) -> Tuple[str, ...]:
        """Names registered under ``kind``, sorted.

        Sorted (rather than registration-ordered) so the result does not
        depend on which provider module happened to be imported first.
        """
        self.ensure_loaded(kind)
        return tuple(sorted(self._components[kind]))

    def describe(self, kind: str) -> Tuple[Component, ...]:
        """All :class:`Component` records of a kind, sorted by name."""
        self.ensure_loaded(kind)
        catalogue = self._components[kind]
        return tuple(catalogue[name] for name in sorted(catalogue))

    def __contains__(self, key: Tuple[str, str]) -> bool:
        kind, name = key
        if kind not in self._components:
            return False
        self.ensure_loaded(kind)
        return name in self._components[kind]
