"""Execution backends: where a session plans its cache misses.

A *backend* is a registered component (kind ``"backend"``) with one
method, ``map(fn, items)`` — order-preserving, like the builtin
``map``.  Sessions hand backends only cache *misses*, already expressed
as :class:`~repro.core.pipeline.PlanRequest` objects planned by the
module-level :func:`~repro.core.pipeline.plan_request`, so the same
sweep runs in-process or on a plan server by switching one name:

* ``serial`` — plan in the calling thread (the default; zero overhead,
  exact timings);
* ``remote`` — ship the items to a ``repro serve`` instance
  (``remote:HOST:PORT``, :mod:`repro.service.client`).

There is no pooled backend.  Spreading a planning batch over threads
or worker processes cost more than it saved on every traffic shape the
repo sends (the paper's own lesson); concurrency lives in the plan
server's thread per connection and the cluster's worker processes.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, TypeVar

from repro.registry import register

T = TypeVar("T")
R = TypeVar("R")


class Backend:
    """Base: order-preserving ``map`` plus a release hook.

    ``map(fn, items)`` is the whole contract: apply ``fn`` to each item
    and return the results in order, running items wherever the backend
    likes.  Sessions feed it scalar :func:`~repro.core.pipeline.plan_request`
    calls and — on the vectorised path — whole
    :class:`~repro.core.vectorize.VectorGroup` items, so any conforming
    backend (including plugin-registered ones) composes with caching
    and vectorisation for free.
    """

    #: registered name, set by subclasses for error messages/repr
    name: str = "abstract"

    def map(
        self, fn: Callable[[T], R], items: Iterable[T]
    ) -> List[R]:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release any held resources (idempotent)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


@register(
    "backend",
    "serial",
    summary="Plan every request in the calling thread, one at a time",
)
class SerialBackend(Backend):
    """The zero-overhead reference backend (and planning-time oracle)."""

    name = "serial"

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        return [fn(item) for item in items]


def backend_from_spec(spec: "str | Backend") -> Backend:
    """Resolve a ``--backend`` spec to a backend through the registry.

    A bare name (``serial``) instantiates that backend; ``name:ARG``
    passes the remainder, even an empty one, to the factory — the
    service layer's ``remote:HOST:PORT`` is the built-in user.  An
    already-constructed backend passes through unchanged, so APIs
    accept ``backend="remote:host:9000"`` and ``backend=my_backend``
    alike.  Malformed specs raise
    :class:`~repro.registry.RegistryError` — a user error the CLI
    reports without a traceback, like an unknown component name.
    """
    if not isinstance(spec, str):
        return spec
    from repro import registry
    from repro.registry import RegistryError

    name, colon, arg = spec.partition(":")
    factory = registry.get("backend", name)  # unknown names fail clean here
    try:
        return factory(arg) if colon else factory()
    except (TypeError, ValueError) as exc:
        raise RegistryError(f"bad backend spec {spec!r}: {exc}") from None
