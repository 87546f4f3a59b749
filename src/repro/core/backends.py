"""Execution backends: how a session fans planning work out.

A *backend* is a registered component (kind ``"backend"``) with one
method, ``map(fn, items)`` — order-preserving, like the builtin
``map`` but free to run items concurrently.  Sessions hand backends
only cache *misses*, already expressed as picklable
:class:`~repro.core.pipeline.PlanRequest` objects planned by the
module-level :func:`~repro.core.pipeline.plan_request`, so the same
sweep can run in-process, across a thread pool, or across worker
processes by switching one name:

* ``serial``   — plan in the calling thread (the default; zero overhead,
  exact timings);
* ``threaded`` — ``ThreadPoolExecutor`` fan-out; NumPy releases the GIL
  in its kernels, so multi-strategy sweeps and large batches overlap;
* ``process``  — ``ProcessPoolExecutor`` fan-out; true parallelism for
  CPU-bound planning.  Worker processes import the library afresh, so
  only importable (built-in or installed-plugin) strategies are
  plannable there — strategies registered dynamically in the parent
  are not.

Backends accepting a pool keep it alive across calls (amortising
spawn cost over a session's lifetime) and release it on ``shutdown()``
— sessions call that from :meth:`PlannerSession.close`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Iterable, List, Sequence, TypeVar

from repro.registry import register

T = TypeVar("T")
R = TypeVar("R")


class Backend:
    """Base: order-preserving ``map`` plus pool lifecycle hooks.

    ``map(fn, items)`` is the whole contract: apply ``fn`` to each item
    and return the results in order, running items wherever the backend
    likes.  Sessions feed it scalar :func:`~repro.core.pipeline.plan_request`
    calls and — on the vectorised path — whole
    :class:`~repro.core.vectorize.VectorGroup` items, both picklable,
    so any conforming backend (including plugin-registered ones)
    composes with caching and vectorisation for free.
    """

    #: registered name, set by subclasses for error messages/repr
    name: str = "abstract"

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def map(
        self, fn: Callable[[T], R], items: Iterable[T]
    ) -> List[R]:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release any pooled workers (idempotent)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        jobs = "" if self.jobs is None else f"(jobs={self.jobs})"
        return f"<{type(self).__name__} {self.name!r}{jobs}>"


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


class _PooledBackend(Backend):
    """Shared machinery for executor-backed backends."""

    def __init__(self, jobs: int | None = None) -> None:
        super().__init__(jobs)
        self._executor: Executor | None = None
        # plan servers drive one backend from many handler threads;
        # guard the lazy spin-up so racing first calls share one pool
        self._pool_lock = threading.Lock()

    def _make_executor(self) -> Executor:
        raise NotImplementedError

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        if len(items) <= 1:
            # nothing to overlap; skip pool spin-up for single requests
            return [fn(item) for item in items]
        with self._pool_lock:
            if self._executor is None:
                self._executor = self._make_executor()
            executor = self._executor
        return list(executor.map(fn, items))

    def shutdown(self) -> None:
        with self._pool_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None


@register(
    "backend",
    "threaded",
    summary="Fan requests out across a ThreadPoolExecutor",
)
class ThreadedBackend(_PooledBackend):
    """Thread fan-out: cheap to start, overlaps NumPy's GIL-free kernels."""

    name = "threaded"

    def _make_executor(self) -> Executor:
        workers = self.jobs or min(32, (os.cpu_count() or 1) + 4)
        return ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-plan"
        )


@register(
    "backend",
    "process",
    summary="Fan requests out across a ProcessPoolExecutor",
)
class ProcessBackend(_PooledBackend):
    """Process fan-out: true parallelism for CPU-bound planning.

    Requests and the raw planner are pickled to worker processes, which
    re-import the library; dynamically registered (non-importable)
    strategies are not visible there.
    """

    name = "process"

    def _make_executor(self) -> Executor:
        return ProcessPoolExecutor(max_workers=self.jobs)


def create_backend(name: str, jobs: int | None = None) -> Backend:
    """Instantiate a registered backend by name."""
    from repro import registry

    return registry.create("backend", name, jobs=jobs)


def backend_from_spec(
    spec: "str | Backend", jobs: int | None = None
) -> Backend:
    """Resolve a ``--backend`` spec to a backend through the registry.

    A bare name (``serial`` / ``threaded`` / ``process``)
    instantiates that backend; ``name:ARG`` passes the remainder to the
    factory — the service layer's ``remote:HOST:PORT`` is the built-in
    user.  An already-constructed backend passes through unchanged, so
    APIs accept ``backend="remote:host:9000"`` and ``backend=my_backend``
    alike.  Malformed specs raise
    :class:`~repro.registry.RegistryError` — a user error the CLI
    reports without a traceback, like an unknown component name.
    """
    if not isinstance(spec, str):
        return spec
    from repro import registry
    from repro.registry import RegistryError

    name, _, arg = spec.partition(":")
    factory = registry.get("backend", name)  # unknown names fail clean here
    try:
        return factory(arg, jobs=jobs) if arg else factory(jobs=jobs)
    except (TypeError, ValueError) as exc:
        raise RegistryError(f"bad backend spec {spec!r}: {exc}") from None


def available_backends() -> Sequence[str]:
    """Names of every registered execution backend."""
    from repro import registry

    return registry.available("backend")
