"""Plan storage: content-keyed caches for :class:`PlannerSession`.

The Figure-4 protocol answers the *same* planning query many times
(100 trials × several strategies × repeated renders), and a service
front-end answers many identical user queries.  Planning is pure —
a (platform, N, strategy, params) tuple always yields the same plan —
so results are memoised under a content key:

    platform fingerprint × N × strategy (+ factory origin) × params

where *params* are first filtered down to what the strategy actually
accepts (:func:`repro.core.pipeline.supported_kwargs`).  Two requests
that differ only in a parameter the strategy ignores therefore share
one entry — e.g. ``imbalance_target`` never fragments the ``het``
cache.

Storage is pluggable behind the :class:`PlanStore` protocol; a
``--cache`` spec names one of three built-in stores
(:func:`cache_from_spec`), and a session accepts any other
:class:`PlanStore` instance:

* :class:`MemoryPlanCache` (``memory``) — the in-process LRU; entries
  beyond ``max_entries`` are evicted oldest-first and counted.
* :class:`SQLitePlanCache` (``sqlite``) — a durable, shareable store:
  one row per content key (:func:`encode_key` digest), the
  :class:`~repro.core.pipeline.PlanResult` as a binary-v2 envelope
  (:mod:`repro.service.wire`, never a pickle) as the value, and
  hit/miss counters persisted alongside so ``repro cache stats``
  reports across runs.  Safe for concurrent readers/writers across
  threads *and* processes (WAL journal, per-thread connections,
  single-statement atomic updates).
* :class:`TieredPlanCache` (``tiered``) — memory front, a durable
  store behind: reads try memory first and *promote* back-tier hits,
  writes go through to both tiers, and :attr:`CacheStats.tier_hits`
  breaks hits down per tier.

A plan server's store is not a cache spec: many client processes share
it through ``backend="remote:HOST:PORT"``, and only the server's own
planning writes it.

:class:`ThreadSafePlanStore` wraps any store in an RLock for callers
that drive one session from many threads (the plan server does).

Any store can warm any other (entries are path- and tier-agnostic), so
a killed 100-trial sweep restarted against the same sqlite file
replays its finished points as disk hits — see
``run_figure4(cache="sqlite:...")`` and the kill/resume integration
test.  :func:`cache_from_spec` parses the CLI's ``--cache`` specs
(``memory[:SIZE]`` / ``sqlite:PATH`` / ``tiered:PATH``).
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Hashable,
    Mapping,
    Protocol,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.core.pipeline import PlanRequest, PlanResult, supported_kwargs
from repro.registry import RegistryError
from repro.util.tables import format_table


def freeze_value(value: Any) -> Hashable:
    """A hashable, content-equal stand-in for a parameter value.

    Mappings and sequences are frozen recursively (mappings sorted by
    key); numpy arrays hash by shape + raw bytes; anything else
    unhashable falls back to its ``repr``.
    """
    if isinstance(value, (str, bytes, int, float, bool, type(None))):
        return value
    if isinstance(value, Mapping):
        return tuple(
            (k, freeze_value(v)) for k, v in sorted(value.items())
        )
    if isinstance(value, np.ndarray):
        return (value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return tuple(freeze_value(v) for v in items)
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


def frozen_effective_params(
    request: PlanRequest, factory: Callable[..., Any]
) -> Hashable:
    """Hashable form of the params ``factory`` would actually receive.

    Filters the request's params down to what the factory's signature
    accepts, then freezes them sorted-by-name.  This is the *shared*
    definition of parameter identity: the plan cache keys on it and the
    vectorised path groups on it, so requests that share a cache entry
    always share a vector group (and vice versa).
    """
    effective = supported_kwargs(factory, request.params)
    return tuple((k, freeze_value(v)) for k, v in sorted(effective.items()))


def plan_cache_key(
    request: PlanRequest, factory: Callable[..., Any]
) -> Hashable:
    """The content key one request caches under.

    ``factory`` is the resolved strategy factory; its origin joins the
    key so re-registering a strategy name with a different factory
    (plugin replacement) does not serve stale plans, and its signature
    decides which params participate
    (:func:`frozen_effective_params`).
    """
    origin = (
        f"{getattr(factory, '__module__', '?')}."
        f"{getattr(factory, '__qualname__', getattr(factory, '__name__', '?'))}"
    )
    return (
        request.platform.fingerprint(),
        float(request.N),
        request.strategy,
        origin,
        frozen_effective_params(request, factory),
    )


def encode_key(key: Hashable) -> str:
    """A stable hex digest of a plan content key, for durable stores.

    For built-in strategies, content keys are nested tuples of
    primitives (str / bytes / float / int / bool / None — see
    :func:`freeze_value`), whose ``repr`` is deterministic across
    processes and Python runs, unlike ``hash()`` (salted per process).
    The sha256 of that repr is therefore usable as a database primary
    key shared between processes and sessions.

    Limitation: a custom param value that survives
    :func:`freeze_value` as a bare object falls back to its ``repr``
    here — if that repr embeds a memory address (the ``object``
    default), the digest differs per process and durable lookups
    degrade to misses (never wrong hits).  Plugin params that should
    cache across restarts need a content-stable ``repr``.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Cumulative hit/miss counters plus current occupancy.

    ``max_entries == 0`` means the store is unbounded (durable
    stores never evict).  ``tier_hits`` is populated by tiered
    stores: a ``(tier name, hits)`` breakdown of where the hits landed
    — e.g. a resumed sweep shows its replayed points as ``disk`` hits.
    """

    hits: int
    misses: int
    entries: int
    max_entries: int
    evictions: int
    #: per-tier hit breakdown, e.g. (("memory", 40), ("disk", 2))
    tier_hits: Tuple[Tuple[str, int], ...] = ()

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def render(self) -> str:
        capacity = str(self.max_entries) if self.max_entries else "unbounded"
        table = format_table(
            ["lookups", "hits", "misses", "hit rate", "entries", "evictions"],
            [
                [
                    self.lookups,
                    self.hits,
                    self.misses,
                    f"{100 * self.hit_rate:.1f}%",
                    f"{self.entries}/{capacity}",
                    self.evictions,
                ]
            ],
            title="Plan cache statistics",
        )
        if self.tier_hits:
            breakdown = ", ".join(
                f"{name}={hits}" for name, hits in self.tier_hits
            )
            table += f"\ntier hits: {breakdown}"
        return table


@runtime_checkable
class PlanStore(Protocol):
    """What a session needs from a plan cache, wherever it lives.

    Implementations must make ``get``/``put`` safe for whatever
    concurrency they advertise (the built-in memory store is
    single-thread by contract — sessions do all cache traffic on the
    calling thread; the sqlite store is also safe across threads and
    processes).  ``stats`` must count every ``get`` as exactly one hit
    or miss so ``hits + misses == lookups`` holds under interleaving.
    """

    def get(self, key: Hashable) -> PlanResult | None: ...

    def put(self, key: Hashable, result: PlanResult) -> None: ...

    def clear(self) -> None: ...

    def __len__(self) -> int: ...

    @property
    def stats(self) -> CacheStats: ...


class MemoryPlanCache:
    """An LRU map from plan content keys to :class:`PlanResult`.

    Not thread-safe by itself; sessions perform all cache traffic on
    the calling thread, so no lock is needed there.  Entries are
    path-agnostic: a batch kernel and the scalar planner produce
    interchangeable results (the vectorisation equivalence contract),
    so a store warmed by one session's batches serves another
    session's single ``plan`` calls::

        shared = MemoryPlanCache(max_entries=10_000)
        a = PlannerSession(cache=shared)
        b = PlannerSession(backend="remote:HOST:PORT", cache=shared)

    ``put`` evicts least-recently-used entries beyond ``max_entries``
    and counts them in ``stats.evictions``; evictions never touch the
    hit/miss counters.  ``clear()`` drops every entry *and* resets all
    statistics to zero.  Keys are the session's content keys
    (:func:`plan_cache_key`); the store never computes one itself.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[Hashable, PlanResult] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> PlanResult | None:
        """The cached result for ``key``, counting the hit or miss."""
        entry = self._entries.get(key)
        if entry is None:
            self._misses += 1
            return None
        self._hits += 1
        self._entries.move_to_end(key)
        return entry

    def put(self, key: Hashable, result: PlanResult) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset all statistics."""
        self._entries.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            entries=len(self._entries),
            max_entries=self.max_entries,
            evictions=self._evictions,
        )

    def close(self) -> None:
        """Nothing to release; present so every store closes alike."""


#: the payload an export's binary-v2 envelope carries is marked with
#: this format name and version
_EXPORT_FORMAT = "repro-plan-cache"
_EXPORT_VERSION = 2


def _is_export_row(row: Any) -> bool:
    """``(digest, blob, created_at, last_used)``, as ``plans`` stores it."""
    return (
        isinstance(row, tuple)
        and len(row) == 4
        and isinstance(row[0], str)
        and isinstance(row[1], bytes)
        and all(isinstance(t, (int, float)) for t in row[2:])
    )


class SQLitePlanCache:
    """A durable plan store: one sqlite file, shareable and resumable.

    One row per content key — the :func:`encode_key` digest as primary
    key, the :class:`PlanResult` packed as a binary-v2 envelope as the
    value — plus persisted hit/miss counters, so statistics survive the
    process that earned them and ``repro cache stats PATH`` reports
    across runs.  Nothing read back from the file is ever unpickled: a
    row that is not a binary-v2 envelope holding a :class:`PlanResult`
    (a file written before binary-v2 was the only format, or a
    corrupted one) is counted and served as a miss, and the next
    ``put`` under its key overwrites it.  The envelope's magic line
    versions each row, so this needs no schema column.  A result the
    codec cannot encode (a plugin's exotic ``detail``) makes ``put``
    raise :class:`~repro.service.wire.WireError` naming the type.

    Concurrency: the journal runs in WAL mode (readers never block the
    writer), every connection waits ``timeout`` seconds on a locked
    database instead of failing, and each mutation is a single
    atomic statement (``INSERT OR REPLACE`` / one-row ``UPDATE``), so
    interleaved ``get``/``put`` traffic from many threads *or* many
    processes loses no writes and keeps ``hits + misses`` equal to the
    number of ``get`` calls.  Connections are per-thread (sqlite
    objects must not cross threads) and re-opened after a fork.

    The store is unbounded — durable caches are shared working sets,
    not working memories — so ``stats.max_entries`` is 0 and nothing is
    ever evicted; ``clear()`` (or ``repro cache clear``) is the
    explicit reset.
    """

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS plans (
            key        TEXT PRIMARY KEY,
            value      BLOB NOT NULL,
            created_at REAL NOT NULL,
            last_used  REAL NOT NULL
        );
        CREATE TABLE IF NOT EXISTS stats (
            name  TEXT PRIMARY KEY,
            value INTEGER NOT NULL
        );
        INSERT OR IGNORE INTO stats (name, value) VALUES ('hits', 0);
        INSERT OR IGNORE INTO stats (name, value) VALUES ('misses', 0);
    """

    def __init__(self, path: str | Path, *, timeout: float = 30.0) -> None:
        self.path = str(Path(path).expanduser())
        self.timeout = float(timeout)
        self._local = threading.local()
        parent = Path(self.path).parent
        if str(parent) not in ("", "."):
            parent.mkdir(parents=True, exist_ok=True)
        self._connection().executescript(self._SCHEMA)

    # -- connection management -------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        """This thread's connection, reopened after thread start or fork."""
        con = getattr(self._local, "con", None)
        if con is not None and getattr(self._local, "pid", None) == os.getpid():
            return con
        con = sqlite3.connect(
            self.path, timeout=self.timeout, isolation_level=None
        )
        con.execute("PRAGMA journal_mode=WAL")
        con.execute(f"PRAGMA busy_timeout={int(self.timeout * 1000)}")
        con.execute("PRAGMA synchronous=NORMAL")
        self._local.con = con
        self._local.pid = os.getpid()
        return con

    def close(self) -> None:
        """Close this thread's connection (others close on GC)."""
        con = getattr(self._local, "con", None)
        if con is not None:
            con.close()
            self._local.con = None

    # -- PlanStore --------------------------------------------------------

    def __len__(self) -> int:
        row = self._connection().execute("SELECT COUNT(*) FROM plans").fetchone()
        return int(row[0])

    def _count(self, name: str) -> None:
        self._connection().execute(
            "UPDATE stats SET value = value + 1 WHERE name = ?", (name,)
        )

    def get(self, key: Hashable) -> PlanResult | None:
        # imported here: repro.service imports this module
        from repro.service.wire import WireError, unpack_v2

        # hits touch only the counter, not the row: the store never
        # evicts, so per-hit recency writes would buy nothing and cost
        # a write transaction on the hot (shared, multi-reader) path
        digest = encode_key(key)
        row = self._connection().execute(
            "SELECT value FROM plans WHERE key = ?", (digest,)
        ).fetchone()
        result = None
        if row is not None:
            try:
                result = unpack_v2(row[0])
            except WireError:
                pass  # a pickle-era or corrupted row: a miss
        if not isinstance(result, PlanResult):
            self._count("misses")
            return None
        self._count("hits")
        return result

    def put(self, key: Hashable, result: PlanResult) -> None:
        from repro.service.wire import pack_v2

        value = pack_v2(result)
        now = time.time()
        self._connection().execute(
            "INSERT OR REPLACE INTO plans (key, value, created_at, last_used)"
            " VALUES (?, ?, ?, ?)",
            (encode_key(key), value, now, now),
        )

    def clear(self) -> None:
        """Drop every entry and zero the persisted statistics."""
        con = self._connection()
        con.execute("DELETE FROM plans")
        con.execute("UPDATE stats SET value = 0")

    @property
    def stats(self) -> CacheStats:
        con = self._connection()
        counters = dict(con.execute("SELECT name, value FROM stats"))
        return CacheStats(
            hits=int(counters.get("hits", 0)),
            misses=int(counters.get("misses", 0)),
            entries=len(self),
            max_entries=0,
            evictions=0,
        )

    # -- portability (repro cache export / import) ------------------------

    def export_file(self, destination: str | Path) -> int:
        """Write every row to a portable export; returns the row count.

        The file is one binary-v2 envelope whose payload carries a
        format marker, a version and the raw ``(digest, blob,
        created_at, last_used)`` rows — no plan is decoded in transit.
        """
        from repro.service.wire import pack_v2

        rows = self._connection().execute(
            "SELECT key, value, created_at, last_used FROM plans"
        ).fetchall()
        payload = {
            "format": _EXPORT_FORMAT,
            "version": _EXPORT_VERSION,
            "rows": rows,
        }
        with open(destination, "wb") as fh:
            fh.write(pack_v2(payload))
        return len(rows)

    def import_file(self, source: str | Path) -> int:
        """Merge an exported payload into this store; returns rows merged.

        The file must be one binary-v2 envelope holding an export
        payload with well-formed rows; anything else — a pickle-era
        export included, which is never unpickled — raises
        ``ValueError``.  Imported rows overwrite same-key rows — plans
        are pure, so any two values under one content key are
        interchangeable.
        """
        from repro.service.wire import WireError, unpack_v2

        with open(source, "rb") as fh:
            data = fh.read()
        try:
            payload = unpack_v2(data)
        except WireError as exc:
            raise ValueError(
                f"{source!s} is not a repro plan-cache export ({exc})"
            ) from None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != _EXPORT_FORMAT
        ):
            raise ValueError(
                f"{source!s} is not a repro plan-cache export"
            )
        if payload.get("version") != _EXPORT_VERSION:
            raise ValueError(
                f"unsupported export version {payload.get('version')!r} "
                f"(expected {_EXPORT_VERSION})"
            )
        rows = payload.get("rows")
        if not isinstance(rows, list) or not all(map(_is_export_row, rows)):
            raise ValueError(
                f"{source!s} is not a repro plan-cache export (bad rows)"
            )
        try:
            self._connection().executemany(
                "INSERT OR REPLACE INTO plans"
                " (key, value, created_at, last_used) VALUES (?, ?, ?, ?)",
                rows,
            )
        except sqlite3.Error as exc:
            raise ValueError(
                f"{source!s} is not a repro plan-cache export ({exc})"
            ) from None
        return len(rows)


class TieredPlanCache:
    """Two-level store: a fast memory front over a durable back tier.

    * ``get`` tries memory first; a disk hit is *promoted* into memory
      so the hot working set converges to RAM speed while the full
      history stays on disk.
    * ``put`` writes through to both tiers, so a killed process loses
      nothing that was ever planned.
    * ``stats`` reports the combined view — a lookup is a hit if either
      tier had it — with the per-tier breakdown in
      :attr:`CacheStats.tier_hits`.

    Constructed from a path (fresh memory front, sqlite behind) or
    from two existing stores::

        TieredPlanCache("plans.db")
        TieredPlanCache(disk=warm_sqlite, memory=MemoryPlanCache(512))
    """

    def __init__(
        self,
        path: "str | Path | None" = None,
        *,
        memory: MemoryPlanCache | None = None,
        disk: "PlanStore | None" = None,
        max_entries: int = 4096,
    ) -> None:
        if disk is None:
            if path is None:
                raise ValueError(
                    "TieredPlanCache needs a sqlite path or a back-tier store"
                )
            if str(path).startswith(("http:", "https:")):
                # a URL would become a sqlite file named after it
                raise ValueError(
                    f"{path!r} is not a file path; to share a plan "
                    "server's store, plan through it with "
                    "--backend remote:HOST:PORT"
                )
            disk = SQLitePlanCache(path)
        self.memory = memory if memory is not None else MemoryPlanCache(max_entries)
        self.disk = disk

    def __len__(self) -> int:
        return len(self.disk)

    def get(self, key: Hashable) -> PlanResult | None:
        hit = self.memory.get(key)
        if hit is not None:
            return hit
        hit = self.disk.get(key)
        if hit is not None:
            # promote: the next lookup of a warm key stays in memory
            self.memory.put(key, hit)
        return hit

    def put(self, key: Hashable, result: PlanResult) -> None:
        self.memory.put(key, result)
        self.disk.put(key, result)

    def clear(self) -> None:
        self.memory.clear()
        self.disk.clear()

    def close(self) -> None:
        self.disk.close()

    @property
    def stats(self) -> CacheStats:
        mem = self.memory.stats
        disk = self.disk.stats
        # every tiered get is one memory lookup; the memory misses that
        # the disk answered become hits in the combined view
        return CacheStats(
            hits=mem.hits + disk.hits,
            misses=disk.misses,
            entries=disk.entries,
            max_entries=0,
            evictions=mem.evictions,
            tier_hits=(("memory", mem.hits), ("disk", disk.hits)),
        )


class ThreadSafePlanStore:
    """An RLock-serialised wrapper making any store safe to share.

    The built-in memory store is single-thread by contract (sessions do
    all cache traffic on the calling thread), but a *plan server* drives
    one session from many HTTP handler threads at once.  Wrapping the
    store serialises every ``get``/``put``/``stats`` so interleaved
    clients keep ``hits + misses == lookups`` and never corrupt the LRU
    order; stores that are already concurrency-safe (sqlite) lose
    nothing but a cheap lock acquisition.
    """

    def __init__(self, store: PlanStore) -> None:
        self.inner = store
        self._lock = threading.RLock()

    def get(self, key: Hashable) -> PlanResult | None:
        with self._lock:
            return self.inner.get(key)

    def put(self, key: Hashable, result: PlanResult) -> None:
        with self._lock:
            self.inner.put(key, result)

    def clear(self) -> None:
        with self._lock:
            self.inner.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self.inner)

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return self.inner.stats

    def close(self) -> None:
        with self._lock:
            closer = getattr(self.inner, "close", None)
            if closer is not None:
                closer()


#: the store each ``--cache`` spec name builds
_STORES: dict[str, Callable[..., PlanStore]] = {
    "memory": MemoryPlanCache,
    "sqlite": SQLitePlanCache,
    "tiered": TieredPlanCache,
}


def cache_from_spec(spec: "str | PlanStore") -> PlanStore:
    """Resolve a ``--cache`` spec to one of the built-in stores.

    Accepted forms:

    * ``memory`` or ``memory:SIZE`` — in-process LRU (SIZE entries);
    * ``sqlite:PATH`` — durable store at PATH;
    * ``tiered:PATH`` — memory front over a durable store at PATH.

    An already-constructed store passes through unchanged, so APIs can
    accept ``cache="sqlite:plans.db"`` and ``cache=my_store`` alike.
    Malformed specs raise :class:`~repro.registry.RegistryError` — a
    *user* error the CLI reports without a traceback, like an unknown
    component name.
    """
    if not isinstance(spec, str):
        return spec
    name, _, arg = spec.partition(":")
    name = name or "memory"
    factory = _STORES.get(name)
    if factory is None:
        raise RegistryError(
            f"unknown cache {name!r}; expected one of {tuple(_STORES)}"
        )
    try:
        # a store whose constructor rejects the spec argument is a
        # user error, not a traceback: memory takes an integer size,
        # sqlite/tiered need a path
        if name == "memory" and arg:
            try:
                max_entries = int(arg)
            except ValueError:
                raise ValueError(
                    f"memory cache size must be an integer, got {arg!r}"
                ) from None
            return factory(max_entries=max_entries)
        return factory(arg) if arg else factory()
    except (TypeError, ValueError) as exc:
        raise RegistryError(f"bad cache spec {spec!r}: {exc}") from None
