"""The benchmark workloads: fixed rates, SLOs and seeded inputs.

Inputs are built here from the package's public constructors only
(``StarPlatform.from_speeds``, ``PlanRequest``, ``VectorGroup``,
``plan_cache_key``) and a NumPy generator seeded by ``(seed, phase)``,
so every phase of a run draws its own stream and the same seed always
gives the same operations.  Nothing is borrowed from
``repro.loadtest.stream``: a change there cannot move a workload.
:func:`stream_fingerprint` hashes a stream's raw content (speeds, N,
strategy, shape) so runs can prove they replayed the same inputs.

Rates and SLOs are absolute numbers, fixed once from the seed capacity
on a 2-CPU host (``low`` near 25 %, ``high`` near 45-60 %); see
README.md.  ``cold-sqlite`` runs by name but is not in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from repro import registry
from repro.core.cache import plan_cache_key
from repro.core.pipeline import PlanRequest
from repro.core.vectorize import VectorGroup
from repro.platform.star import StarPlatform

#: endpoint each operation kind drives
ENDPOINTS = {
    "plan": "/plan",
    "plan_batch": "/plan_batch",
    "cache_get": "/cache/get",
}

#: ratio between neighbouring rungs of every capacity ladder, and the
#: rung count: the top rung (base * 1.05**99) is far past any capacity
LADDER_RATIO = 1.05
LADDER_RUNGS = 100

#: phase ids: each phase draws from its own seeded stream
PHASE_SETUP = 0
PHASE_WARMUP = 1
PHASE_LOW = 2
PHASE_HIGH = 3
PHASE_CLOSED = 4
PHASE_TRACE = 5
PHASE_LAYERS = 6
PHASE_PROBE = 100  # + rung index


@dataclass(frozen=True)
class Op:
    """One operation: what is sent, and which plans the answer carries."""

    kind: str
    payload: Any
    #: the requests whose plans the response holds, in response order
    requests: Tuple[PlanRequest, ...]

    @property
    def endpoint(self) -> str:
        return ENDPOINTS[self.kind]

    @property
    def weight(self) -> int:
        """Plans this op returns (each request inside a batch counts)."""
        return len(self.requests)


@dataclass(frozen=True)
class Workload:
    """A traffic mix with its fixed rates and latency objective."""

    name: str
    why: str
    #: "serve" (one ``repro serve``) or "cluster" (``repro cluster up -n 2``)
    topology: str
    p: int
    #: (kind, ops per deck of ten) pairs
    mix: Tuple[Tuple[str, int], ...]
    low_rps: float
    high_rps: float
    slo_p99_ms: float
    #: rung k of the capacity ladder offers ladder_base * LADDER_RATIO**k
    ladder_base: float
    #: share of a run's seconds each phase gets
    shares: Dict[str, float] = field(default_factory=dict)
    #: params every fresh request carries (strategies ignore the ones
    #: their constructor does not take)
    params: Dict[str, Any] = field(default_factory=dict)

    def rung_rps(self, k: int) -> float:
        return self.ladder_base * LADDER_RATIO ** k

    def start_rung(self) -> int:
        """The rung nearest the ``high`` rate, where the search starts."""
        return int(round(np.log(self.high_rps / self.ladder_base)
                         / np.log(LADDER_RATIO)))


#: shares of a run: the fixed-rate phases get the most where the
#: rate is lowest, so their percentiles rest on more samples
_HOT_SHARES = {"warmup": 0.03, "low": 0.24, "high": 0.30, "closed": 0.15,
               "ladder": 0.28}
_LOW_RATE_SHARES = {"warmup": 0.05, "low": 0.32, "high": 0.26,
                    "closed": 0.14, "ladder": 0.23}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="hot-memory",
            why="every request hits the memory store, so HTTP, wire "
            "codec, cache keying and store reads are the whole cost",
            topology="serve",
            p=8,
            mix=(("plan", 6), ("plan_batch", 2), ("cache_get", 2)),
            low_rps=150.0,
            high_rps=300.0,
            slo_p99_ms=40.0,
            ladder_base=50.0,
            shares=_HOT_SHARES,
        ),
        Workload(
            name="cold-sqlite",
            why="every planning request misses, so kernels, vector "
            "grouping and sqlite writes dominate",
            topology="serve",
            p=32,
            mix=(("plan", 5), ("plan_batch", 3), ("cache_get", 2)),
            low_rps=30.0,
            high_rps=75.0,
            slo_p99_ms=150.0,
            ladder_base=6.0,
            shares=_LOW_RATE_SHARES,
            # hom/k refines to a 5 % imbalance: at the default 1 % one
            # p=32 plan holds the server for ~30 ms, and those few ops
            # alone would set every percentile
            params={"imbalance_target": 0.05},
        ),
        Workload(
            name="cluster-fanout",
            why="the only traffic through cluster.coordinator: every "
            "16-request group is split over two workers and reassembled",
            topology="cluster",
            p=16,
            mix=(("plan", 3), ("plan_batch", 7)),
            low_rps=19.0,
            high_rps=38.0,
            slo_p99_ms=200.0,
            ladder_base=6.0,
            shares=_LOW_RATE_SHARES,
        ),
    )
}

#: requests in one hot-memory / cold-sqlite batch, one cluster group
BATCH = {"hot-memory": 8, "cold-sqlite": 8, "cluster-fanout": 16}

_N_LO, _N_HI = 1_000.0, 20_000.0
_SPEED_LO, _SPEED_HI = 1.0, 8.0


def _rng(seed: int, phase: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(phase)])


def _platform(rng: np.random.Generator, p: int) -> StarPlatform:
    return StarPlatform.from_speeds(rng.uniform(_SPEED_LO, _SPEED_HI, size=p))


def _n(rng: np.random.Generator) -> float:
    return float(np.round(rng.uniform(_N_LO, _N_HI), 3))


def _cache_get(request: PlanRequest) -> Op:
    factory = registry.get("strategy", request.strategy)
    return Op("cache_get", plan_cache_key(request, factory), (request,))


def _plan(request: PlanRequest) -> Op:
    return Op("plan", request, (request,))


class Inputs:
    """Seeded operation streams for one workload and seed.

    ``setup_ops()`` are the requests planned while the server is being
    set up (the hot working set, the cold-sqlite key set); ``ops(phase,
    count)`` is the measured traffic of one phase.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = int(seed)
        self.batch = BATCH[workload.name]
        rng = _rng(seed, PHASE_SETUP)
        if workload.name == "hot-memory":
            platforms = [_platform(rng, workload.p) for _ in range(4)]
            ns = [_n(rng) for _ in range(64)]
            #: the whole working set, planned during setup
            self.warm = [
                PlanRequest(platform=pl, N=n, strategy=s)
                for pl in platforms
                for n in ns
                for s in ("het", "hom")
            ]
        elif workload.name == "cold-sqlite":
            #: the key set /cache/get reads, written during setup
            self.warm = [
                self._fresh(rng, j) for j in range(48)
            ]
        else:
            self.warm = []

    def _strategies(self) -> Tuple[str, ...]:
        if self.workload.name == "cold-sqlite":
            return ("het", "hom", "hom/k")
        return ("het", "hom")

    def _fresh(self, rng: np.random.Generator, j: int) -> PlanRequest:
        strategies = self._strategies()
        return PlanRequest(
            platform=_platform(rng, self.workload.p),
            N=_n(rng),
            strategy=strategies[j % len(strategies)],
            params=self.workload.params,
        )

    def setup_ops(self) -> List[Op]:
        """The planning traffic setup sends before anything is measured."""
        return [
            Op("plan_batch", chunk, tuple(chunk))
            for chunk in (
                self.warm[i:i + 64] for i in range(0, len(self.warm), 64)
            )
        ]

    def ops(self, phase: int, count: int) -> List[Op]:
        """``count`` ops of one phase, dealt from shuffled mix decks.

        Each deck of ten ops holds the mix exactly and is shuffled, and
        strategies rotate per kind, so every window of a stream carries
        the same work whatever the seed; only the instances differ.
        """
        rng = _rng(self.seed, phase)
        deck = [kind for kind, n in self.workload.mix for _ in range(n)]
        out: List[Op] = []
        dealt = {kind: 0 for kind, _ in self.workload.mix}
        while len(out) < count:
            for k in rng.permutation(len(deck)):
                kind = deck[int(k)]
                if kind == "cache_get":
                    request = self.warm[int(rng.integers(len(self.warm)))]
                    out.append(_cache_get(request))
                elif self.workload.name == "hot-memory":
                    out.append(self._hot(rng, kind))
                else:
                    out.append(self._miss(rng, kind, dealt[kind]))
                dealt[kind] += 1
        return out[:count]

    def group(self, phase: int, strategy: str, size: int) -> List[PlanRequest]:
        """``size`` fresh requests on one platform at the workload's p."""
        rng = _rng(self.seed, phase)
        platform = _platform(rng, self.workload.p)
        return [
            PlanRequest(platform=platform, N=_n(rng), strategy=strategy,
                        params=self.workload.params)
            for _ in range(size)
        ]

    def _hot(self, rng: np.random.Generator, kind: str) -> Op:
        pick = rng.integers(len(self.warm), size=self.batch)
        if kind == "plan":
            return _plan(self.warm[int(pick[0])])
        batch = [self.warm[int(i)] for i in pick]
        return Op("plan_batch", batch, tuple(batch))

    def _miss(self, rng: np.random.Generator, kind: str, j: int) -> Op:
        if kind == "plan":
            return _plan(self._fresh(rng, j))
        strategies = self._strategies()
        strategy = strategies[j % len(strategies)]
        platform = _platform(rng, self.workload.p)
        requests = tuple(
            PlanRequest(platform=platform, N=_n(rng), strategy=strategy,
                        params=self.workload.params)
            for _ in range(self.batch)
        )
        if self.workload.topology == "cluster":
            group = VectorGroup(strategy=strategy, requests=requests)
            return Op("plan_batch", [group], requests)
        return Op("plan_batch", list(requests), requests)


def stream_fingerprint(ops: List[Op]) -> str:
    """sha256 over each op's kind and raw request content.

    Hashes speeds as float bits, N, strategy and the batch shape, not
    derived keys, so moving a strategy class or re-keying the cache
    leaves it alone while any change to the generated inputs shows.
    """
    digest = hashlib.sha256()
    for op in ops:
        digest.update(op.kind.encode())
        digest.update(str(len(op.requests)).encode())
        for request in op.requests:
            digest.update(np.asarray(request.platform.speeds).tobytes())
            digest.update(repr((
                float(request.N), request.strategy,
                sorted(request.params.items()),
            )).encode())
    return digest.hexdigest()[:16]
