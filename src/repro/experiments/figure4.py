"""Figure 4 (§4.3): ratio of communication volume to the lower bound.

Protocol, as in the paper: for p = 10…100 processors and each of three
speed-generation policies (homogeneous / uniform[1,100] /
lognormal(0,1)), run 100 random trials; in each trial compute the
communication volume of ``Comm_het``, ``Comm_hom`` and ``Comm_hom/k``
(stop at load-imbalance e ≤ 1%) for a large outer product, and plot the
ratio to :math:`LB = 2N\\sum\\sqrt{x_i}` with mean and standard
deviation.

Expected shapes (what the benchmarks assert):

* homogeneous — all three strategies sit at ratio ≈ 1 (het within
  ~1%, Figure 4a);
* uniform / lognormal — ``Comm_het`` stays within a few percent of the
  bound while ``Comm_hom/k`` climbs past 10–30× at p = 100 (Figures
  4b–c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.core.cache import PlanStore

import numpy as np

from repro import registry
from repro.core.session import PlannerSession, default_session
from repro.platform.generators import make_speeds
from repro.platform.star import StarPlatform
from repro.util.rng import SeedLike, spawn_rngs
from repro.util.tables import format_table

#: matrix/vector size used by the sweeps; ratios are N-independent for
#: the closed-form strategies and nearly so for the simulated ones, so
#: any large N reproduces the figure.
DEFAULT_N = 10_000.0


def strategy_names() -> tuple[str, ...]:
    """Every registered outer-product strategy — the sweep's columns.

    Registered plugins join the Figure-4 protocol automatically; the
    paper's three built-ins are always present.
    """
    return registry.available("strategy")


@dataclass(frozen=True)
class Figure4Point:
    """Ratios of all strategies for one (p, trial) instance."""

    p: int
    ratios: dict[str, float]
    hom_k: int
    imbalances: dict[str, float]


@dataclass(frozen=True)
class Figure4Result:
    """One full panel of Figure 4 (one speed policy)."""

    speed_model: str
    processors: tuple[int, ...]
    trials: int
    #: mean ratio per strategy: {name: array over processors}
    means: dict[str, np.ndarray]
    stds: dict[str, np.ndarray]

    def render(self) -> str:
        headers = ["p"]
        for name in self.means:
            headers += [f"{name} mean", f"{name} std"]
        rows = []
        for i, p in enumerate(self.processors):
            row: list = [p]
            for name in self.means:
                row += [self.means[name][i], self.stds[name][i]]
            rows.append(row)
        return format_table(
            headers,
            rows,
            title=(
                f"Figure 4 ({self.speed_model} speeds): ratio of comm "
                f"volume to the lower bound, {self.trials} trials/point"
            ),
        )

    def final_ratio(self, strategy: str) -> float:
        """Mean ratio at the largest processor count (headline number)."""
        return float(self.means[strategy][-1])

    def ci_half_width(self, strategy: str, confidence: float = 0.95) -> np.ndarray:
        """Student-t half-width of the mean's CI at each point.

        Uses the stored per-point std (population) and the trial count;
        for the paper's 100 trials the small-sample correction is
        negligible but included for the reduced protocols.
        """
        from scipy import stats as sps

        n = self.trials
        if n < 2:
            return np.zeros(len(self.processors))
        t = sps.t.ppf(0.5 + confidence / 2, df=n - 1)
        sample_std = self.stds[strategy] * np.sqrt(n / (n - 1))
        return t * sample_std / np.sqrt(n)


def run_figure4_point(
    p: int,
    speed_model: str,
    rng: np.random.Generator,
    N: float = DEFAULT_N,
    imbalance_target: float = 0.01,
    session: PlannerSession | None = None,
) -> Figure4Point:
    """One random trial at one processor count (one dot of the cloud).

    Sweeps every registered strategy through ``session`` (default: the
    process-wide one), so the point's ``ratios``/``imbalances`` dicts
    grow with the registry and the sweep plans wherever the session
    plans (in process or on a plan server).
    """
    speeds = make_speeds(speed_model, p, rng)
    platform = StarPlatform.from_speeds(speeds)

    sweep = (session or default_session()).sweep(
        platform, N, imbalance_target=imbalance_target
    )
    plans = {name: res.plan for name, res in sweep.results.items()}

    hom_k = 1
    if "hom/k" in plans:
        hom_k = int(plans["hom/k"].detail.get("subdivision", 1))
    return Figure4Point(
        p=p,
        ratios={
            name: plan.ratio_to_lower_bound for name, plan in plans.items()
        },
        hom_k=hom_k,
        imbalances={name: plan.imbalance for name, plan in plans.items()},
    )


def run_figure4(
    speed_model: str,
    processors: Sequence[int] = (10, 20, 40, 60, 80, 100),
    trials: int = 100,
    seed: SeedLike = 2013,
    N: float = DEFAULT_N,
    imbalance_target: float = 0.01,
    session: PlannerSession | None = None,
    backend: str = "serial",
    cache: "bool | str | PlanStore" = True,
) -> Figure4Result:
    """Reproduce one panel of Figure 4.

    ``speed_model`` ∈ {"homogeneous", "uniform", "lognormal"} selects
    4(a), 4(b) or 4(c).  Defaults mirror the paper (10–100 processors,
    100 trials, e ≤ 1%).  Trials plan through ``session`` when given;
    otherwise a fresh one on ``backend`` (``serial``, or
    ``remote:HOST:PORT`` to plan on a server) is used for the whole
    panel, so repeated instances (notably the homogeneous panel, where
    every trial is content-identical) hit the plan cache instead of
    re-planning — pass ``cache=False`` to plan every trial anew (e.g.
    to measure real per-trial planning time).

    ``cache`` also accepts a spec string or any
    :class:`~repro.core.cache.PlanStore`, which makes the sweep
    *resumable*: trials draw their platforms from seed-derived RNGs, so
    rerunning a killed sweep with ``cache="sqlite:plans.db"`` (same
    seed/protocol, same path) replays every already-planned point as a
    disk hit and only plans the remainder — the resumed panel is
    identical to an uninterrupted run.
    """
    processors = tuple(int(p) for p in processors)
    names = strategy_names()
    rngs = spawn_rngs(seed, len(processors) * trials)
    means = {name: np.empty(len(processors)) for name in names}
    stds = {name: np.empty(len(processors)) for name in names}
    own_session = session is None
    session = session or PlannerSession(backend=backend, cache=cache)
    try:
        for i, p in enumerate(processors):
            samples = {name: np.empty(trials) for name in names}
            for t in range(trials):
                point = run_figure4_point(
                    p,
                    speed_model,
                    rngs[i * trials + t],
                    N=N,
                    imbalance_target=imbalance_target,
                    session=session,
                )
                for name in names:
                    samples[name][t] = point.ratios[name]
            for name in names:
                means[name][i] = samples[name].mean()
                stds[name][i] = samples[name].std(ddof=0)
    finally:
        if own_session:
            session.close()
    return Figure4Result(
        speed_model=speed_model,
        processors=processors,
        trials=trials,
        means=means,
        stds=stds,
    )
