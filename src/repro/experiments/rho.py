"""§4.1.3's ρ experiment: half-slow / half-fast(k) platforms.

For each speed ratio ``k`` the table compares the *measured*
:math:`\\rho = Comm_{hom} / Comm_{het}` (both volumes computed by the
actual strategies) against the paper's analytic bounds
:math:`(1+k)/(1+\\sqrt{k})` and :math:`\\sqrt{k}-1`.  The shape claim:
measured ρ grows without bound in k, and the bounds hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.core.cache import PlanStore

from repro.core.bounds import half_fast_rho_bound, half_fast_rho_simple
from repro.core.session import PlannerSession
from repro.core.strategies import compare_strategies
from repro.platform.generators import half_fast_speeds
from repro.platform.star import StarPlatform
from repro.util.tables import format_table


@dataclass(frozen=True)
class RhoRow:
    k: float
    p: int
    measured_rho: float
    bound_exact: float
    bound_simple: float


@dataclass(frozen=True)
class RhoResult:
    rows: tuple[RhoRow, ...]
    N: float

    def render(self) -> str:
        return format_table(
            ["k", "p", "measured rho", "(1+k)/(1+sqrt k)", "sqrt(k)-1"],
            [
                [r.k, r.p, r.measured_rho, r.bound_exact, r.bound_simple]
                for r in self.rows
            ],
            title=(
                "Section 4.1.3: hom/het communication ratio on "
                f"half-slow/half-fast platforms (N={self.N:g})"
            ),
        )


def run_rho_experiment(
    ks: Sequence[float] = (1, 2, 4, 9, 16, 25, 64),
    p: int = 20,
    N: float = 10_000.0,
    session: PlannerSession | None = None,
    backend: str = "serial",
    cache: "bool | str | PlanStore" = True,
) -> RhoResult:
    """Experiment E6 of DESIGN.md.

    All (k, strategy) cells plan through one session — repeated runs
    (e.g. a report regenerating the table) are pure cache hits.  When
    no ``session`` is given, one is built from ``backend`` / ``cache``
    exactly like :func:`~repro.experiments.figure4.run_figure4`; the
    platforms are deterministic in (k, p), so ``cache="sqlite:PATH"``
    makes the table resumable — a rerun against the same path replays
    finished (k, strategy) cells from disk.
    """
    own_session = session is None
    session = session or PlannerSession(backend=backend, cache=cache)
    rows = []
    try:
        for k in ks:
            speeds = half_fast_speeds(p, k=float(k))
            platform = StarPlatform.from_speeds(speeds)
            cmp = compare_strategies(
                platform, N, strategies=("hom", "het"), session=session
            )
            rows.append(
                RhoRow(
                    k=float(k),
                    p=p,
                    measured_rho=cmp.rho,
                    bound_exact=half_fast_rho_bound(float(k)),
                    bound_simple=half_fast_rho_simple(float(k)),
                )
            )
    finally:
        if own_session:
            session.close()
    return RhoResult(rows=tuple(rows), N=float(N))
