"""repro — reproduction of *Non-Linear Divisible Loads: There is No Free
Lunch* (Beaumont, Larchevêque, Marchal; IPDPS 2013 / INRIA RR-8170).

The library implements, from scratch:

* the heterogeneous master–worker star platform and its communication
  models (:mod:`repro.platform`);
* classical and non-linear Divisible Load Theory solvers
  (:mod:`repro.dlt`) plus a discrete-event simulator validating them
  (:mod:`repro.simulate`);
* the §2 no-free-lunch analysis (:mod:`repro.core.nonlinear`);
* executable parallel sample sort for the §3 almost-linear case
  (:mod:`repro.sorting`);
* PERI-SUM rectangle partitioning, the three §4 block strategies for
  outer product / matrix multiplication, and a metered MapReduce engine
  (:mod:`repro.partition`, :mod:`repro.blocks`, :mod:`repro.matmul`,
  :mod:`repro.mapreduce`);
* the experiment harness regenerating every paper table/figure
  (:mod:`repro.experiments`).

Quickstart::

    from repro import StarPlatform, plan_outer_product
    platform = StarPlatform.from_speeds([1, 2, 4, 8])
    plan = plan_outer_product(platform, N=10_000, strategy="het")
    print(plan.summary())

Batched / vectorised / cached planning goes through a session
(see :mod:`repro.core.session` and ``examples/session_tour.py``)::

    from repro import PlannerSession
    with PlannerSession() as session:
        sweep = session.sweep(platform, N=10_000)

Planning also runs as a network service (:mod:`repro.service`,
``examples/remote_planning.py``): ``repro serve`` exposes a session
over HTTP, and ``PlannerSession(backend="remote:HOST:PORT")`` offloads
sweeps to it, so every client process shares the server's warm plan
store.
"""

from repro import registry
from repro.platform import StarPlatform, Processor
from repro.core import (
    PlanRequest,
    PlanResult,
    PlanSweep,
    PlannerSession,
    PlanStore,
    MemoryPlanCache,
    SQLitePlanCache,
    TieredPlanCache,
    default_session,
    plan_request,
    available_strategies,
    plan_outer_product,
    compare_strategies,
    residual_fraction,
    partial_work_fraction,
    sorting_residual_fraction,
    lower_bound_comm,
    LinearCost,
    PowerLawCost,
    NLogNCost,
)
from repro.dlt import (
    solve_linear_parallel,
    solve_linear_one_port,
    solve_nonlinear_parallel,
)
from repro.partition import peri_sum_partition
from repro.sorting import sample_sort

__version__ = "2.0.0"

__all__ = [
    "registry",
    "StarPlatform",
    "Processor",
    "PlanRequest",
    "PlanResult",
    "PlanSweep",
    "PlannerSession",
    "PlanStore",
    "MemoryPlanCache",
    "SQLitePlanCache",
    "TieredPlanCache",
    "default_session",
    "plan_request",
    "available_strategies",
    "plan_outer_product",
    "compare_strategies",
    "residual_fraction",
    "partial_work_fraction",
    "sorting_residual_fraction",
    "lower_bound_comm",
    "LinearCost",
    "PowerLawCost",
    "NLogNCost",
    "solve_linear_parallel",
    "solve_linear_one_port",
    "solve_nonlinear_parallel",
    "peri_sum_partition",
    "sample_sort",
    "__version__",
]
