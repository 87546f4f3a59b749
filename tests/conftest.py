"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.platform.star import StarPlatform


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def homogeneous_platform() -> StarPlatform:
    return StarPlatform.homogeneous(4)


@pytest.fixture
def heterogeneous_platform() -> StarPlatform:
    return StarPlatform.from_speeds([1.0, 2.0, 4.0, 8.0], bandwidths=[1.0, 2.0, 1.0, 4.0])


@pytest.fixture
def half_fast_platform() -> StarPlatform:
    return StarPlatform.from_speeds([1.0, 1.0, 1.0, 9.0, 9.0, 9.0])


# ---- hypothesis strategies -------------------------------------------------

#: positive speeds with bounded dynamic range (keeps float math honest)
speeds_strategy = st.lists(
    st.floats(min_value=0.1, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=24,
)

#: strictly positive area vectors; tests normalise them to sum to 1
areas_strategy = st.lists(
    st.floats(min_value=1e-3, max_value=1.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=24,
)


def normalize(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    return arr / arr.sum()


# ---- execution backends ----------------------------------------------------


@pytest.fixture(params=["serial", "remote"])
def backend_spec(request):
    """The spec of every built-in execution backend, one per test run.

    ``remote`` points at a fresh in-process plan server (no cache of
    its own, so every item shipped to it is planned there).
    """
    if request.param == "serial":
        yield "serial"
        return
    from repro.service.server import PlanServer

    with PlanServer(port=0, cache=False) as server:
        yield f"remote:{server.host}:{server.port}"
