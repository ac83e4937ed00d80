"""Shared fixtures for the test suite.

Simulation tests use deliberately small traces (a few thousand uops) so the
whole suite stays CI-fast; the statistical assertions are therefore loose
bounds, not exact matches.
"""

from __future__ import annotations

import pytest

from repro.core.config import baseline_config, helper_topology, topology_config
from repro.trace.profiles import get_profile
from repro.trace.synthetic import generate_trace


@pytest.fixture(scope="session")
def gcc_trace_small():
    """A small, deterministic gcc-profile trace shared across tests."""
    return generate_trace(get_profile("gcc"), 3000, seed=7)


@pytest.fixture(scope="session")
def bzip2_trace_small():
    """A small, deterministic bzip2-profile trace shared across tests."""
    return generate_trace(get_profile("bzip2"), 3000, seed=7)


@pytest.fixture(scope="session")
def tiny_trace():
    """A very small trace for expensive per-test simulations."""
    return generate_trace(get_profile("gzip"), 1200, seed=11)


@pytest.fixture()
def helper_config():
    return topology_config(helper_topology())


@pytest.fixture()
def mono_config():
    return baseline_config()
