"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
import pytest

from repro.des import Environment
from repro.rocc import SimulationConfig


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the golden-master snapshots under tests/golden/ "
        "instead of comparing against them",
    )


def pytest_configure(config: pytest.Config) -> None:
    """Give the session its own cell cache, never the user's.

    Runs before any engine is built, so engines in this process and CLI
    subprocesses (which inherit the environment) all cache into one
    temporary directory that is removed when the session ends.  Tests
    that set ``REPRO_CACHE_DIR`` themselves still win for their scope.
    """
    cache = tempfile.mkdtemp(prefix="repro-test-cells-")
    os.environ["REPRO_CACHE_DIR"] = cache
    config.add_cleanup(lambda: shutil.rmtree(cache, ignore_errors=True))


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic NumPy generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def fast_config() -> SimulationConfig:
    """A small, fast ROCC configuration for integration tests."""
    return SimulationConfig(
        nodes=2,
        duration=1_000_000.0,  # 1 simulated second
        sampling_period=20_000.0,
        batch_size=1,
        seed=99,
    )
