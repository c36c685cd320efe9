import os
from pathlib import Path

import pytest

import bevsim
from bevsim import default_config, load_udds
from bevsim.params import with_overrides


@pytest.fixture(scope="session")
def config():
    return default_config()


@pytest.fixture(scope="session")
def udds():
    return load_udds()


@pytest.fixture(scope="session")
def small_battery_config(config):
    # 4 kWh keeps depletion runs to a few cycles; everything else default.
    return with_overrides(config, battery={"capacity_energy": 4.0})


@pytest.fixture(scope="session")
def package_env():
    """The environment with PYTHONPATH leading to the package under test,
    for tests that run it in a fresh interpreter."""
    src = str(Path(bevsim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
