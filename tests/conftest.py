import pytest

from wiptsim import default_scenario
from helpers import lux_gated


@pytest.fixture(scope="session")
def scenario():
    return default_scenario()


@pytest.fixture(scope="session")
def lux_gated_scenario(scenario):
    """Illuminance range at 0.3x..0.8x of full drive: protocol c rejects tuples."""
    return lux_gated(scenario)
