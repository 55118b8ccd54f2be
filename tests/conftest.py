import dataclasses

import pytest

from wiptsim import default_scenario, illuminance_at


@pytest.fixture(scope="session")
def scenario():
    return default_scenario()


@pytest.fixture(scope="session")
def lux_gated_scenario(scenario):
    """Illuminance range at 0.3x..0.8x of full drive: protocol c rejects tuples."""
    full = illuminance_at(scenario.vl_bulb_power, scenario.luminous_efficacy,
                          scenario.vl_geometry())
    limits = dataclasses.replace(scenario.safety, illuminance_min=0.3 * full,
                                 illuminance_max=0.8 * full)
    return dataclasses.replace(scenario, safety=limits)
