"""Plain functions the test modules share: a scenario variant and an oracle."""

import dataclasses

import numpy as np

from wiptsim import illuminance_at


def lux_gated(scenario):
    """Illuminance range at 0.3x..0.8x of full drive: protocol c rejects tuples."""
    full = illuminance_at(scenario.vl_bulb_power, scenario.luminous_efficacy,
                          scenario.vl_geometry())
    limits = dataclasses.replace(scenario.safety, illuminance_min=0.3 * full,
                                 illuminance_max=0.8 * full)
    return dataclasses.replace(scenario, safety=limits)


def brute_frontier_indices(rates, energies):
    """O(n^2) dominance filter used as the independent oracle: the indices of the
    Pareto points, the first of each run of equal points, by rising rate."""
    kept = []
    seen = set()
    for i in range(len(rates)):
        better_or_equal = (rates >= rates[i]) & (energies >= energies[i])
        strictly_better = (rates > rates[i]) | (energies > energies[i])
        if np.any(better_or_equal & strictly_better):
            continue
        key = (rates[i], energies[i])
        if key in seen:
            continue
        seen.add(key)
        kept.append(i)
    kept.sort(key=lambda i: rates[i])
    return kept
