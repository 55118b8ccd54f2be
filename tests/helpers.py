"""Plain functions and strategies the test modules share: each oracle stated once."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from wiptsim import (DegenerateRegionError, EhOpticalModel, EhRfModel, InfeasibleControlsError,
                     ProtocolId, SafetyLimits, Scenario, ScenarioValidationError, channel_gain,
                     enumerate_controls, evaluate, illuminance_at, protocols, sweep)
from wiptsim.scenario import _ENSEMBLE_VECTOR_ENTRIES, _MAX_ENSEMBLE_COST, _MAX_RF_ANTENNAS


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


def lexsort_frontier(rate, harvest):
    """The Pareto kernel as one lexsort, the oracle of region._sorted_frontier:
    indices of the Pareto-maximal points, by ascending rate."""
    # Rate falling, then harvest falling, stably, so the first of equal points
    # comes first; a point is kept when its harvest beats every one before it.
    order = np.lexsort((-harvest, -rate))
    sorted_harvest = harvest[order]
    best_before = np.empty_like(sorted_harvest)
    best_before[:1] = -np.inf
    np.maximum.accumulate(sorted_harvest[:-1], out=best_before[1:])
    return order[sorted_harvest > best_before][::-1]


def link_gains(scenario):
    """The (VL, NIRL) link gains, from the public channel_gain."""
    return tuple(channel_gain(geometry, scenario.pd_area, scenario.optical_filter_gain)
                 for geometry in (scenario.vl_geometry(), scenario.nirl_geometry()))


def counted(monkeypatch, module, *names):
    """Wrap each named function of module so that it counts its calls; the counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def count(*args, _name=name, _kernel=getattr(module, name)):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(module, name, count)
    return calls


def bits(point):
    return point.rate.hex(), point.harvested_power.hex()


def lux_rejects(s, alpha_vl, tau_vl):
    """Whether protocol c's lux gate rejects a VL drive, from the public illuminance_at:
    its frame-average level lies above the ceiling, or below a floor full drive reaches."""
    geometry, limits = s.vl_geometry(), s.safety
    full, level = (illuminance_at(fraction * s.vl_bulb_power, s.luminous_efficacy, geometry)
                   for fraction in (1.0, tau_vl * alpha_vl + (1.0 - tau_vl)))
    return level > limits.illuminance_max or limits.illuminance_min <= full and (
        level < limits.illuminance_min)


_OUT_OF_RANGE = "; the scenario's model constants are out of range"


def direct_terms(s, row, controls):
    """A row's (lightwave, RF or None) terms from the band kernels called directly, no
    memo and no band context: each lightwave band framed over tau and added from 0.0
    (NIRL, VL), then RF; or evaluate's error text for the first band that fails."""
    gains = dict(zip(("VL", "NIRL"), link_gains(s)))
    lightwave, rf = (0.0, 0.0), None
    for name, drive, k in (*row.lightwave, *([("RF", row.rf, 4)] if row.rf else [])):
        try:
            if name == "RF":
                term = rf = protocols._rf_branch(s, drive(s), controls[4])
            else:
                r, e, full = protocols._lightwave_levels(s, drive(s), gains[name], controls[k])
                tau = controls[k + 1]
                term = tau * r, tau * e + (1.0 - tau) * full
                lightwave = lightwave[0] + term[0], lightwave[1] + term[1]
        except ArithmeticError as exc:
            return f"the {name} band yields {type(exc).__name__} ({exc}){_OUT_OF_RANGE}"
        if not all(map(math.isfinite, term)):
            what = f"a non-finite (rate, harvested power) = {term}"
            return f"the {name} band yields {what}{_OUT_OF_RANGE}"
    return lightwave, rf


def direct_outcome(s, row, controls):
    """evaluate's outcome from direct_terms, added in evaluate's order: the (rate,
    harvest) hex, None where a lux-gated row's reference gate rejects, or the error text."""
    if row.lux_gated and lux_rejects(s, controls[2], controls[3]):
        return None
    terms = direct_terms(s, row, controls)
    if isinstance(terms, str):
        return terms
    (rate, harvest), rf = terms
    if rf is not None:
        rate, harvest = rate + rf[0], harvest + rf[1]
    if not (math.isfinite(rate) and math.isfinite(harvest)):
        return ("the summed band terms are non-finite: (rate, harvested power) = "
                f"({rate}, {harvest}){_OUT_OF_RANGE}")
    return rate.hex(), harvest.hex()


def cold_outcome(scenario, protocol, controls):
    """A cold evaluate's (rate, harvest) hex, None when infeasible, or its error text."""
    try:
        return bits(evaluate(dataclasses.replace(scenario), protocol, controls))
    except InfeasibleControlsError:
        return None
    except ScenarioValidationError as exc:
        return str(exc)


def assert_sweeps_equal_cold_evaluate(s, grid, ids=tuple(ProtocolId)):
    grids = {protocol: list(enumerate_controls(protocol, grid)) for protocol in ids}
    cold = {protocol: [cold_outcome(s, protocol, c) for c in controls]
            for protocol, controls in grids.items()}
    # The sweeps run back to back on one scenario object, so later
    # protocols read band terms the earlier ones memoised.
    for protocol, controls in grids.items():
        errors = [o for o in cold[protocol] if isinstance(o, str)]
        if errors:  # the sweep stops at the first tuple that raises
            with pytest.raises(ScenarioValidationError) as info:
                sweep(s, protocol, grid)
            assert str(info.value) == errors[0]
            continue
        # protocol c's rejected tuples are absent, every other tuple in order
        want = [(*o, *(v.hex() for v in c)) for c, o in zip(controls, cold[protocol]) if o]
        if not want:
            with pytest.raises(DegenerateRegionError):
                sweep(s, protocol, grid)
            continue
        got = [tuple(v.hex() for v in row) for row in sweep(s, protocol, grid).points.rows()]
        assert got == want, protocol


# Each key's values within its valid range; floats include subnormals, the
# largest double, -0.0 where zero is allowed, and the bounds themselves.
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False) | st.just(-0.0)
_ANGLE = st.floats(min_value=0.0, max_value=90.0, exclude_max=True) | st.just(-0.0)
_SEMI_ANGLE = st.floats(min_value=1.0, max_value=89.0)
# The keys that feed the link gains, the full-drive illuminance and the
# NIRL irradiance, bounded so that no combination makes one of them
# overflow: the distance keeps d**2 within [1e-200, 1e200], so the flux
# density stays below 1e203 per watt, and each of them multiplies it by at
# most two factors of at most 1e50 each.
_DISTANCE = st.floats(min_value=1e-100, max_value=1e100)
_FACTOR = st.floats(min_value=0.0, max_value=1e50, exclude_min=True)
_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
KEY_VALUES = {
    "n_rf_antennas": st.integers(1, _MAX_RF_ANTENNAS),
    "rf_total_tx_power": _POSITIVE,
    "rf_wpt_tx_power": _POSITIVE,
    "rician_k": _NONNEGATIVE,
    "pathloss_exponent": _POSITIVE,
    "rf_noise_power": _POSITIVE,
    "rf_bandwidth": _POSITIVE,
    "rf_distance": st.floats(min_value=1.0, allow_infinity=False),
    "optical_distance": _DISTANCE,
    "vl_bulb_power": _FACTOR,
    "vl_semi_angle": _SEMI_ANGLE,
    "nirl_bulb_power": _FACTOR,
    "nirl_semi_angle": _SEMI_ANGLE,
    "n_devices": st.integers(min_value=1, max_value=10**30),
    "incidence_angle_vl": _ANGLE,
    "irradiance_angle_vl": _ANGLE,
    "incidence_angle_nirl": _ANGLE,
    "irradiance_angle_nirl": _ANGLE,
    "pd_area": _FACTOR,
    "pd_responsivity": _UNIT,
    "pd_fill_factor": _UNIT,
    "optical_noise_power": _POSITIVE,
    "optical_filter_gain": _FACTOR,
    "optical_bandwidth": _POSITIVE,
    "p_sat": _POSITIVE,
    "a": _POSITIVE,
    "b": _POSITIVE,
    "thermal_voltage": _POSITIVE,
    "dark_saturation_current": _POSITIVE,
    "sar_power_budget": _POSITIVE,
    "sar_window": _POSITIVE,
    "nirl_irradiance_limit": _POSITIVE,
    "nirl_beam_avoids_body": st.booleans(),
    "luminous_efficacy": _FACTOR,
    "vl_dim_fraction": st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                                 exclude_max=True),
    # the ensemble budget holds for any antenna count up to the cap
    "mc_samples": st.integers(1, _MAX_ENSEMBLE_COST // (_MAX_RF_ANTENNAS
                                                         + _ENSEMBLE_VECTOR_ENTRIES)),
    "rng_seed": st.integers(min_value=0, max_value=2**128),
}
# illuminance_min < illuminance_max: two distinct finite nonnegative values, sorted
_ILLUMINANCE = st.lists(_NONNEGATIVE, min_size=2, max_size=2, unique=True).map(sorted)


@st.composite
def valid_scenarios(draw):
    values = draw(st.fixed_dictionaries(KEY_VALUES))
    values["illuminance_min"], values["illuminance_max"] = draw(_ILLUMINANCE)
    sub_models = {name: cls(**{f.name: values.pop(f.name) for f in dataclasses.fields(cls)})
                  for name, cls in (("eh_rf", EhRfModel), ("eh_optical", EhOpticalModel),
                                    ("safety", SafetyLimits))}
    return Scenario(**values, **sub_models)
