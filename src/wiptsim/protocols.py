"""Collaborative transfer protocols and single-technology baselines.

Each protocol maps a control tuple to one per-device operating point
(aggregate rate, aggregate harvested power).  The bands run in parallel
receive chains, so rates and harvests add across RF, VL and NIRL.
``_TABLE`` defines every protocol in one row: its free control axes, its
pinned controls, and what drives each band (README lists the same table).

Every lightwave band follows the same frame structure: an ID slot of
duration tau at DC bias alpha (AC swing at its admissible peak) and an
all-DC remainder dedicated to harvesting.  Rates and harvested power are
averaged over the unit frame.  Protocol c additionally rejects control
tuples whose frame-average VL drive pushes the room illuminance out of
range; protocol d suspends that check (dimmed room) and drives the VL
bulb at the configured dim level with equal DC and AC parts.
"""

import enum
import itertools
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import attrgetter

import numpy as np

from .channel_optical import channel_gain, illuminance_at
from .channel_rf import mean_rf_received_power
from .harvest import optical_harvest, rf_harvest
from .link_rates import admissible_ac_peak, lightwave_rate, rf_rate


class ProtocolId(enum.Enum):
    RF_ONLY = "rf"
    VL_ONLY = "vl"
    NIRL_ONLY = "nirl"
    A = "a"
    B = "b"
    C = "c"
    D = "d"


class PinnedControlError(ValueError):
    """A control the protocol pins was set to a different value."""


class InfeasibleControlsError(ValueError):
    """Controls violate protocol c's illuminance range."""


@dataclass(frozen=True)
class ProtocolControls:
    """Free variables of a protocol; pinned fields carry their pinned values."""

    alpha_nirl: float  # NIRL DC fraction
    tau_nirl: float    # NIRL ID time fraction
    alpha_vl: float    # VL DC fraction
    tau_vl: float      # VL ID time fraction
    rho_rf: float      # RF power-splitting factor (EH share)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{f.name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class OperatingPoint:
    """One achievable (rate, harvested power) pair of a protocol."""

    rate: float
    harvested_power: float
    controls: ProtocolControls
    protocol: ProtocolId


_CONTROL_NAMES = tuple(f.name for f in fields(ProtocolControls))
_SWEPT = None  # marks a control the protocol leaves free in a table row


class _Protocol:
    """One protocol: its control grid and what drives each of the three bands.

    ``controls`` lists the five controls in field order, each at its pinned
    value or _SWEPT.  ``nirl`` switches the NIRL band on at the per-device
    bulb share.  ``vl`` and ``rf`` map a scenario to the band's optical
    budget and total transmit power; None switches the band off.
    ``lux_gated`` rejects VL drives outside the illuminance range.
    """

    def __init__(self, controls, nirl, vl, rf, lux_gated=False):
        named = tuple(zip(_CONTROL_NAMES, controls))
        self.free = tuple(name for name, value in named if value is _SWEPT)
        self.pins = {name: value for name, value in named if value is not _SWEPT}
        self.nirl = nirl
        self.vl = vl
        self.rf = rf
        self.lux_gated = lux_gated

    def bands_on(self):
        """On/off flags of the (NIRL, VL, RF) bands."""
        return (self.nirl, self.vl is not None, self.rf is not None)


def _dimmed_vl_budget(scenario):
    # dim drive: DC = AC peak = vl_dim_fraction * bulb power
    return 2.0 * scenario.vl_dim_fraction * scenario.vl_bulb_power


_VL_FULL = attrgetter("vl_bulb_power")
_RF_FULL = attrgetter("rf_total_tx_power")
_RF_WPT = attrgetter("rf_wpt_tx_power")

# Columns: controls (alpha_nirl, tau_nirl, alpha_vl, tau_vl, rho_rf), NIRL
# on, VL drive, RF drive.  Pure power splitting is the tau = 1 frame; an
# all-DC band is (alpha, tau) = (1, 0); inactive bands are pinned to 0 and
# never evaluated.
_TABLE = {
    ProtocolId.RF_ONLY: _Protocol((0.0, 0.0, 0.0, 0.0, _SWEPT), False, None, _RF_FULL),
    ProtocolId.VL_ONLY: _Protocol((0.0, 0.0, _SWEPT, _SWEPT, 0.0), False, _VL_FULL, None),
    ProtocolId.NIRL_ONLY: _Protocol((_SWEPT, _SWEPT, 0.0, 0.0, 0.0), True, None, None),
    ProtocolId.A: _Protocol((_SWEPT, 1.0, 1.0, 0.0, _SWEPT), True, _VL_FULL, _RF_WPT),
    ProtocolId.B: _Protocol((0.5, _SWEPT, 1.0, 0.0, _SWEPT), True, _VL_FULL, _RF_WPT),
    ProtocolId.C: _Protocol((1.0, 0.0, _SWEPT, _SWEPT, _SWEPT), True, _VL_FULL, _RF_WPT,
                            lux_gated=True),
    ProtocolId.D: _Protocol((_SWEPT, _SWEPT, 0.5, 1.0, _SWEPT), True, _dimmed_vl_budget, _RF_WPT),
}


def free_controls(protocol):
    """Names of the control axes the protocol leaves free, in field order."""
    return _TABLE[protocol].free


def controls_for(protocol, **free_values):
    """Build a control tuple from the protocol's pins plus the free values."""
    row = _TABLE[protocol]
    values = dict.fromkeys(row.free, 0.0) | row.pins
    for name, value in free_values.items():
        if name not in row.free:
            raise PinnedControlError(f"{name} is pinned for protocol {protocol.value}")
        values[name] = value
    return ProtocolControls(**values)


def _check_pins(protocol, pins, controls):
    for name, value in pins.items():
        if getattr(controls, name) != value:
            raise PinnedControlError(
                f"{name} is pinned to {value} for protocol {protocol.value}, "
                f"got {getattr(controls, name)}"
            )


@lru_cache(maxsize=None)
def _link_gains(scenario):
    h_vl = channel_gain(scenario.vl_geometry(), scenario.pd_area, scenario.optical_filter_gain)
    h_nirl = channel_gain(scenario.nirl_geometry(), scenario.pd_area, scenario.optical_filter_gain)
    return h_vl, h_nirl


def _lightwave_branch(scenario, optical_budget, gain, dc_fraction, id_time_fraction):
    """Frame-averaged (rate, harvested power) of one lightwave band."""
    dc_rx = dc_fraction * optical_budget * gain
    ac_rx = admissible_ac_peak(optical_budget, dc_fraction) * gain
    full_rx = optical_budget * gain
    rate = id_time_fraction * lightwave_rate(
        ac_rx, scenario.pd_responsivity, scenario.optical_noise_power,
        scenario.optical_bandwidth,
    )
    harvested = id_time_fraction * optical_harvest(
        dc_rx, scenario.pd_responsivity, scenario.pd_fill_factor, scenario.eh_optical
    ) + (1.0 - id_time_fraction) * optical_harvest(
        full_rx, scenario.pd_responsivity, scenario.pd_fill_factor, scenario.eh_optical
    )
    return rate, harvested


def _vl_illuminance(scenario, fraction, geometry):
    """Illuminance (lx) at the receiver plane with the VL bulb at a drive fraction."""
    return illuminance_at(fraction * scenario.vl_bulb_power, scenario.luminous_efficacy, geometry)


def _check_vl_illuminance(scenario, controls):
    # The eye averages over the frame, so the perceived level follows the
    # frame-average DC drive (the AC part has zero mean).
    avg_fraction = controls.tau_vl * controls.alpha_vl + (1.0 - controls.tau_vl)
    geometry = scenario.vl_geometry()
    level = _vl_illuminance(scenario, avg_fraction, geometry)
    limits = scenario.safety
    if level > limits.illuminance_max:
        raise InfeasibleControlsError(
            f"VL drive yields {level:.1f} lx, above {limits.illuminance_max} lx"
        )
    full = _vl_illuminance(scenario, 1.0, geometry)
    # The floor only binds when the bulb can reach it at all; otherwise the
    # shortfall is a property of the room, not of the control setting.
    if level < limits.illuminance_min <= full:
        raise InfeasibleControlsError(
            f"VL drive yields {level:.1f} lx, below {limits.illuminance_min} lx"
        )


def evaluate(scenario, protocol, controls):
    """Per-device operating point of a protocol at a concrete control setting.

    Raises PinnedControlError when a pinned control deviates and
    InfeasibleControlsError for protocol c illuminance violations.
    """
    row = _TABLE[protocol]
    _check_pins(protocol, row.pins, controls)
    if row.lux_gated:
        _check_vl_illuminance(scenario, controls)
    h_vl, h_nirl = _link_gains(scenario)
    rate = 0.0
    harvested = 0.0

    if row.nirl:
        r, e = _lightwave_branch(
            scenario, scenario.nirl_power_per_device(), h_nirl,
            controls.alpha_nirl, controls.tau_nirl,
        )
        rate += r
        harvested += e

    if row.vl is not None:
        r, e = _lightwave_branch(
            scenario, row.vl(scenario), h_vl, controls.alpha_vl, controls.tau_vl
        )
        rate += r
        harvested += e

    if row.rf is not None:
        p_rx = mean_rf_received_power(scenario, row.rf(scenario) / scenario.n_devices)
        rate += rf_rate(
            p_rx, 1.0 - controls.rho_rf, scenario.rf_noise_power, scenario.rf_bandwidth
        )
        harvested += rf_harvest(controls.rho_rf * p_rx, scenario.eh_rf)

    return OperatingPoint(rate=rate, harvested_power=harvested, controls=controls, protocol=protocol)


def enumerate_controls(protocol, grid_points_per_axis):
    """Uniform [0, 1] Cartesian grid over the protocol's free control axes."""
    if grid_points_per_axis < 2:
        raise ValueError("grid_points_per_axis must be at least 2")
    row = _TABLE[protocol]
    levels = [float(v) for v in np.linspace(0.0, 1.0, grid_points_per_axis)]
    out = []
    for combo in itertools.product(levels, repeat=len(row.free)):
        values = dict(row.pins)
        values.update(zip(row.free, combo))
        out.append(ProtocolControls(**values))
    return out
