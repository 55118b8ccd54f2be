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
import math
from functools import lru_cache, partial
from operator import attrgetter, itemgetter
from typing import NamedTuple

import numpy as np

from .channel_optical import channel_gain, illuminance_at
from .channel_rf import mean_rf_received_power
from .harvest import optical_harvest, rf_harvest
from .link_rates import admissible_ac_peak, lightwave_rate, rf_rate
from .scenario import ScenarioValidationError


class ProtocolId(enum.Enum):
    # members are singletons, so _TABLE lookups need not call Enum.__hash__
    __hash__ = object.__hash__

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


class _Controls(NamedTuple):
    alpha_nirl: float  # NIRL DC fraction
    tau_nirl: float    # NIRL ID time fraction
    alpha_vl: float    # VL DC fraction
    tau_vl: float      # VL ID time fraction
    rho_rf: float      # RF power-splitting factor (EH share)


_CONTROL_NAMES = _Controls._fields


def _check_unit(named_values):
    for name, value in named_values:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")


class ProtocolControls(_Controls):
    """Free variables of a protocol; pinned fields carry their pinned values.

    A tuple: build one by position or keyword, change one with ``_replace``.
    Every constructor checks that each control lies in [0, 1].
    """

    __slots__ = ()

    def __new__(cls, alpha_nirl, tau_nirl, alpha_vl, tau_vl, rho_rf):
        values = (alpha_nirl, tau_nirl, alpha_vl, tau_vl, rho_rf)
        _check_unit(zip(_CONTROL_NAMES, values))
        return tuple.__new__(cls, values)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, skips __new__
        return cls(*iterable)


class OperatingPoint(NamedTuple):
    """One achievable (rate, harvested power) pair of a protocol."""

    rate: float
    harvested_power: float
    controls: ProtocolControls
    protocol: ProtocolId


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
        # pinned(controls) == pin_values is the per-call pin check
        self.pinned = itemgetter(*(k for k, value in enumerate(controls) if value is not _SWEPT))
        self.controls = tuple(controls)
        self.pin_values = self.pinned(self.controls)
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


def _rf_branch(scenario, tx_power, rho):
    """(rate, harvested power) of the RF band at a total transmit power."""
    p_rx = mean_rf_received_power(scenario, tx_power / scenario.n_devices)
    rate = rf_rate(p_rx, 1.0 - rho, scenario.rf_noise_power, scenario.rf_bandwidth)
    return rate, rf_harvest(rho * p_rx, scenario.eh_rf)


def _lux_violation(scenario, geometry, full, alpha_vl, tau_vl):
    """Why a VL drive leaves the illuminance range, or None when it does not.

    geometry is the VL link's, full the illuminance (lx) at full drive.
    """
    # The eye averages over the frame, so the perceived level follows the
    # frame-average DC drive (the AC part has zero mean).
    avg_fraction = tau_vl * alpha_vl + (1.0 - tau_vl)
    level = illuminance_at(avg_fraction * scenario.vl_bulb_power, scenario.luminous_efficacy,
                           geometry)
    limits = scenario.safety
    if level > limits.illuminance_max:
        return f"VL drive yields {level:.1f} lx, above {limits.illuminance_max} lx"
    # The floor only binds when the bulb can reach it at all; otherwise the
    # shortfall is a property of the room, not of the control setting.
    if level < limits.illuminance_min <= full:
        return f"VL drive yields {level:.1f} lx, below {limits.illuminance_min} lx"
    return None


def _finite(band, kernel, *args):
    """A band's (rate, harvested power) = kernel(*args), rejecting overflow, inf and NaN."""
    try:
        term = kernel(*args)
        if math.isfinite(term[0]) and math.isfinite(term[1]):
            return term
        what = f"a non-finite (rate, harvested power) = {term}"
    except ArithmeticError as exc:
        what = f"{type(exc).__name__} ({exc})"
    raise ScenarioValidationError(f"the {band} band yields {what}; "
                                  "the scenario's model constants are out of range")


# Entries per memo.  A sweep reuses a lightwave term only along a free
# rho_rf axis.  With rho_rf free, _MAX_SWEEP_TUPLES admits at most
# 128**2 == 16,384 lightwave tuples (and 1,448 rho_rf levels), so such a
# sweep never evicts; with rho_rf pinned it visits each lightwave tuple
# once, so no memo size would help it.
_MEMO_SIZE = 1 << 14


class _Bands:
    """One scenario's band terms, memoised per band control tuple.

    The lightwave memo maps a protocol row and (alpha_nirl, tau_nirl,
    alpha_vl, tau_vl) to (lux violation or None, rate, harvested power),
    the NIRL then the VL term added from 0.0 as evaluate adds them; the RF
    memo maps (drive, rho_rf) to the RF term.  A sweep therefore computes
    the terms once per distinct band tuple, not once per grid point.  The
    memos are bounded and closed over the scenario and the constants derived
    from it once (link gains, NIRL budget, VL geometry and full-drive
    illuminance), so they die with this context.  The kernels are looked up
    in this module on every miss.
    """

    __slots__ = ("lightwave", "rf")

    def __init__(self, scenario):
        h_vl, h_nirl = _link_gains(scenario)
        nirl_budget = scenario.nirl_power_per_device()
        vl_geometry = scenario.vl_geometry()
        full_lux = illuminance_at(scenario.vl_bulb_power, scenario.luminous_efficacy, vl_geometry)
        memo = lru_cache(maxsize=_MEMO_SIZE)

        @memo
        def lightwave(row, alpha_nirl, tau_nirl, alpha_vl, tau_vl):
            if row.lux_gated:
                violation = _lux_violation(scenario, vl_geometry, full_lux, alpha_vl, tau_vl)
                if violation is not None:
                    return violation, 0.0, 0.0
            rate = 0.0
            harvested = 0.0
            if row.nirl:
                r, e = _finite("NIRL", _lightwave_branch, scenario, nirl_budget, h_nirl,
                               alpha_nirl, tau_nirl)
                rate += r
                harvested += e
            if row.vl is not None:
                r, e = _finite("VL", _lightwave_branch, scenario, row.vl(scenario), h_vl,
                               alpha_vl, tau_vl)
                rate += r
                harvested += e
            return None, rate, harvested

        @memo
        def rf(power, rho):
            return _finite("RF", _rf_branch, scenario, power(scenario), rho)

        self.lightwave, self.rf = lightwave, rf


# The last scenario and its band context, compared by identity so the
# frozen Scenario is never hashed.  One tuple, replaced whole, so a reader
# never pairs one scenario with another's context.
_last_bands = (None, None)


def evaluate(scenario, protocol, controls):
    """Per-device operating point of a protocol at a concrete control setting.

    Raises TypeError when controls is not a ProtocolControls,
    PinnedControlError when a pinned control deviates,
    InfeasibleControlsError for protocol c illuminance violations and
    ScenarioValidationError when a band term, or the sum of the bands,
    comes out inf or NaN.
    """
    global _last_bands
    # A bare tuple would bypass the [0, 1] check of ProtocolControls.
    if type(controls) is not ProtocolControls:
        raise TypeError(f"controls must be a ProtocolControls, got {type(controls).__name__}")
    row = _TABLE[protocol]
    if row.pinned(controls) != row.pin_values:
        _check_pins(protocol, row.pins, controls)
    alpha_nirl, tau_nirl, alpha_vl, tau_vl, rho_rf = controls
    last, bands = _last_bands
    if last is not scenario:
        bands = _Bands(scenario)
        _last_bands = (scenario, bands)
    violation, rate, harvested = bands.lightwave(row, alpha_nirl, tau_nirl, alpha_vl, tau_vl)
    if violation is not None:
        raise InfeasibleControlsError(violation)

    if row.rf is not None:
        r, e = bands.rf(row.rf, rho_rf)
        rate += r
        harvested += e

    # finite band terms can still overflow when added
    if not (math.isfinite(rate) and math.isfinite(harvested)):
        raise ScenarioValidationError(
            f"the summed band terms are non-finite: (rate, harvested power) = "
            f"({rate}, {harvested}); the scenario's model constants are out of range"
        )
    return tuple.__new__(OperatingPoint, (rate, harvested, controls, protocol))


class SweepBudgetError(ValueError):
    """A control grid holds more tuples than one sweep may evaluate."""


# Control tuples one sweep may evaluate.  A swept point keeps 56 bytes of
# float64 columns, so the largest admitted region holds about 117 MB; the
# bound admits grid 128 on three free axes (128**3 == 2**21).
_MAX_SWEEP_TUPLES = 1 << 21


class _Grid:
    """A protocol's control tuples, built one at a time as they are iterated."""

    __slots__ = ("_axes",)

    def __init__(self, axes):
        self._axes = axes

    def __len__(self):
        return math.prod(map(len, self._axes))

    def __iter__(self):
        # enumerate_controls checked every level, so no tuple needs __new__
        return map(tuple.__new__, itertools.repeat(ProtocolControls),
                   itertools.product(*self._axes))

    def columns(self, skip):
        """Each control's float64 column over the tuples in order, less the positions in skip."""
        keep = np.ones(len(self), dtype=bool)
        keep[skip] = False
        views = np.meshgrid(*self._axes, indexing="ij", copy=False)
        return tuple(view[keep.reshape(view.shape)] for view in views)


def _axes(protocol, grid_points_per_axis):
    """The protocol's five control axes, after the checks enumerate_controls names."""
    if grid_points_per_axis < 2:
        raise ValueError("grid_points_per_axis must be at least 2")
    row = _TABLE[protocol]
    tuples = grid_points_per_axis ** len(row.free)
    if tuples > _MAX_SWEEP_TUPLES:
        raise SweepBudgetError(
            f"protocol {protocol.value} at grid {grid_points_per_axis} has {tuples:,} "
            f"control tuples; a sweep may evaluate at most {_MAX_SWEEP_TUPLES:,}"
        )
    levels = [float(v) for v in np.linspace(0.0, 1.0, grid_points_per_axis)]
    # A pinned axis is a one-level axis, so the product runs over the free
    # axes in the same order and yields full positional control tuples.
    axes = [levels if value is _SWEPT else (value,) for value in row.controls]
    _check_unit((name, value) for name, axis in zip(_CONTROL_NAMES, axes) for value in axis)
    return axes


def enumerate_controls(protocol, grid_points_per_axis):
    """Uniform [0, 1] Cartesian grid over the protocol's free control axes.

    Returns a sized, re-iterable view of the grid.  Raises
    SweepBudgetError, before any level is built, when the grid holds more
    than _MAX_SWEEP_TUPLES tuples.
    """
    return _Grid(_axes(protocol, grid_points_per_axis))


def _band_terms(scenario, protocol, grid_points_per_axis):
    """The lightwave terms, (lux violation or None, rate, harvested power) of
    each lightwave tuple in grid order, and the RF terms of each rho_rf
    level, or None when every lightwave tuple is rejected, of a protocol
    that drives the RF band.  The band context is its own, not evaluate's,
    and only its RF terms are memoised: nothing reads a lightwave term twice.
    """
    *lightwave_axes, rho_levels = _axes(protocol, grid_points_per_axis)
    row = _TABLE[protocol]
    bands = _Bands(scenario)
    lightwave = list(itertools.starmap(partial(bands.lightwave.__wrapped__, row),
                                       itertools.product(*lightwave_axes)))
    if all(violation is not None for violation, _, _ in lightwave):
        return lightwave, None
    return lightwave, [bands.rf(row.rf, rho) for rho in rho_levels]
