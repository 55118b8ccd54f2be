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
from contextlib import suppress
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .channel_optical import channel_gain, illuminance_at
from .channel_rf import mean_rf_received_power
from .harvest import optical_harvest, rf_harvest
from .link_rates import admissible_ac_peak, lightwave_rate, rf_rate
from .scenario import Scenario, ScenarioValidationError


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
    value or _SWEPT, in any pattern.  ``free`` names the swept ones and
    ``pins`` holds the (index, value) of the others, both in field order; a
    pin outside [0, 1] is ProtocolControls' ValueError, raised here.
    ``nirl``, ``vl`` and ``rf`` map a scenario to the band's drive: the
    NIRL and VL optical budgets per device and the RF total transmit power;
    None switches the band off.  ``lightwave`` lists the (name, drive,
    index of its alpha control) of each lightwave band that is on, NIRL
    first, the order in which both engines add them.  ``lux_gated`` rejects
    VL drives outside the illuminance range.
    """

    def __init__(self, controls, nirl, vl, rf, lux_gated=False):
        self.controls = tuple(controls)
        self.free = tuple(name for name, value in zip(_CONTROL_NAMES, controls) if value is _SWEPT)
        self.pins = tuple((k, value) for k, value in enumerate(controls) if value is not _SWEPT)
        _check_unit((_CONTROL_NAMES[k], value) for k, value in self.pins)
        self.rf = rf
        # a lightwave band's tau control follows its alpha
        bands = (("NIRL", nirl, 0), ("VL", vl, 2))
        self.lightwave = tuple(band for band in bands if band[1] is not None)
        self.lux_gated = lux_gated


def _dimmed_vl_budget(scenario):
    # dim drive: DC = AC peak = vl_dim_fraction * bulb power
    return 2.0 * scenario.vl_dim_fraction * scenario.vl_bulb_power


_NIRL = Scenario.nirl_power_per_device
_VL_FULL = attrgetter("vl_bulb_power")
_RF_FULL = attrgetter("rf_total_tx_power")
_RF_WPT = attrgetter("rf_wpt_tx_power")

# Columns: controls (alpha_nirl, tau_nirl, alpha_vl, tau_vl, rho_rf), NIRL
# drive, VL drive, RF drive.  Pure power splitting is the tau = 1 frame; an
# all-DC band is (alpha, tau) = (1, 0); inactive bands are pinned to 0 and
# never evaluated.
_TABLE = {
    ProtocolId.RF_ONLY: _Protocol((0.0, 0.0, 0.0, 0.0, _SWEPT), None, None, _RF_FULL),
    ProtocolId.VL_ONLY: _Protocol((0.0, 0.0, _SWEPT, _SWEPT, 0.0), None, _VL_FULL, None),
    ProtocolId.NIRL_ONLY: _Protocol((_SWEPT, _SWEPT, 0.0, 0.0, 0.0), _NIRL, None, None),
    ProtocolId.A: _Protocol((_SWEPT, 1.0, 1.0, 0.0, _SWEPT), _NIRL, _VL_FULL, _RF_WPT),
    ProtocolId.B: _Protocol((0.5, _SWEPT, 1.0, 0.0, _SWEPT), _NIRL, _VL_FULL, _RF_WPT),
    ProtocolId.C: _Protocol((1.0, 0.0, _SWEPT, _SWEPT, _SWEPT), _NIRL, _VL_FULL, _RF_WPT,
                            lux_gated=True),
    ProtocolId.D: _Protocol((_SWEPT, _SWEPT, 0.5, 1.0, _SWEPT), _NIRL, _dimmed_vl_budget, _RF_WPT),
}


def free_controls(protocol):
    """Names of the control axes the protocol leaves free, in field order."""
    return _TABLE[protocol].free


def controls_for(protocol, **free_values):
    """Build a control tuple from the protocol's pins plus the free values."""
    row = _TABLE[protocol]
    values = dict(zip(_CONTROL_NAMES, (0.0 if v is _SWEPT else v for v in row.controls)))
    for name in free_values:
        if name in values and name not in row.free:
            raise PinnedControlError(f"{name} is pinned for protocol {protocol.value}")
    # an unknown name is ProtocolControls' TypeError
    return ProtocolControls(**values | free_values)


def _lightwave_levels(scenario, optical_budget, gain, dc_fraction):
    """(ID-slot rate, ID-slot harvest, all-DC harvest) of one lightwave band at a DC bias."""
    dc_rx = dc_fraction * optical_budget * gain
    ac_rx = admissible_ac_peak(optical_budget, dc_fraction) * gain
    pd = scenario.pd_responsivity, scenario.pd_fill_factor, scenario.eh_optical
    return (lightwave_rate(ac_rx, scenario.pd_responsivity, scenario.optical_noise_power,
                           scenario.optical_bandwidth),
            optical_harvest(dc_rx, *pd), optical_harvest(optical_budget * gain, *pd))


def _rf_branch(scenario, tx_power, rho):
    """(rate, harvested power) of the RF band at a total transmit power."""
    p_rx = mean_rf_received_power(scenario, tx_power / scenario.n_devices)
    rate = rf_rate(p_rx, 1.0 - rho, scenario.rf_noise_power, scenario.rf_bandwidth)
    return rate, rf_harvest(rho * p_rx, scenario.eh_rf)


def _band_error(band, cause):
    """evaluate's error for a band's kernel ArithmeticError or inf or NaN term."""
    what = (f"{type(cause).__name__} ({cause})" if isinstance(cause, ArithmeticError)
            else f"a non-finite (rate, harvested power) = {cause}")
    return ScenarioValidationError(f"the {band} band yields {what}; "
                                   "the scenario's model constants are out of range")


class SweepBudgetError(ValueError):
    """A protocol's engine would build more than _MAX_SWEEP_TUPLES tuples at one go."""


# Tuples an engine may build for one protocol at one go (tuples_built), grid 128 on
# three axes.  The in-memory sweep keeps 16 bytes of rate and harvest a point and 3-4
# of its free controls' indices, none of its pinned ones' (40-42 MB at the bound);
# compare holds a block of about region._FRONTIER_BLOCK band terms, 16 bytes each, and
# the frontiers.  region streams its sweep, so it peaks at start-up plus one block of
# region._STREAM_BLOCK tuples plus the frontier: 38.3 MB of RSS for region d --grid 128
# and 32.7 MB for vl --grid 1448.  rf --grid 2097152 peaks at 230.1 MB: its frontier
# is every point, and while it sweeps, its rho_rf axis is 64 MB of Python floats.
_MAX_SWEEP_TUPLES = 1 << 21

# Entries of the RF memo.  rho_rf is the grid's fastest axis, so a sweep
# reuses a lightwave term only on consecutive tuples (the lightwave memo
# holds one) and the RF terms of every rho_rf level across lightwave
# tuples.  A sweep that reuses them has at least two free axes, so at
# most isqrt(_MAX_SWEEP_TUPLES) == 1,448 rho_rf levels, and never clears.
_MEMO_SIZE = math.isqrt(_MAX_SWEEP_TUPLES)


def tuples_built(protocol, grid_points_per_axis, merged=False):
    """How many tuples a protocol's engine builds at one go at a grid: one per
    grid point for sweep, and for compare's band merge (``merged``) of a row
    without RF, which it sweeps; for the merge of a row that drives RF, the
    larger of its lightwave tuples and its rho_rf levels, built apart.  Raises
    ValueError below grid 2 and SweepBudgetError above _MAX_SWEEP_TUPLES."""
    if grid_points_per_axis < 2:
        raise ValueError("grid_points_per_axis must be at least 2")
    row, grid = _TABLE[protocol], grid_points_per_axis
    apart = merged and row.rf is not None and "rho_rf" in row.free
    tuples = max(grid ** (len(row.free) - apart), grid ** apart)
    if tuples > _MAX_SWEEP_TUPLES:
        raise SweepBudgetError(f"protocol {protocol.value} at grid {grid} has {tuples:,} control "
                               f"tuples; a sweep may evaluate at most {_MAX_SWEEP_TUPLES:,}")
    return tuples


class _Bands:
    """One scenario's context: both engines reach the band kernels through it.

    A lightwave band's terms depend on alpha alone, through three levels (the
    ID-slot rate and harvest, the all-DC harvest).  ``levels`` memoises them,
    _lightwave_levels over the band's link gain, by (band name, drive,
    alpha) with one entry a band, as alpha lies outside tau in grid order.
    evaluate frames a level over its tau, _band_blocks over the tau axis, in
    one operand order.  Both read protocol c's lux gate (``lux``: the VL
    geometry and the full-drive illuminance) and ``rf``, which puts the RF term
    of a (drive, rho_rf) key in the RF memo ``rf_terms``, a dict cleared when it
    holds _MEMO_SIZE terms.  ``lightwave`` gives a row's (lux violation or None,
    rate, harvested power) at a control tuple, the lightwave bands' terms added
    from 0.0; for a row that drives RF, evaluate keeps the last in ``last`` as
    (row, alpha_nirl, tau_nirl, alpha_vl, tau_vl, term), which a tuple hits only
    when the row and all four controls are the same objects.  Consecutive grid
    tuples share them, so a sweep computes the terms once per distinct band
    tuple, not once per grid point.  The memos are bounded and closed over the
    scenario, so they die with it; a miss looks its kernels up here.
    """

    __slots__ = ("lux", "levels", "lightwave", "rf", "rf_terms", "last")

    def __init__(self, scenario):
        vl_geometry, limits = scenario.vl_geometry(), scenario.safety
        gains = {name: channel_gain(geometry, scenario.pd_area, scenario.optical_filter_gain)
                 for name, geometry in (("VL", vl_geometry), ("NIRL", scenario.nirl_geometry()))}
        full = illuminance_at(scenario.vl_bulb_power, scenario.luminous_efficacy, vl_geometry)
        # The floor only binds when the bulb can reach it at all; otherwise the
        # shortfall is a property of the room, not of the control setting.
        floor_binds = limits.illuminance_min <= full

        def lux(alpha_vl, tau_vl):
            """(level, above, below) of a VL drive, of floats or arrays: its illuminance
            (lx) and whether it lies above the ceiling or below a reachable floor.  The
            eye averages over the frame, so the level follows the frame-average DC drive
            (the AC part has zero mean)."""
            avg_fraction = tau_vl * alpha_vl + (1.0 - tau_vl)
            level = illuminance_at(avg_fraction * scenario.vl_bulb_power,
                                   scenario.luminous_efficacy, vl_geometry)
            return (level, level > limits.illuminance_max,
                    (level < limits.illuminance_min) & floor_binds)

        @lru_cache(maxsize=2)
        def levels(name, drive, alpha):
            return _lightwave_levels(scenario, drive(scenario), gains[name], alpha)

        def lightwave(row, controls):
            if row.lux_gated:
                level, above, below = lux(controls[2], controls[3])
                if above or below:
                    bound = (f"above {limits.illuminance_max}" if above
                             else f"below {limits.illuminance_min}")
                    return f"VL drive yields {level:.1f} lx, {bound} lx", 0.0, 0.0
            rate = harvested = 0.0
            for name, drive, k in row.lightwave:
                try:  # a raising kernel is not cached, so it raises at every tau
                    r, e, full = levels(name, drive, controls[k])
                except ArithmeticError as exc:
                    raise _band_error(name, exc) from None
                tau = controls[k + 1]
                r, e = tau * r, tau * e + (1.0 - tau) * full
                if not (math.isfinite(r) and math.isfinite(e)):
                    raise _band_error(name, (r, e))
                rate += r
                harvested += e
            return None, rate, harvested

        rf_terms = {}
        def rf(key):
            power, rho = key
            try:
                r, e = _rf_branch(scenario, power(scenario), rho)
            except ArithmeticError as exc:
                raise _band_error("RF", exc) from None
            if not (math.isfinite(r) and math.isfinite(e)):
                raise _band_error("RF", (r, e))
            if len(rf_terms) >= _MEMO_SIZE:
                rf_terms.clear()
            rf_terms[key] = r, e
            return r, e

        self.lux, self.levels = lux, levels
        self.lightwave, self.rf, self.rf_terms = lightwave, rf, rf_terms
        self.last = (None,) * 6  # no row is None


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
    for k, value in row.pins:
        if controls[k] != value:
            raise PinnedControlError(f"{_CONTROL_NAMES[k]} is pinned to {value} for protocol "
                                     f"{protocol.value}, got {controls[k]}")
    alpha_nirl, tau_nirl, alpha_vl, tau_vl, rho_rf = controls
    last, bands = _last_bands
    if last is not scenario:
        bands = _Bands(scenario)
        _last_bands = (scenario, bands)
    if row.rf is None:  # rho_rf is pinned, so no two grid tuples share a lightwave term
        term = bands.lightwave(row, controls)
    else:  # read once, replaced whole: a key is never paired with another key's term
        held, a_nirl, t_nirl, a_vl, t_vl, term = bands.last
        if not (held is row and a_nirl is alpha_nirl and t_nirl is tau_nirl
                and a_vl is alpha_vl and t_vl is tau_vl):
            term = bands.lightwave(row, controls)
            bands.last = row, alpha_nirl, tau_nirl, alpha_vl, tau_vl, term
    violation, rate, harvested = term
    if violation is not None:
        raise InfeasibleControlsError(violation)

    if row.rf is not None:
        key = row.rf, rho_rf
        r, e = bands.rf_terms.get(key) or bands.rf(key)
        rate += r
        harvested += e

    # finite band terms can still overflow when added
    if not (math.isfinite(rate) and math.isfinite(harvested)):
        raise ScenarioValidationError(
            f"the summed band terms are non-finite: (rate, harvested power) = "
            f"({rate}, {harvested}); the scenario's model constants are out of range"
        )
    return tuple.__new__(OperatingPoint, (rate, harvested, controls, protocol))


class _Grid:
    """A protocol's five control ``axes`` and their tuples, built one at a time."""

    __slots__ = ("axes",)

    def __init__(self, axes):
        self.axes = axes

    def __len__(self):
        return math.prod(map(len, self.axes))

    def __iter__(self):
        # swept levels come from linspace(0, 1) and the row checked its pins when
        # it was built, so every level lies in [0, 1] and no tuple needs __new__
        return map(tuple.__new__, itertools.repeat(ProtocolControls),
                   itertools.product(*self.axes))


def _axes(protocol, grid_points_per_axis):
    """The protocol's five control axes: the grid's levels where swept, else the pin."""
    row = _TABLE[protocol]
    # a tuple, which itertools.product takes as its pool without copying it
    levels = tuple(np.linspace(0.0, 1.0, grid_points_per_axis).tolist())
    # A pinned axis is a one-level axis, so the product runs over the free
    # axes in the same order and yields full positional control tuples.
    return [levels if value is _SWEPT else (value,) for value in row.controls]


def enumerate_controls(protocol, grid_points_per_axis):
    """Uniform [0, 1] Cartesian grid over the protocol's free control axes, as a
    sized, re-iterable view; tuples_built's errors come before any level."""
    tuples_built(protocol, grid_points_per_axis)
    return _Grid(_axes(protocol, grid_points_per_axis))


def _band_blocks(scenario, protocol, grid_points_per_axis, block):
    """The (rate, harvested power) rows of a protocol that drives the RF band, in
    blocks (lightwave, rf): a block's lightwave tuples that c's lux gate keeps, in
    grid order, the bands added from 0.0 as evaluate adds them, and the rho_rf levels.

    A block is a run of whole rows of the first lightwave axis with more than one
    level, about ``block`` tuples; one the lux gate rejects whole is skipped, and RF
    terms are computed at the first block kept.  Reads its own _Bands context, never
    evaluate's, and each lightwave kernel once per alpha; the first grid tuple whose
    term or sum is inf or NaN raises evaluate's error.
    """
    tuples_built(protocol, grid_points_per_axis, merged=True)
    *axes, rho_levels = _axes(protocol, grid_points_per_axis)
    row, bands, rf, levels = _TABLE[protocol], _Bands(scenario), None, {}
    for name, drive, k in row.lightwave:  # NaN where the kernels raised
        levels[k] = np.full((len(axes[k]), 3), math.nan)
        for i, alpha in enumerate(axes[k]):  # alphas stay floats for the kernels
            with suppress(ArithmeticError):
                levels[k][i] = bands.levels(name, drive, alpha)
    split = next((k for k, axis in enumerate(axes) if len(axis) > 1), 0)
    rows = max(1, block // math.prod(map(len, axes[split + 1:])))
    for start in range(0, len(axes[split]), rows):
        with np.errstate(all="ignore"):  # in the body, a block at a time: not across a yield
            part = [slice(start, start + rows) if k == split else slice(None) for k in range(4)]
            lightwave = [axis[s] for axis, s in zip(axes, part)]  # the block's own axes
            feasible = np.ones(tuple(map(len, lightwave)), dtype=bool)
            if row.lux_gated:  # the (alpha_vl, tau_vl) plane broadcasts over the last two axes
                _, above, below = bands.lux(np.array(lightwave[2])[:, None], np.array(lightwave[3]))
                feasible &= ~(above | below)
            if not feasible.any():
                continue
            terms = np.zeros((2, *feasible.shape))  # (rate or harvest, *lightwave tuple)
            for _, _, k in row.lightwave:
                r, e, full = levels[k][part[k]].T[..., None]  # each (alphas, 1)
                taus = np.array(lightwave[k + 1])
                frame = (*(1,) * k, len(r), len(taus), *(1,) * (2 - k))  # in the block's axes
                terms[0] += (taus * r).reshape(frame)
                terms[1] += (taus * e + (1.0 - taus) * full).reshape(frame)
            if rf is None:  # inf kept where it raised, so each sum fails
                rf = np.full((len(rho_levels), 2), math.inf)
                with suppress(ScenarioValidationError):
                    for k, rho in enumerate(rho_levels):
                        rf[k] = bands.rf((row.rf, rho))
            feasible, terms = feasible.ravel(), terms.reshape(2, -1).T
            # Correctly rounded addition never decreases when an addend grows, so a
            # lightwave term's sums with the RF minima and maxima bound its others.
            finite = np.isfinite(terms + rf.min(0)) & np.isfinite(terms + rf.max(0))
            failing = feasible & ~finite.all(1)
            if failing.any():  # no earlier tuple fails, so the grid's first failing one is here
                values = next(itertools.islice(itertools.product(*lightwave), failing.argmax(), None))
                for rho in rho_levels:
                    evaluate(scenario, protocol, tuple.__new__(ProtocolControls, (*values, rho)))
                raise AssertionError("a band sum failed, but evaluate did not")
            terms = terms[feasible]  # all the block holds while its rows are out
        yield terms, rf
