"""Simulation configuration: defaults, validation, and the scenario file format.

A scenario file is plain UTF-8 text with one ``key = value`` pair per line
and ``#`` comments.  Keys match the field names below (the energy-harvest
and safety sub-model fields live in the same flat namespace).  Angles are
in degrees, powers in W, distances in m.  Unset keys fall back to the
default scenario.
"""

import dataclasses
import math
from dataclasses import dataclass, field

from .channel_optical import (OpticalGeometry, channel_gain, check_semi_angle, illuminance_at,
                              irradiance_at)


class ScenarioError(ValueError):
    """Base class for scenario file and validation problems."""


class ScenarioParseError(ScenarioError):
    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ScenarioValidationError(ScenarioError):
    pass


def dbm_to_watts(dbm):
    return 10.0 ** (dbm / 10.0 - 3.0)


def _require_positive(obj, names, prefix=""):
    """Reject any named field of obj that is not finite and positive."""
    for name in names:
        value = getattr(obj, name)
        if not (math.isfinite(value) and value > 0.0):
            raise ScenarioValidationError(
                f"{prefix}{name} must be finite and positive, got {value}"
            )


@dataclass(frozen=True)
class EhRfModel:
    """Logistic RF rectifier parameters: saturation level, steepness, turn-on."""

    p_sat: float = 0.024
    a: float = 150.0
    b: float = 0.014

    def __post_init__(self):
        _require_positive(self, ("p_sat", "a", "b"), "eh_rf.")


@dataclass(frozen=True)
class EhOpticalModel:
    """Photovoltaic open-circuit model constants."""

    thermal_voltage: float = 0.025
    dark_saturation_current: float = 1e-9

    def __post_init__(self):
        _require_positive(self, ("thermal_voltage", "dark_saturation_current"), "eh_optical.")


@dataclass(frozen=True)
class SafetyLimits:
    """Regulatory limits: SAR power budget, NIRL irradiance, VL illuminance."""

    sar_power_budget: float = 4.8
    sar_window: float = 360.0
    nirl_irradiance_limit: float = 0.005
    illuminance_min: float = 200.0
    illuminance_max: float = 1000.0
    nirl_beam_avoids_body: bool = True

    def __post_init__(self):
        _require_positive(
            self, ("sar_power_budget", "sar_window", "nirl_irradiance_limit"), "safety."
        )
        if not self.illuminance_min < self.illuminance_max:
            raise ScenarioValidationError(
                "safety.illuminance_min must be below safety.illuminance_max"
            )


@dataclass(frozen=True)
class Scenario:
    """Full parameterization of transmitters, devices, channels and limits.

    Immutable and hashable; safe to share across workers.
    """

    # RF transmitter and channel
    n_rf_antennas: int = 4
    rf_total_tx_power: float = dbm_to_watts(20.0)
    rf_wpt_tx_power: float = dbm_to_watts(16.0)
    rician_k: float = 10.0 ** 0.6
    pathloss_exponent: float = 2.6
    rf_noise_power: float = 1e-12
    rf_bandwidth: float = 1e7
    # geometry
    rf_distance: float = 4.0
    optical_distance: float = 2.05
    # optical transmitters
    vl_bulb_power: float = 22.0
    vl_semi_angle: float = 60.0
    nirl_bulb_power: float = 66.0
    nirl_semi_angle: float = 15.0
    n_devices: int = 3
    incidence_angle_vl: float = 60.0
    irradiance_angle_vl: float = 60.0
    incidence_angle_nirl: float = 60.0
    irradiance_angle_nirl: float = 0.0  # angle-diversity elements aim at the devices
    # photodetector and optical receive chain
    pd_area: float = 85e-4
    pd_responsivity: float = 0.4
    pd_fill_factor: float = 0.75
    optical_noise_power: float = 1e-15
    optical_filter_gain: float = 1.0
    optical_bandwidth: float = 1e8
    # energy-harvest models and safety limits
    eh_rf: EhRfModel = field(default_factory=EhRfModel)
    eh_optical: EhOpticalModel = field(default_factory=EhOpticalModel)
    safety: SafetyLimits = field(default_factory=SafetyLimits)
    luminous_efficacy: float = 120.0
    vl_dim_fraction: float = 0.1
    # Monte Carlo control
    mc_samples: int = 1000
    rng_seed: int = 42

    def __post_init__(self):
        _validate(self)

    def vl_geometry(self):
        return OpticalGeometry(self.optical_distance, self.irradiance_angle_vl,
                               self.incidence_angle_vl, self.vl_semi_angle)

    def nirl_geometry(self):
        return OpticalGeometry(self.optical_distance, self.irradiance_angle_nirl,
                               self.incidence_angle_nirl, self.nirl_semi_angle)

    def nirl_power_per_device(self):
        """The angle-diversity bulb splits its power equally across devices."""
        return self.nirl_bulb_power / self.n_devices


_POSITIVE_FIELDS = (
    "rf_total_tx_power",
    "rf_wpt_tx_power",
    "pathloss_exponent",
    "rf_noise_power",
    "rf_bandwidth",
    "rf_distance",
    "optical_distance",
    "vl_bulb_power",
    "nirl_bulb_power",
    "pd_area",
    "optical_noise_power",
    "optical_filter_gain",
    "optical_bandwidth",
    "luminous_efficacy",
)
_ANGLE_FIELDS = (
    "incidence_angle_vl",
    "irradiance_angle_vl",
    "incidence_angle_nirl",
    "irradiance_angle_nirl",
)
_UNIT_INTERVAL_FIELDS = ("pd_responsivity", "pd_fill_factor")
# Fading-ensemble budget, checked before any draw.  A build costs about
# 37 ns per channel entry plus 0.8 us per fading vector (one vdot and one
# add), i.e. as much as _ENSEMBLE_VECTOR_ENTRIES entries (fitted over 1-128
# antennas on a 2-vCPU host).  Bounding entries plus that per-vector share
# makes the largest admitted ensemble take about 2 s at any antenna count.
_ENSEMBLE_VECTOR_ENTRIES = 22
_MAX_ENSEMBLE_COST = 50_000_000
# Antennas per fading vector; bounds one 512-vector draw chunk to 16 MB.
_MAX_RF_ANTENNAS = 1024


def _validate(s):
    if not 1 <= s.n_rf_antennas <= _MAX_RF_ANTENNAS:
        raise ScenarioValidationError(
            f"n_rf_antennas must lie in [1, {_MAX_RF_ANTENNAS}], got {s.n_rf_antennas}"
        )
    if s.n_devices < 1:
        raise ScenarioValidationError("n_devices must be at least 1")
    if s.mc_samples < 1:
        raise ScenarioValidationError("mc_samples must be at least 1")
    if s.mc_samples * (s.n_rf_antennas + _ENSEMBLE_VECTOR_ENTRIES) > _MAX_ENSEMBLE_COST:
        raise ScenarioValidationError(
            f"mc_samples * n_rf_antennas + {_ENSEMBLE_VECTOR_ENTRIES} * mc_samples must be "
            f"at most {_MAX_ENSEMBLE_COST:,}, got {s.mc_samples:,} * "
            f"({s.n_rf_antennas:,} + {_ENSEMBLE_VECTOR_ENTRIES})"
        )
    if s.rng_seed < 0:
        raise ScenarioValidationError("rng_seed must be nonnegative")
    if not (math.isfinite(s.rician_k) and s.rician_k >= 0.0):
        raise ScenarioValidationError("rician_k must be finite and nonnegative")
    _require_positive(s, _POSITIVE_FIELDS)
    if s.rf_distance < 1.0:
        raise ScenarioValidationError(
            f"rf_distance must be at least 1 m, the path-loss reference distance, "
            f"got {s.rf_distance}"
        )
    for name in _ANGLE_FIELDS:
        value = getattr(s, name)
        if not 0.0 <= value < 90.0:
            raise ScenarioValidationError(f"{name} must lie in [0, 90) degrees, got {value}")
    for name in ("vl_semi_angle", "nirl_semi_angle"):
        check_semi_angle(name, getattr(s, name), ScenarioValidationError)
    for name in _UNIT_INTERVAL_FIELDS:
        value = getattr(s, name)
        if not 0.0 < value <= 1.0:
            raise ScenarioValidationError(f"{name} must lie in (0, 1], got {value}")
    if not 0.0 < s.vl_dim_fraction < 1.0:
        raise ScenarioValidationError(
            f"vl_dim_fraction must lie in (0, 1), got {s.vl_dim_fraction}"
        )
    _check_derived(s)


def _check_derived(s):
    # Once per scenario, never per control tuple.  A zero gain (grazing incidence) is legal.
    vl, nirl = s.vl_geometry(), s.nirl_geometry()
    links = "optical_distance, pd_area and optical_filter_gain"
    for keys, what, quantity, *args in (
            (links, "VL link gain", channel_gain, vl, s.pd_area, s.optical_filter_gain),
            (links, "NIRL link gain", channel_gain, nirl, s.pd_area, s.optical_filter_gain),
            ("vl_bulb_power, luminous_efficacy and optical_distance", "full-drive illuminance",
             illuminance_at, s.vl_bulb_power, s.luminous_efficacy, vl),
            ("nirl_bulb_power, n_devices and optical_distance", "NIRL irradiance",
             lambda: irradiance_at(s.nirl_power_per_device(), nirl))):
        try:
            value = quantity(*args)
            if math.isfinite(value):
                continue
        except ArithmeticError as exc:
            value = f"{type(exc).__name__} ({exc})"
        raise ScenarioValidationError(f"{keys} make the {what} out of range: {value}")


def default_scenario():
    """The baseline configuration used throughout the simulations."""
    return Scenario()


def _bool(text):
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ValueError(f"expected true or false, got '{text}'")


def _flat(obj):
    """obj's (field, value) pairs in file order, each sub-model expanded in place."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(f.type):
            yield from _flat(value)
        else:
            yield f, value


def _build(cls, values):
    """Build cls from an iterator over its flat values in file order.

    Each sub-model is built, and so validated, before the object that
    holds it.
    """
    return cls(*(_build(f.type, values) if dataclasses.is_dataclass(f.type) else next(values)
                 for f in dataclasses.fields(cls)))


_PARSE_AS = {int: int, float: float, bool: _bool}
# key -> parser of its declared type, and key -> default value, in file order
_PARSERS = {f.name: _PARSE_AS[f.type] for f, _ in _flat(default_scenario())}
_DEFAULTS = {f.name: value for f, value in _flat(default_scenario())}


def parse_scenario(text):
    """Parse scenario file contents; unset keys keep their default values."""
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ScenarioParseError("expected 'key = value'", lineno)
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ScenarioParseError(f"unknown key '{key}'", lineno)
        if key in overrides:
            raise ScenarioParseError(f"duplicate key '{key}'", lineno)
        try:
            overrides[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ScenarioParseError(f"bad value for '{key}': {exc}", lineno) from None
    # dict | keeps the defaults' file order, which _build consumes
    return _build(Scenario, iter((_DEFAULTS | overrides).values()))


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_scenario(scenario):
    """Render a scenario to file format; parse_scenario round-trips it exactly."""
    return "".join(f"{f.name} = {_format_value(value)}\n" for f, value in _flat(scenario))
