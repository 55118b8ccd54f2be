"""Simulation configuration: defaults, validation, and the scenario file format.

A scenario file is plain UTF-8 text, a leading byte-order mark dropped,
with one ``key = value`` pair per line and ``#`` comments.  Keys match the
field names below (the energy-harvest and safety sub-model fields live in
the same flat namespace).  Angles are in degrees, powers in W, distances in
m.  Unset keys fall back to the default scenario.  Each key declares its
valid range beside its default, in its ``_key``.  Of several bad keys, the
first in this order is reported: each sub-model's keys (it is built first),
then the scenario's keys in file order, then each check across keys, after
the keys it reads.
"""

import dataclasses
import functools
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


# Fading-ensemble budget, checked before any draw: entries plus a per-vector
# share fitted when a vector cost 0.8 us of Python.  A vector now costs its
# draw plus one zdotc called from C, so the bound is looser: the largest
# admitted ensemble takes 0.2 s at 1 antenna to 2 s at 1024 (2-vCPU host).
_ENSEMBLE_VECTOR_ENTRIES = 22
_MAX_ENSEMBLE_COST = 50_000_000
# Antennas per fading vector; bounds one 512-vector draw chunk to 16 MB.
_MAX_RF_ANTENNAS = 1024


def _rule(holds, must):
    """A check raising '<key> must <must>' unless holds(value); {} in must is the value."""
    def check(name, value):
        if not holds(value):
            raise ScenarioValidationError(f"{name} must {must.format(value)}")
    return check


_POSITIVE = _rule(lambda v: math.isfinite(v) and v > 0.0, "be finite and positive, got {}")
_NONNEGATIVE = _rule(lambda v: math.isfinite(v) and v >= 0.0,
                     "be finite and nonnegative, got {}")
_ANGLE = _rule(lambda v: 0.0 <= v < 90.0, "lie in [0, 90) degrees, got {}")
_UNIT = _rule(lambda v: 0.0 < v <= 1.0, "lie in (0, 1], got {}")
_AT_LEAST_ONE = _rule(lambda v: v >= 1, "be at least 1")
_INTEGER = _rule(lambda v: type(v) is int, "be an integer, got {!r}")  # no bool, no numpy int
_SEMI_ANGLE = functools.partial(check_semi_angle, error=ScenarioValidationError)


def _key(default, *checks):
    """A scenario key's default and the checks its value must pass, in order."""
    return field(default=default, metadata={"checks": checks})


@functools.cache
def _declared_checks(cls):
    """(key, check) for each check that cls's keys declare, in file order."""
    return tuple((f.name, check) for f in dataclasses.fields(cls)
                 for check in f.metadata.get("checks", ()))


def _check_keys(obj, prefix=""):
    """Run each key's own checks in file order; messages name it as prefix + key."""
    for name, check in _declared_checks(type(obj)):
        check(prefix + name, getattr(obj, name))


@dataclass(frozen=True)
class EhRfModel:
    """Logistic RF rectifier parameters: saturation level, steepness, turn-on."""

    p_sat: float = _key(0.024, _POSITIVE)
    a: float = _key(150.0, _POSITIVE)
    b: float = _key(0.014, _POSITIVE)

    def __post_init__(self):
        _check_keys(self, "eh_rf.")


@dataclass(frozen=True)
class EhOpticalModel:
    """Photovoltaic open-circuit model constants."""

    thermal_voltage: float = _key(0.025, _POSITIVE)
    dark_saturation_current: float = _key(1e-9, _POSITIVE)

    def __post_init__(self):
        _check_keys(self, "eh_optical.")


@dataclass(frozen=True)
class SafetyLimits:
    """Regulatory limits: SAR power budget, NIRL irradiance, VL illuminance."""

    sar_power_budget: float = _key(4.8, _POSITIVE)
    sar_window: float = _key(360.0, _POSITIVE)
    nirl_irradiance_limit: float = _key(0.005, _POSITIVE)
    illuminance_min: float = _key(200.0, _NONNEGATIVE)
    illuminance_max: float = _key(1000.0, _POSITIVE)
    nirl_beam_avoids_body: bool = True

    def __post_init__(self):
        _check_keys(self, "safety.")
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
    n_rf_antennas: int = _key(4, _INTEGER, _rule(lambda v: 1 <= v <= _MAX_RF_ANTENNAS,
                                                 f"lie in [1, {_MAX_RF_ANTENNAS}], got {{}}"))
    rf_total_tx_power: float = _key(dbm_to_watts(20.0), _POSITIVE)
    rf_wpt_tx_power: float = _key(dbm_to_watts(16.0), _POSITIVE)
    rician_k: float = _key(10.0 ** 0.6, _NONNEGATIVE)
    pathloss_exponent: float = _key(2.6, _POSITIVE)
    rf_noise_power: float = _key(1e-12, _POSITIVE)
    rf_bandwidth: float = _key(1e7, _POSITIVE)
    # geometry
    rf_distance: float = _key(4.0, _POSITIVE, _rule(
        lambda v: v >= 1.0, "be at least 1 m, the path-loss reference distance, got {}"))
    optical_distance: float = _key(2.05, _POSITIVE)
    # optical transmitters
    vl_bulb_power: float = _key(22.0, _POSITIVE)
    vl_semi_angle: float = _key(60.0, _SEMI_ANGLE)
    nirl_bulb_power: float = _key(66.0, _POSITIVE)
    nirl_semi_angle: float = _key(15.0, _SEMI_ANGLE)
    n_devices: int = _key(3, _INTEGER, _AT_LEAST_ONE)
    incidence_angle_vl: float = _key(60.0, _ANGLE)
    irradiance_angle_vl: float = _key(60.0, _ANGLE)
    incidence_angle_nirl: float = _key(60.0, _ANGLE)
    irradiance_angle_nirl: float = _key(0.0, _ANGLE)  # angle-diversity elements aim at the devices
    # photodetector and optical receive chain
    pd_area: float = _key(85e-4, _POSITIVE)
    pd_responsivity: float = _key(0.4, _UNIT)
    pd_fill_factor: float = _key(0.75, _UNIT)
    optical_noise_power: float = _key(1e-15, _POSITIVE)
    optical_filter_gain: float = _key(1.0, _POSITIVE)
    optical_bandwidth: float = _key(1e8, _POSITIVE)
    # energy-harvest models and safety limits
    eh_rf: EhRfModel = field(default_factory=EhRfModel)
    eh_optical: EhOpticalModel = field(default_factory=EhOpticalModel)
    safety: SafetyLimits = field(default_factory=SafetyLimits)
    luminous_efficacy: float = _key(120.0, _POSITIVE)
    vl_dim_fraction: float = _key(0.1, _rule(lambda v: 0.0 < v < 1.0, "lie in (0, 1), got {}"))
    # Monte Carlo control
    mc_samples: int = _key(1000, _INTEGER, _AT_LEAST_ONE)
    rng_seed: int = _key(42, _INTEGER, _rule(lambda v: v >= 0, "be nonnegative"))

    def __post_init__(self):
        _check_keys(self)
        if self.mc_samples * (self.n_rf_antennas + _ENSEMBLE_VECTOR_ENTRIES) > _MAX_ENSEMBLE_COST:
            raise ScenarioValidationError(
                f"mc_samples * n_rf_antennas + {_ENSEMBLE_VECTOR_ENTRIES} * mc_samples must be "
                f"at most {_MAX_ENSEMBLE_COST:,}, got {self.mc_samples:,} * "
                f"({self.n_rf_antennas:,} + {_ENSEMBLE_VECTOR_ENTRIES})"
            )
        _check_derived(self)

    def vl_geometry(self):
        return OpticalGeometry(self.optical_distance, self.irradiance_angle_vl,
                               self.incidence_angle_vl, self.vl_semi_angle)

    def nirl_geometry(self):
        return OpticalGeometry(self.optical_distance, self.irradiance_angle_nirl,
                               self.incidence_angle_nirl, self.nirl_semi_angle)

    def nirl_power_per_device(self):
        """The angle-diversity bulb splits its power equally across devices."""
        return self.nirl_bulb_power / self.n_devices


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
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
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
