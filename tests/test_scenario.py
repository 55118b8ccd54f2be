import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiptsim import (
    EhOpticalModel,
    EhRfModel,
    SafetyLimits,
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    default_scenario,
    parse_scenario,
    render_scenario,
)
from wiptsim.scenario import _ENSEMBLE_VECTOR_ENTRIES, _MAX_ENSEMBLE_COST, _MAX_RF_ANTENNAS


def test_default_values(scenario):
    assert scenario.n_rf_antennas == 4
    assert scenario.rf_total_tx_power == pytest.approx(0.1)        # 20 dBm
    assert scenario.rf_wpt_tx_power == pytest.approx(0.039810717055349734)  # 16 dBm
    assert scenario.rician_k == pytest.approx(3.9810717055349722)  # 6 dB
    assert scenario.pathloss_exponent == 2.6
    assert scenario.rf_distance == 4.0
    assert scenario.optical_distance == 2.05
    assert scenario.vl_bulb_power == 22.0
    assert scenario.vl_semi_angle == 60.0
    assert scenario.nirl_bulb_power == 66.0
    assert scenario.nirl_semi_angle == 15.0
    assert scenario.n_devices == 3
    assert scenario.pd_area == 0.0085
    assert scenario.pd_responsivity == 0.4
    assert scenario.pd_fill_factor == 0.75
    assert scenario.optical_noise_power == 1e-15
    assert scenario.optical_filter_gain == 1.0
    assert scenario.incidence_angle_vl == 60.0
    assert scenario.irradiance_angle_vl == 60.0
    assert scenario.incidence_angle_nirl == 60.0
    assert scenario.irradiance_angle_nirl == 0.0
    assert scenario.eh_rf.p_sat == 0.024
    assert scenario.eh_rf.a == 150.0
    assert scenario.eh_rf.b == 0.014
    assert scenario.safety.sar_power_budget == 4.8
    assert scenario.safety.sar_window == 360.0
    assert scenario.safety.nirl_irradiance_limit == 0.005
    assert scenario.safety.illuminance_min == 200.0
    assert scenario.safety.illuminance_max == 1000.0
    assert scenario.safety.nirl_beam_avoids_body is True


def test_default_passes_validation():
    default_scenario()  # construction validates


def test_per_device_nirl_power(scenario):
    assert scenario.nirl_power_per_device() == pytest.approx(22.0)


def test_parse_empty_is_default(scenario):
    assert parse_scenario("") == scenario
    assert parse_scenario("\n  \n# only a comment\n") == scenario


def test_parse_single_override(scenario):
    parsed = parse_scenario("vl_bulb_power = 11\n")
    assert parsed.vl_bulb_power == 11.0
    assert parsed == dataclasses.replace(scenario, vl_bulb_power=11.0)


def test_parse_nested_overrides(scenario):
    parsed = parse_scenario("p_sat = 0.05\nsar_power_budget = 2.0\nthermal_voltage = 0.026\n")
    assert parsed.eh_rf.p_sat == 0.05
    assert parsed.eh_rf.a == scenario.eh_rf.a
    assert parsed.safety.sar_power_budget == 2.0
    assert parsed.eh_optical.thermal_voltage == 0.026


def test_parse_bool_and_int():
    parsed = parse_scenario("nirl_beam_avoids_body = false\nmc_samples = 7\nrng_seed = 9\n")
    assert parsed.safety.nirl_beam_avoids_body is False
    assert parsed.mc_samples == 7
    assert parsed.rng_seed == 9


def test_parse_comments_and_whitespace(scenario):
    text = "  # header\n  rf_distance = 5.0  # inline comment\n\n"
    assert parse_scenario(text).rf_distance == 5.0


def test_parse_error_reports_line_number():
    with pytest.raises(ScenarioParseError, match="line 2"):
        parse_scenario("rf_distance = 4\nnot a pair\n")


def test_parse_unknown_key():
    with pytest.raises(ScenarioParseError, match="unknown key 'rf_distnace'"):
        parse_scenario("rf_distnace = 4\n")


def test_parse_duplicate_key():
    with pytest.raises(ScenarioParseError, match="duplicate key"):
        parse_scenario("rf_distance = 4\nrf_distance = 5\n")


def test_parse_bad_value():
    with pytest.raises(ScenarioParseError, match="line 1"):
        parse_scenario("rf_distance = fast\n")
    with pytest.raises(ScenarioParseError, match="mc_samples"):
        parse_scenario("mc_samples = 9.5\n")


def test_validation_names_field():
    with pytest.raises(ScenarioValidationError, match="rf_distance"):
        parse_scenario("rf_distance = -1\n")


@pytest.mark.parametrize(
    "line,field",
    [
        ("vl_bulb_power = 0", "vl_bulb_power"),
        ("incidence_angle_vl = 90", "incidence_angle_vl"),
        ("irradiance_angle_nirl = -5", "irradiance_angle_nirl"),
        ("vl_semi_angle = 90", "vl_semi_angle"),
        ("nirl_semi_angle = 0", "nirl_semi_angle"),
        ("vl_semi_angle = 0.5", r"vl_semi_angle must lie in \[1, 89\] degrees"),
        ("nirl_semi_angle = 89.5", r"nirl_semi_angle must lie in \[1, 89\] degrees"),
        ("optical_distance = 1e-308", "optical_distance, pd_area and optical_filter_gain"),
        ("optical_distance = 1e200", "optical_distance, pd_area and optical_filter_gain"),
        ("vl_bulb_power = 1e308", "vl_bulb_power, luminous_efficacy and optical_distance"),
        pytest.param("n_devices = " + "9" * 400,
                     "nirl_bulb_power, n_devices and optical_distance",
                     id="n_devices = 10**400 - 1"),
        ("pd_fill_factor = 0", "pd_fill_factor"),
        ("pd_responsivity = 1.5", "pd_responsivity"),
        ("vl_dim_fraction = 1", "vl_dim_fraction"),
        ("mc_samples = 0", "mc_samples"),
        ("n_rf_antennas = 0", "n_rf_antennas"),
        ("p_sat = -0.1", "p_sat"),
        ("p_sat = inf", "eh_rf.p_sat"),
        ("b = inf", "eh_rf.b"),
        ("dark_saturation_current = inf", "eh_optical.dark_saturation_current"),
        ("sar_power_budget = inf", "safety.sar_power_budget"),
        ("illuminance_min = 2000", "illuminance_min"),
        ("rf_distance = 0.5", "rf_distance must be at least 1 m"),
    ],
)
def test_invariant_violations(line, field):
    with pytest.raises(ScenarioValidationError, match=field):
        parse_scenario(line + "\n")


# One out-of-range value per key (the bool excepted), and the exact message
# that a file holding only that line is refused with.
_REFUSALS = {
    "n_rf_antennas = 1025": "n_rf_antennas must lie in [1, 1024], got 1025",
    "rf_total_tx_power = -1.0": "rf_total_tx_power must be finite and positive, got -1.0",
    "rf_wpt_tx_power = inf": "rf_wpt_tx_power must be finite and positive, got inf",
    "rician_k = -1.0": "rician_k must be finite and nonnegative, got -1.0",
    "pathloss_exponent = 0.0": "pathloss_exponent must be finite and positive, got 0.0",
    "rf_noise_power = -0.0": "rf_noise_power must be finite and positive, got -0.0",
    "rf_bandwidth = -inf": "rf_bandwidth must be finite and positive, got -inf",
    "rf_distance = 0.5":
        "rf_distance must be at least 1 m, the path-loss reference distance, got 0.5",
    "rf_distance = -4.0": "rf_distance must be finite and positive, got -4.0",
    "optical_distance = 0.0": "optical_distance must be finite and positive, got 0.0",
    "vl_bulb_power = -22.0": "vl_bulb_power must be finite and positive, got -22.0",
    "vl_semi_angle = 0.5": "vl_semi_angle must lie in [1, 89] degrees, got 0.5",
    "nirl_bulb_power = inf": "nirl_bulb_power must be finite and positive, got inf",
    "nirl_semi_angle = 89.5": "nirl_semi_angle must lie in [1, 89] degrees, got 89.5",
    "n_devices = 0": "n_devices must be at least 1",
    "incidence_angle_vl = 90.0": "incidence_angle_vl must lie in [0, 90) degrees, got 90.0",
    "irradiance_angle_vl = -1.0": "irradiance_angle_vl must lie in [0, 90) degrees, got -1.0",
    "incidence_angle_nirl = inf": "incidence_angle_nirl must lie in [0, 90) degrees, got inf",
    "irradiance_angle_nirl = -0.5":
        "irradiance_angle_nirl must lie in [0, 90) degrees, got -0.5",
    "pd_area = 0.0": "pd_area must be finite and positive, got 0.0",
    "pd_responsivity = 1.5": "pd_responsivity must lie in (0, 1], got 1.5",
    "pd_fill_factor = 0.0": "pd_fill_factor must lie in (0, 1], got 0.0",
    "optical_noise_power = -1e-15": "optical_noise_power must be finite and positive, got -1e-15",
    "optical_filter_gain = 0.0": "optical_filter_gain must be finite and positive, got 0.0",
    "optical_bandwidth = inf": "optical_bandwidth must be finite and positive, got inf",
    "p_sat = 0.0": "eh_rf.p_sat must be finite and positive, got 0.0",
    "a = -150.0": "eh_rf.a must be finite and positive, got -150.0",
    "b = inf": "eh_rf.b must be finite and positive, got inf",
    "thermal_voltage = 0.0": "eh_optical.thermal_voltage must be finite and positive, got 0.0",
    "dark_saturation_current = -1e-09":
        "eh_optical.dark_saturation_current must be finite and positive, got -1e-09",
    "sar_power_budget = inf": "safety.sar_power_budget must be finite and positive, got inf",
    "sar_window = 0.0": "safety.sar_window must be finite and positive, got 0.0",
    "nirl_irradiance_limit = -0.005":
        "safety.nirl_irradiance_limit must be finite and positive, got -0.005",
    "illuminance_min = 2000.0": "safety.illuminance_min must be below safety.illuminance_max",
    "illuminance_min = -1.0": "safety.illuminance_min must be finite and nonnegative, got -1.0",
    "illuminance_max = 100.0": "safety.illuminance_min must be below safety.illuminance_max",
    "illuminance_max = inf": "safety.illuminance_max must be finite and positive, got inf",
    "luminous_efficacy = 0.0": "luminous_efficacy must be finite and positive, got 0.0",
    "vl_dim_fraction = 1.0": "vl_dim_fraction must lie in (0, 1), got 1.0",
    "mc_samples = 0": "mc_samples must be at least 1",
    "mc_samples = 2000000": "mc_samples * n_rf_antennas + 22 * mc_samples must be at most "
                            "50,000,000, got 2,000,000 * (4 + 22)",
    "rng_seed = -1": "rng_seed must be nonnegative",
}


def _keys(cls=Scenario, prefix=""):
    """(field, name as messages print it) of each key, in file order."""
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.type):
            yield from _keys(f.type, f"{f.name}.")
        else:
            yield f, prefix + f.name


def test_each_key_refuses_out_of_range_values_with_its_own_message():
    messages = {}
    for line in _REFUSALS:
        with pytest.raises(ScenarioValidationError) as refused:
            parse_scenario(line + "\n")
        messages[line] = str(refused.value)
    assert messages == _REFUSALS
    covered = {line.split(" = ")[0] for line in _REFUSALS}
    assert covered == {f.name for f, _ in _keys() if f.type is not bool}
    # every float key has a range, and it refuses nan naming the key
    for f, name in _keys():
        if f.type is float:
            with pytest.raises(ScenarioValidationError, match=re.escape(name)):
                parse_scenario(f"{f.name} = nan\n")


def test_integer_keys_refuse_every_value_that_is_not_an_int(scenario):
    # a file cannot carry these values (the parser calls int()); the API can
    integer_keys = [name for f, name in _keys() if f.type is int]
    assert integer_keys == ["n_rf_antennas", "n_devices", "mc_samples", "rng_seed"]
    for key in integer_keys:
        for value in (2.5, True, np.int64(4)):
            with pytest.raises(ScenarioValidationError) as refused:
                dataclasses.replace(scenario, **{key: value})
            assert str(refused.value) == f"{key} must be an integer, got {value!r}"


@pytest.mark.parametrize("text,message", [
    # each sub-model checks its keys when it is built, before the scenario
    ("rf_distance = 0.5\nsar_window = 0\np_sat = 0\n",
     "eh_rf.p_sat must be finite and positive, got 0.0"),
    # then the scenario's keys in file order, whatever order the file lists them in
    ("vl_dim_fraction = 2\nrf_distance = 0.5\n", "rf_distance must be at least 1 m"),
    # and a cross-key check only after every key it reads
    ("luminous_efficacy = -1\nmc_samples = 99999999\n",
     "luminous_efficacy must be finite and positive, got -1.0"),
], ids=["sub_model_first", "file_order", "cross_key_last"])
def test_several_bad_keys_report_the_first_in_file_order(text, message):
    with pytest.raises(ScenarioValidationError, match=f"^{re.escape(message)}"):
        parse_scenario(text)


def test_render_parse_round_trip(scenario):
    assert parse_scenario(render_scenario(scenario)) == scenario


def test_round_trip_survives_awkward_floats(scenario):
    modified = dataclasses.replace(
        scenario,
        rf_total_tx_power=0.1 + 1e-17,
        optical_distance=2.0500000000000003,
        rician_k=1.0 / 3.0,
        eh_rf=dataclasses.replace(scenario.eh_rf, b=0.014000000000000002),
    )
    assert parse_scenario(render_scenario(modified)) == modified


def test_round_trip_randomized(scenario):
    import random

    rng = random.Random(20240811)
    for _ in range(25):
        modified = dataclasses.replace(
            scenario,
            rf_distance=rng.uniform(1.0, 10.0),
            optical_distance=rng.uniform(0.5, 5.0),
            vl_bulb_power=rng.uniform(1.0, 100.0),
            rician_k=rng.uniform(0.0, 20.0),
            vl_dim_fraction=rng.uniform(0.01, 0.99),
            mc_samples=rng.randint(1, 5000),
            rng_seed=rng.randint(0, 2**31),
        )
        assert parse_scenario(render_scenario(modified)) == modified


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
_KEY_VALUES = {
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
def _valid_scenarios(draw):
    values = draw(st.fixed_dictionaries(_KEY_VALUES))
    values["illuminance_min"], values["illuminance_max"] = draw(_ILLUMINANCE)
    sub_models = {name: cls(**{f.name: values.pop(f.name) for f in dataclasses.fields(cls)})
                  for name, cls in (("eh_rf", EhRfModel), ("eh_optical", EhOpticalModel),
                                    ("safety", SafetyLimits))}
    return Scenario(**values, **sub_models)


def test_round_trip_strategy_covers_every_key(scenario):
    keys = [line.split(" = ")[0] for line in render_scenario(scenario).splitlines()]
    assert sorted(keys) == sorted([*_KEY_VALUES, "illuminance_min", "illuminance_max"])


@settings(max_examples=300, deadline=None)
@given(_valid_scenarios())
def test_random_valid_scenarios_round_trip(random_scenario):
    text = render_scenario(random_scenario)
    parsed = parse_scenario(text)
    assert parsed == random_scenario
    # text equality also tells -0.0 from 0.0, and an int or bool from a float
    assert render_scenario(parsed) == text


def test_default_file_matches_the_code(scenario):
    path = Path(__file__).resolve().parents[1] / "scenarios" / "default.toml"
    text = path.read_text(encoding="utf-8")
    assert parse_scenario(text) == scenario
    key_lines = [line for line in text.splitlines()
                 if line.strip() and not line.lstrip().startswith("#")]
    assert key_lines == render_scenario(scenario).splitlines()


def test_scenario_is_hashable(scenario):
    assert len({scenario, default_scenario()}) == 1


def test_geometries(scenario):
    vl = scenario.vl_geometry()
    assert (vl.distance, vl.semi_angle) == (2.05, 60.0)
    assert (vl.irradiance_angle, vl.incidence_angle) == (60.0, 60.0)
    nirl = scenario.nirl_geometry()
    assert (nirl.irradiance_angle, nirl.incidence_angle) == (0.0, 60.0)
    assert nirl.semi_angle == 15.0


def test_direct_construction_validates():
    with pytest.raises(ScenarioValidationError):
        Scenario(n_devices=0)


def test_ensemble_budget(scenario):
    # the largest key a parameter study of 16000 samples on 8 antennas uses
    dataclasses.replace(scenario, mc_samples=16000, n_rf_antennas=8)
    # the budget counts each fading vector as _ENSEMBLE_VECTOR_ENTRIES entries
    for antennas in (1, 4, _MAX_RF_ANTENNAS):
        most = _MAX_ENSEMBLE_COST // (antennas + _ENSEMBLE_VECTOR_ENTRIES)
        dataclasses.replace(scenario, mc_samples=most, n_rf_antennas=antennas)
        with pytest.raises(ScenarioValidationError, match="mc_samples \\* n_rf_antennas"):
            dataclasses.replace(scenario, mc_samples=most + 1, n_rf_antennas=antennas)
    # ten million one-antenna vectors (about 10-20 s to draw) are refused
    with pytest.raises(ScenarioValidationError, match="mc_samples \\* n_rf_antennas"):
        dataclasses.replace(scenario, mc_samples=10_000_000, n_rf_antennas=1)
    with pytest.raises(ScenarioValidationError, match="n_rf_antennas must lie in"):
        dataclasses.replace(scenario, mc_samples=1, n_rf_antennas=_MAX_RF_ANTENNAS + 1)
