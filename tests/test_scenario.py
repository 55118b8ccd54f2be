import dataclasses

import pytest

from wiptsim import (
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    default_scenario,
    parse_scenario,
    render_scenario,
)


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
    ],
)
def test_invariant_violations(line, field):
    with pytest.raises(ScenarioValidationError, match=field):
        parse_scenario(line + "\n")


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
