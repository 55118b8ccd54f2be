import dataclasses
from pathlib import Path

import pytest

from wiptsim import (
    InfeasibleControlsError,
    PinnedControlError,
    ProtocolControls,
    ProtocolId,
    controls_for,
    enumerate_controls,
    evaluate,
    free_controls,
    lightwave_rate,
    mean_rf_received_power,
    optical_harvest,
    rf_harvest,
    rf_rate,
)
from wiptsim.protocols import _TABLE, _link_gains


def test_free_controls_map():
    assert free_controls(ProtocolId.A) == ("alpha_nirl", "rho_rf")
    assert free_controls(ProtocolId.B) == ("tau_nirl", "rho_rf")
    assert free_controls(ProtocolId.C) == ("alpha_vl", "tau_vl", "rho_rf")
    assert free_controls(ProtocolId.D) == ("alpha_nirl", "tau_nirl", "rho_rf")
    assert free_controls(ProtocolId.RF_ONLY) == ("rho_rf",)
    assert free_controls(ProtocolId.VL_ONLY) == ("alpha_vl", "tau_vl")
    assert free_controls(ProtocolId.NIRL_ONLY) == ("alpha_nirl", "tau_nirl")


def test_controls_validation():
    with pytest.raises(ValueError):
        ProtocolControls(1.2, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ProtocolControls(0.0, 0.0, 0.0, -0.1, 0.0)


def test_pinned_control_rejected(scenario):
    controls = dataclasses.replace(controls_for(ProtocolId.A, alpha_nirl=0.5), tau_nirl=0.7)
    with pytest.raises(PinnedControlError, match="tau_nirl"):
        evaluate(scenario, ProtocolId.A, controls)
    with pytest.raises(PinnedControlError):
        controls_for(ProtocolId.A, tau_vl=0.3)


def test_all_energy_corner(scenario):
    point = evaluate(scenario, ProtocolId.A, controls_for(ProtocolId.A, alpha_nirl=1.0, rho_rf=1.0))
    assert point.rate == 0.0
    h_vl, h_nirl = _link_gains(scenario)
    p_rx = mean_rf_received_power(scenario, scenario.rf_wpt_tx_power / scenario.n_devices)
    expected = (
        optical_harvest(22.0 * h_nirl, 0.4, 0.75, scenario.eh_optical)
        + optical_harvest(22.0 * h_vl, 0.4, 0.75, scenario.eh_optical)
        + rf_harvest(p_rx, scenario.eh_rf)
    )
    assert point.harvested_power == pytest.approx(expected, rel=1e-12)
    assert point.harvested_power == pytest.approx(1.0587e-2, rel=1e-3)


def test_protocol_a_composition(scenario):
    point = evaluate(scenario, ProtocolId.A, controls_for(ProtocolId.A, alpha_nirl=0.5, rho_rf=0.0))
    h_vl, h_nirl = _link_gains(scenario)
    p_rx = mean_rf_received_power(scenario, scenario.rf_wpt_tx_power / scenario.n_devices)
    expected_rate = lightwave_rate(0.5 * 22.0 * h_nirl, 0.4, 1e-15, 1e8) + rf_rate(
        p_rx, 1.0, 1e-12, 1e7
    )
    expected_harvest = (
        optical_harvest(0.5 * 22.0 * h_nirl, 0.4, 0.75, scenario.eh_optical)
        + optical_harvest(22.0 * h_vl, 0.4, 0.75, scenario.eh_optical)
    )
    assert point.rate == pytest.approx(expected_rate, rel=1e-12)
    assert point.harvested_power == pytest.approx(expected_harvest, rel=1e-12)
    # NIRL dominates the sum: about 1.82e9 from light plus about 3e8 from RF
    assert point.rate == pytest.approx(2.128e9, rel=1e-3)


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
def test_time_switching_degenerates_to_power_splitting(scenario, rho):
    full_id_slot = evaluate(
        scenario, ProtocolId.B, controls_for(ProtocolId.B, tau_nirl=1.0, rho_rf=rho)
    )
    half_bias = evaluate(
        scenario, ProtocolId.A, controls_for(ProtocolId.A, alpha_nirl=0.5, rho_rf=rho)
    )
    assert full_id_slot.rate == half_bias.rate
    assert full_id_slot.harvested_power == half_bias.harvested_power


def test_harvest_monotone_in_rf_split(scenario):
    points = [
        evaluate(scenario, ProtocolId.A, controls_for(ProtocolId.A, alpha_nirl=0.3, rho_rf=r / 10))
        for r in range(11)
    ]
    harvests = [p.harvested_power for p in points]
    rates = [p.rate for p in points]
    assert all(b >= a for a, b in zip(harvests, harvests[1:]))
    assert all(b <= a for a, b in zip(rates, rates[1:]))


def test_rf_only_uses_total_power(scenario):
    rf = evaluate(scenario, ProtocolId.RF_ONLY, controls_for(ProtocolId.RF_ONLY, rho_rf=0.0))
    p_rx = mean_rf_received_power(scenario, scenario.rf_total_tx_power / scenario.n_devices)
    assert rf.rate == pytest.approx(rf_rate(p_rx, 1.0, 1e-12, 1e7), rel=1e-12)
    assert rf.harvested_power == 0.0
    # protocol mode runs RF at the lower WPT power
    a = evaluate(scenario, ProtocolId.A, controls_for(ProtocolId.A, alpha_nirl=0.0, rho_rf=0.0))
    nirl_rate = evaluate(
        scenario, ProtocolId.NIRL_ONLY, controls_for(ProtocolId.NIRL_ONLY, alpha_nirl=0.0, tau_nirl=1.0)
    ).rate
    assert a.rate - nirl_rate < rf.rate


def test_vl_only_has_no_rf_contribution(scenario):
    point = evaluate(
        scenario, ProtocolId.VL_ONLY, controls_for(ProtocolId.VL_ONLY, alpha_vl=1.0, tau_vl=0.0)
    )
    h_vl, _ = _link_gains(scenario)
    expected = optical_harvest(22.0 * h_vl, 0.4, 0.75, scenario.eh_optical)
    assert point.rate == 0.0
    assert point.harvested_power == pytest.approx(expected, rel=1e-12)


def test_nirl_only_combined_frame(scenario):
    point = evaluate(
        scenario, ProtocolId.NIRL_ONLY, controls_for(ProtocolId.NIRL_ONLY, alpha_nirl=0.8, tau_nirl=0.6)
    )
    _, h_nirl = _link_gains(scenario)
    expected_rate = 0.6 * lightwave_rate(0.2 * 22.0 * h_nirl, 0.4, 1e-15, 1e8)
    expected_harvest = 0.6 * optical_harvest(
        0.8 * 22.0 * h_nirl, 0.4, 0.75, scenario.eh_optical
    ) + 0.4 * optical_harvest(22.0 * h_nirl, 0.4, 0.75, scenario.eh_optical)
    assert point.rate == pytest.approx(expected_rate, rel=1e-12)
    assert point.harvested_power == pytest.approx(expected_harvest, rel=1e-12)


def test_protocol_c_pins_nirl_all_dc(scenario):
    point = evaluate(
        scenario, ProtocolId.C, controls_for(ProtocolId.C, alpha_vl=0.5, tau_vl=1.0, rho_rf=1.0)
    )
    h_vl, h_nirl = _link_gains(scenario)
    vl_rate = lightwave_rate(0.5 * 22.0 * h_vl, 0.4, 1e-15, 1e8)
    assert point.rate == pytest.approx(vl_rate, rel=1e-12)  # RF fully harvesting, NIRL silent
    nirl_harvest = optical_harvest(22.0 * h_nirl, 0.4, 0.75, scenario.eh_optical)
    assert point.harvested_power > nirl_harvest


def test_protocol_c_illuminance_feasibility(scenario):
    # raise the efficacy so the full bulb sits inside the allowed range
    bright = dataclasses.replace(scenario, luminous_efficacy=600.0)
    evaluate(bright, ProtocolId.C, controls_for(ProtocolId.C, alpha_vl=1.0, tau_vl=0.0, rho_rf=0.0))
    with pytest.raises(InfeasibleControlsError, match="below"):
        evaluate(bright, ProtocolId.C, controls_for(ProtocolId.C, alpha_vl=0.0, tau_vl=1.0, rho_rf=0.0))
    # overdriven room: full DC lands above the ceiling
    glaring = dataclasses.replace(scenario, luminous_efficacy=5000.0)
    with pytest.raises(InfeasibleControlsError, match="above"):
        evaluate(glaring, ProtocolId.C, controls_for(ProtocolId.C, alpha_vl=1.0, tau_vl=0.0, rho_rf=0.0))
    evaluate(glaring, ProtocolId.C, controls_for(ProtocolId.C, alpha_vl=0.25, tau_vl=1.0, rho_rf=0.0))


def test_protocol_c_default_room_never_rejects(scenario):
    # the default room cannot reach the floor at all, so the shortfall is
    # not attributed to the controls
    for controls in enumerate_controls(ProtocolId.C, 5):
        evaluate(scenario, ProtocolId.C, controls)


def test_protocol_d_dim_drive(scenario):
    point = evaluate(
        scenario, ProtocolId.D, controls_for(ProtocolId.D, alpha_nirl=1.0, tau_nirl=0.0, rho_rf=0.0)
    )
    h_vl, h_nirl = _link_gains(scenario)
    dim_rx = scenario.vl_dim_fraction * 22.0 * h_vl
    expected_rate = lightwave_rate(dim_rx, 0.4, 1e-15, 1e8) + rf_rate(
        mean_rf_received_power(scenario, scenario.rf_wpt_tx_power / 3), 1.0, 1e-12, 1e7
    )
    expected_harvest = optical_harvest(dim_rx, 0.4, 0.75, scenario.eh_optical) + optical_harvest(
        22.0 * h_nirl, 0.4, 0.75, scenario.eh_optical
    )
    assert point.rate == pytest.approx(expected_rate, rel=1e-12)
    assert point.harvested_power == pytest.approx(expected_harvest, rel=1e-12)


def test_protocol_d_ignores_illuminance(scenario):
    # protocol d dims below the range on purpose; no rejection
    for controls in enumerate_controls(ProtocolId.D, 3):
        evaluate(scenario, ProtocolId.D, controls)


def test_points_finite_and_nonnegative(scenario):
    for protocol in ProtocolId:
        for controls in enumerate_controls(protocol, 3):
            point = evaluate(scenario, protocol, controls)
            assert point.rate >= 0.0
            assert point.harvested_power >= 0.0


def test_enumerate_counts():
    assert len(enumerate_controls(ProtocolId.RF_ONLY, 11)) == 11
    assert len(enumerate_controls(ProtocolId.A, 11)) == 121
    assert len(enumerate_controls(ProtocolId.C, 5)) == 125


def test_enumerate_endpoints_and_pins():
    controls = enumerate_controls(ProtocolId.A, 3)
    alphas = sorted({c.alpha_nirl for c in controls})
    rhos = sorted({c.rho_rf for c in controls})
    assert alphas == [0.0, 0.5, 1.0]
    assert rhos == [0.0, 0.5, 1.0]
    assert all(c.tau_nirl == 1.0 and c.alpha_vl == 1.0 and c.tau_vl == 0.0 for c in controls)


def test_enumerate_grid_too_small():
    with pytest.raises(ValueError):
        enumerate_controls(ProtocolId.A, 1)


def _readme_protocol_rows():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Protocols\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 5 or not cells[0].startswith("`"):
            continue
        name, nirl, vl, rf, free = cells
        rows[name.strip("`")] = (
            tuple(axis.strip().strip("`") for axis in free.split(",")),
            (nirl != "off", vl != "off", rf != "off"),
        )
    return rows


def test_readme_protocol_table_matches_code():
    rows = _readme_protocol_rows()
    assert list(rows) == [p.value for p in ProtocolId]
    for protocol in ProtocolId:
        free, bands = rows[protocol.value]
        assert free == free_controls(protocol)
        assert bands == _TABLE[protocol].bands_on()
