import dataclasses
import math
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wiptsim import (
    EhRfModel,
    EhOpticalModel,
    InfeasibleControlsError,
    OperatingPoint,
    PinnedControlError,
    ProtocolControls,
    ProtocolId,
    ScenarioValidationError,
    SweepBudgetError,
    controls_for,
    enumerate_controls,
    evaluate,
    free_controls,
    illuminance_at,
    lightwave_rate,
    mean_rf_received_power,
    optical_harvest,
    rf_harvest,
    rf_rate,
    sweep,
)
from wiptsim.channel_optical import lambertian_order
from wiptsim.channel_rf import _mean_mrt_norm_sq
from wiptsim.protocols import (_CONTROL_NAMES, _MAX_SWEEP_TUPLES, _MEMO_SIZE, _SWEPT, _TABLE,
                               _Bands, _Protocol)
from wiptsim.region import _band_merge


def _link_gains(scenario):
    """The (VL, NIRL) link gains of the scenario's band context."""
    gains = _Bands(scenario).gains
    return gains["VL"], gains["NIRL"]


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


def test_controls_are_checked_by_every_constructor():
    controls = ProtocolControls(0.5, 1.0, 1.0, 0.0, 0.25)
    assert ProtocolControls(**controls._asdict()) == controls
    assert ProtocolControls._make([0.5, 1.0, 1.0, 0.0, 0.25]) == controls
    assert type(controls._replace(rho_rf=1.0)) is ProtocolControls
    with pytest.raises(ValueError, match=r"^tau_vl must lie in \[0, 1\], got -0.1$"):
        ProtocolControls(0.0, 0.0, 0.0, -0.1, 0.0)
    with pytest.raises(ValueError, match=r"^alpha_vl must lie in \[0, 1\], got 1.5$"):
        ProtocolControls._make([0.0, 0.0, 1.5, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"^rho_rf must lie in \[0, 1\], got nan$"):
        controls._replace(rho_rf=float("nan"))
    with pytest.raises(ValueError, match=r"^alpha_nirl must lie in \[0, 1\], got -inf$"):
        controls._replace(alpha_nirl=float("-inf"))


def test_records_keep_their_fields_repr_and_hash():
    controls = ProtocolControls(alpha_nirl=0.5, tau_nirl=1.0, alpha_vl=1.0, tau_vl=0.0,
                                rho_rf=0.25)
    assert ProtocolControls._fields == ("alpha_nirl", "tau_nirl", "alpha_vl", "tau_vl",
                                        "rho_rf")
    assert repr(controls) == ("ProtocolControls(alpha_nirl=0.5, tau_nirl=1.0, alpha_vl=1.0, "
                              "tau_vl=0.0, rho_rf=0.25)")
    point = OperatingPoint(rate=2.0, harvested_power=3.0, controls=controls,
                           protocol=ProtocolId.A)
    assert repr(point) == (f"OperatingPoint(rate=2.0, harvested_power=3.0, "
                           f"controls={controls!r}, protocol={ProtocolId.A!r})")
    assert hash(controls) == hash(ProtocolControls(0.5, 1.0, 1.0, 0.0, 0.25))
    assert {point: 1}[OperatingPoint(2.0, 3.0, controls, ProtocolId.A)] == 1
    assert {p: p.value for p in ProtocolId}[ProtocolId.D] == "d"


@pytest.mark.parametrize("controls", [
    (0.5, 1.0, 1.0, 0.0, 0.25),    # in range, but never checked
    (7.0, 1.0, 1.0, 0.0, -3.0),    # out of range
    [0.5, 1.0, 1.0, 0.0, 0.25],
    SimpleNamespace(alpha_nirl=0.5, tau_nirl=1.0, alpha_vl=1.0, tau_vl=0.0, rho_rf=0.25),
], ids=["tuple", "tuple-out-of-range", "list", "namespace"])
def test_evaluate_refuses_controls_that_are_not_protocol_controls(scenario, controls):
    with pytest.raises(TypeError, match="controls must be a ProtocolControls"):
        evaluate(scenario, ProtocolId.A, controls)


def test_grid_levels_are_checked_when_the_grid_is_built(monkeypatch):
    # no grid tuple passes through ProtocolControls.__new__, so a bad level
    # must be refused before the first one is built
    monkeypatch.setitem(_TABLE, ProtocolId.B,
                        _Protocol((1.5, _SWEPT, 1.0, 0.0, _SWEPT), *_TABLE[ProtocolId.B].drives))
    with pytest.raises(ValueError, match=r"^alpha_nirl must lie in \[0, 1\], got 1.5$"):
        enumerate_controls(ProtocolId.B, 3)
    assert all(type(c) is ProtocolControls for c in enumerate_controls(ProtocolId.D, 3))


def test_pinned_control_rejected(scenario):
    controls = controls_for(ProtocolId.A, alpha_nirl=0.5)._replace(tau_nirl=0.7)
    with pytest.raises(PinnedControlError, match="tau_nirl"):
        evaluate(scenario, ProtocolId.A, controls)
    with pytest.raises(PinnedControlError):
        controls_for(ProtocolId.A, tau_vl=0.3)


def test_pin_messages_name_the_first_mismatch_in_field_order(scenario):
    controls = controls_for(ProtocolId.A, alpha_nirl=0.5)._replace(tau_nirl=0.7, alpha_vl=0.2)
    with pytest.raises(PinnedControlError) as info:
        evaluate(scenario, ProtocolId.A, controls)
    assert str(info.value) == "tau_nirl is pinned to 1.0 for protocol a, got 0.7"
    with pytest.raises(PinnedControlError) as info:
        controls_for(ProtocolId.A, tau_vl=0.3)
    assert str(info.value) == "tau_vl is pinned for protocol a"


def test_controls_for_refuses_an_unknown_control_as_protocol_controls_does():
    with pytest.raises(TypeError, match="'alpha'"):
        ProtocolControls(0.0, 0.0, 0.0, 0.0, 0.0, alpha=0.5)
    with pytest.raises(TypeError, match="'alpha'"):
        controls_for(ProtocolId.A, alpha=0.5)


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


@pytest.mark.parametrize("alpha_vl,tau_vl,message", [
    (0.9, 0.5, "VL drive yields 47.5 lx, above 39.99229503986712 lx"),
    (0.25, 1.0, "VL drive yields 12.5 lx, below 14.99711063995017 lx"),
])
def test_protocol_c_lux_messages(lux_gated_scenario, alpha_vl, tau_vl, message):
    # the 0.3x..0.8x range of the fixture's 49.99 lx full drive; the frame-average
    # drives are 0.95 and 0.25
    controls = controls_for(ProtocolId.C, alpha_vl=alpha_vl, tau_vl=tau_vl, rho_rf=0.0)
    with pytest.raises(InfeasibleControlsError) as rejected:
        evaluate(lux_gated_scenario, ProtocolId.C, controls)
    assert str(rejected.value) == message


def test_protocol_c_default_room_never_rejects(scenario):
    # the default room cannot reach the floor at all, so the shortfall is
    # not attributed to the controls
    for controls in enumerate_controls(ProtocolId.C, 5):
        evaluate(scenario, ProtocolId.C, controls)


def test_protocol_c_lux_gate_at_its_exact_boundaries(scenario):
    def level(drive):
        return illuminance_at(drive * scenario.vl_bulb_power, scenario.luminous_efficacy,
                              scenario.vl_geometry())

    def kept(illuminance_min, illuminance_max):
        limits = dataclasses.replace(scenario.safety, illuminance_min=illuminance_min,
                                     illuminance_max=illuminance_max)
        s = dataclasses.replace(scenario, safety=limits)
        count = len(sweep(s, ProtocolId.C, 5).points)
        # compare's array gate keeps the same tuples as the per-tuple gate
        assert _band_merge(s, ProtocolId.C, 5)[0] == count
        return count

    full = level(1.0)
    # the floor binds only when full drive reaches it; a level at the floor passes
    assert kept(full, 2 * full) == 45
    assert kept(math.nextafter(full, math.inf), 2 * full) == 125
    # a level at the ceiling passes; one a double above it is rejected
    assert kept(1.0, level(0.5)) == 25
    assert kept(1.0, math.nextafter(level(0.5), -math.inf)) == 15


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


def test_enumerate_is_lazy_and_sized():
    grid = enumerate_controls(ProtocolId.D, 101)
    assert len(grid) == 101 ** 3
    assert not isinstance(grid, (list, tuple))
    small = enumerate_controls(ProtocolId.C, 3)
    assert list(small) == list(small)  # iterable more than once
    assert len(list(small)) == len(small) == 27


def test_memos_hold_every_band_term_a_sweep_reuses():
    # rho_rf is the grid's fastest axis, so a sweep reuses a lightwave term
    # only on consecutive tuples (the lightwave memo holds one), and an RF
    # term only across lightwave tuples, which takes a second free axis.
    # Every rho_rf level of the largest admitted grid of such a protocol
    # must fit in the RF memo, so such a sweep never evicts.
    assert _CONTROL_NAMES[-1] == "rho_rf"
    assert _MEMO_SIZE == 1448
    for protocol, row in _TABLE.items():
        axes = len(row.free)
        if "rho_rf" not in row.free or axes == 1:
            continue
        grid = round(_MAX_SWEEP_TUPLES ** (1 / axes))  # the largest admitted grid
        while grid ** axes > _MAX_SWEEP_TUPLES:
            grid -= 1
        assert grid ** axes <= _MAX_SWEEP_TUPLES < (grid + 1) ** axes
        assert grid <= _MEMO_SIZE, protocol
    assert _MEMO_SIZE ** 2 <= _MAX_SWEEP_TUPLES < (_MEMO_SIZE + 1) ** 2


def test_sweep_budget_admits_grid_101_and_refuses_above_bound():
    for protocol in ProtocolId:
        assert len(enumerate_controls(protocol, 101)) <= _MAX_SWEEP_TUPLES
    assert len(enumerate_controls(ProtocolId.D, 128)) == _MAX_SWEEP_TUPLES
    with pytest.raises(SweepBudgetError, match="protocol d at grid 129"):
        enumerate_controls(ProtocolId.D, 129)
    with pytest.raises(SweepBudgetError):
        sweep(None, ProtocolId.RF_ONLY, _MAX_SWEEP_TUPLES + 1)


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


def _bits(point):
    return point.rate.hex(), point.harvested_power.hex()


def _cold(scenario, protocol, controls):
    """evaluate on an equal but new scenario object, so no memoised term is reused."""
    try:
        return _bits(evaluate(dataclasses.replace(scenario), protocol, controls))
    except InfeasibleControlsError:
        return None


@pytest.mark.parametrize("variant", ["scenario", "lux_gated_scenario"])
def test_sweep_bit_equal_to_cold_evaluate(request, variant):
    # All seven sweeps share one scenario object, so later protocols read
    # band terms the earlier ones memoised (d's dimmed VL beside the full VL
    # of a-c, rf's full RF power beside the WPT power of a-d).
    # Every sweep runs before the first cold evaluate, whose new scenario
    # object would replace the shared band context.
    s = request.getfixturevalue(variant)
    swept = {protocol: {p.controls: _bits(p) for p in sweep(s, protocol, 21).points}
             for protocol in ProtocolId}
    for protocol in ProtocolId:
        for controls in enumerate_controls(protocol, 21):
            assert swept[protocol].get(controls) == _cold(s, protocol, controls), (protocol,
                                                                                   controls)


@pytest.mark.parametrize("protocol", list(ProtocolId), ids=lambda p: p.value)
def test_negative_zero_controls_match_zero(scenario, protocol):
    zero = controls_for(protocol, **dict.fromkeys(free_controls(protocol), 0.0))
    negative = controls_for(protocol, **dict.fromkeys(free_controls(protocol), -0.0))
    expected = _cold(scenario, protocol, zero)
    # either sign may be the one that fills the memo
    for first, second in ((zero, negative), (negative, zero)):
        fresh = dataclasses.replace(scenario)
        assert _bits(evaluate(fresh, protocol, first)) == expected
        assert _bits(evaluate(fresh, protocol, second)) == expected


def test_interleaved_scenarios_keep_their_own_terms(scenario, lux_gated_scenario):
    other = dataclasses.replace(
        lux_gated_scenario, nirl_bulb_power=40.0, vl_dim_fraction=0.2, rf_distance=6.0
    )
    cases = [(protocol, controls) for protocol in ProtocolId
             for controls in enumerate_controls(protocol, 3)]
    expected = {s: [_cold(s, p, c) for p, c in cases] for s in (scenario, other)}
    assert expected[scenario] != expected[other]
    for _ in range(2):
        for i, (protocol, controls) in enumerate(cases):
            for s in (scenario, other):
                try:
                    got = _bits(evaluate(s, protocol, controls))
                except InfeasibleControlsError:
                    got = None
                assert got == expected[s][i]


@pytest.mark.parametrize("protocol", [ProtocolId.NIRL_ONLY, ProtocolId.VL_ONLY, ProtocolId.D])
def test_non_finite_band_term_rejected(scenario, protocol):
    # a huge thermal voltage passes validation but overflows the optical harvest
    bad = dataclasses.replace(scenario, eh_optical=EhOpticalModel(thermal_voltage=1e308))
    band = "VL" if protocol is ProtocolId.VL_ONLY else "NIRL"
    with pytest.raises(ScenarioValidationError, match=f"{band} band"):
        sweep(bad, protocol, 5)


def test_scenario_caches_stay_bounded(scenario):
    semi_bound = lambertian_order.cache_info().maxsize
    ensemble_bound = _mean_mrt_norm_sq.cache_info().maxsize
    assert semi_bound is not None and ensemble_bound is not None
    for i in range(max(semi_bound, ensemble_bound) + 8):
        s = dataclasses.replace(
            scenario, vl_semi_angle=10.0 + i * 1e-3, rng_seed=i, mc_samples=1
        )
        sweep(s, ProtocolId.D, 2)
        sweep(s, ProtocolId.VL_ONLY, 2)
    assert lambertian_order.cache_info().currsize == semi_bound
    assert _mean_mrt_norm_sq.cache_info().currsize == ensemble_bound


_RF_PROTOCOLS = [p for p in ProtocolId if "rho_rf" in free_controls(p)]


@settings(max_examples=25, deadline=None)
@example(lux_gated=False, grid=11, rf={})  # the default scenario
@given(
    lux_gated=st.booleans(),
    grid=st.integers(3, 7),
    rf=st.fixed_dictionaries({
        "rf_total_tx_power": st.floats(1e-4, 10.0),
        "rf_wpt_tx_power": st.floats(1e-4, 10.0),
        "rf_distance": st.floats(1.0, 30.0),
        "pathloss_exponent": st.floats(1.5, 4.0),
        "rician_k": st.floats(0.0, 100.0),
        "rf_noise_power": st.floats(1e-15, 1e-9),
        "n_rf_antennas": st.integers(1, 8),
        "mc_samples": st.integers(1, 300),
        "rng_seed": st.integers(0, 2**32),
        "eh_rf": st.builds(EhRfModel, p_sat=st.floats(1e-4, 1.0), a=st.floats(1.0, 1e4),
                           b=st.floats(1e-4, 1.0)),
    }),
)
def test_rho_rf_lines_harvest_more_and_decode_less(scenario, lux_gated_scenario, lux_gated,
                                                   grid, rf):
    base = lux_gated_scenario if lux_gated else scenario
    varied = dataclasses.replace(base, **rf)
    for protocol in _RF_PROTOCOLS:
        # rho_rf is the last control, so it varies fastest: consecutive
        # points with the same other controls form one rho_rf line
        lines = {}
        for point in sweep(varied, protocol, grid).points:
            c = point.controls
            lines.setdefault((c.alpha_nirl, c.tau_nirl, c.alpha_vl, c.tau_vl), []).append(
                (c.rho_rf, point.rate, point.harvested_power))
        for line in lines.values():
            assert len(line) == grid
            for (rho0, rate0, harvest0), (rho1, rate1, harvest1) in zip(line, line[1:]):
                assert rho0 < rho1
                assert harvest1 >= harvest0, (protocol, rho0, rho1)
                assert rate1 <= rate0, (protocol, rho0, rho1)
