"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run as ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import math

import numpy as np
import pytest

from wiptsim import (
    OperatingPoint,
    ProtocolControls,
    ProtocolId,
    check_irradiance,
    check_sar,
    controls_for,
    default_scenario,
    evaluate,
    lambertian_order,
    channel_gain,
    dominates,
    max_energy,
    max_rate,
    pareto,
    rf_harvest,
    sweep,
)
from wiptsim.channel_rf import _mean_mrt_norm_sq, mean_rf_received_power
from wiptsim.cli import main
from helpers import brute_frontier_indices

BASELINES = (ProtocolId.RF_ONLY, ProtocolId.VL_ONLY, ProtocolId.NIRL_ONLY)
COMBINED = (ProtocolId.A, ProtocolId.B, ProtocolId.C, ProtocolId.D)


def _report(label, ok, detail=""):
    print(f"{label}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    assert ok, f"{label} failed: {detail}"


@pytest.fixture(scope="module")
def scn():
    return default_scenario()


@pytest.fixture(scope="module")
def baselines_101(scn):
    return {p: sweep(scn, p, 101) for p in BASELINES}


@pytest.fixture(scope="module")
def regions_21(scn):
    return {p: sweep(scn, p, 21) for p in ProtocolId}


def test_ac1_lightwave_rate_ordering(baselines_101):
    rf = max_rate(baselines_101[ProtocolId.RF_ONLY])
    vl = max_rate(baselines_101[ProtocolId.VL_ONLY])
    nirl = max_rate(baselines_101[ProtocolId.NIRL_ONLY])
    ok = nirl > rf and vl > rf and nirl >= 2.0 * rf and vl >= 2.0 * rf
    _report("AC-1 rate ordering", ok,
            f"nirl {nirl:.3e}, vl {vl:.3e}, rf {rf:.3e} bit/s")


def test_ac2_rf_beats_vl_on_energy(baselines_101):
    rf = max_energy(baselines_101[ProtocolId.RF_ONLY])
    vl = max_energy(baselines_101[ProtocolId.VL_ONLY])
    _report("AC-2 energy ordering", rf > vl, f"rf {rf:.3e} W > vl {vl:.3e} W")


def test_ac3_protocols_top_every_baseline(regions_21):
    worst = []
    ok = True
    for protocol in COMBINED:
        for baseline in BASELINES:
            gain = max_energy(regions_21[protocol]) - max_energy(regions_21[baseline])
            ok = ok and gain >= 0.0
            worst.append(gain)
    _report("AC-3 protocol max-energy superiority", ok,
            f"smallest margin {min(worst):.3e} W over 12 pairs")


@pytest.mark.parametrize("protocol", [ProtocolId.A, ProtocolId.B])
@pytest.mark.parametrize("baseline", BASELINES)
def test_ac4_region_expansion(regions_21, protocol, baseline):
    # Known model property: protocol b cannot cover the nirl baseline's
    # high-bias power-splitting bulge (its time-switching frontier is the
    # chord below that curve), so the b/nirl case fails; see the notes in
    # the repository docs.
    ok = dominates(regions_21[protocol], regions_21[baseline])
    _report(f"AC-4 {protocol.value} dominates {baseline.value}", ok)


def test_ac4_b_shortfall_under_nirl(regions_21):
    # README, "Known model property": each nirl frontier point whose rate b
    # reaches, less b's best harvest at an equal or higher rate
    b, nirl = regions_21[ProtocolId.B].frontier, regions_21[ProtocolId.NIRL_ONLY].frontier
    (b_rate, b_harvest), (nirl_rate, nirl_harvest) = b.columns[:2], nirl.columns[:2]
    first = np.searchsorted(b_rate, nirl_rate)  # b's first point at least as fast
    reached = first < len(b_rate)
    best_after = np.maximum.accumulate(b_harvest[::-1])[::-1]
    shortfall = float(np.max(nirl_harvest[reached] - best_after[first[reached]]))
    _report("AC-4 note: b's worst shortfall under nirl", round(shortfall, 6) == 2.027e-3,
            f"{shortfall * 1e3:.3f} mW at grid 21")


def test_ac5_model_anchors(scn):
    checks = [
        ("rf_harvest(0.014)",
         abs(rf_harvest(0.014, scn.eh_rf) - 1.0530522860964219e-2) <= 1e-5 * 1.0530522860964219e-2),
        ("rf_harvest(1.0)",
         abs(rf_harvest(1.0, scn.eh_rf) - 0.024) <= 1e-9 * 0.024),
        ("lambertian_order(60) == 1", lambertian_order(60.0) == 1.0),
        ("vl channel gain",
         abs(channel_gain(scn.vl_geometry(), scn.pd_area) - 1.609e-4) <= 1e-3 * 1.609e-4),
    ]
    ok = all(flag for _, flag in checks)
    _report("AC-5 model anchors", ok, "; ".join(name for name, flag in checks if not flag))


def test_ac6_pareto_matches_brute_force():
    controls = ProtocolControls(0.0, 0.0, 0.0, 0.0, 0.0)
    rng = np.random.default_rng(20250810)
    mismatches = 0
    for trial in range(1000):
        n = int(rng.integers(1, 501))
        if trial % 10 == 0:
            coords = rng.integers(0, 6, size=(n, 2)).astype(float)  # duplicate-heavy
        else:
            coords = rng.random((n, 2))
        points = [OperatingPoint(r, e, controls, ProtocolId.RF_ONLY) for r, e in coords]
        fast = pareto(points)
        slow = [points[i] for i in brute_frontier_indices(coords[:, 0], coords[:, 1])]
        if len(fast) != len(slow) or any(a is not b for a, b in zip(fast, slow)):
            mismatches += 1
    _report("AC-6 pareto oracle equivalence", mismatches == 0,
            f"{mismatches} mismatching sets of 1000")


def test_ac7_degeneracy_identity(scn):
    ok = True
    for rho in (0.0, 0.5, 1.0):
        ts = evaluate(scn, ProtocolId.B, controls_for(ProtocolId.B, tau_nirl=1.0, rho_rf=rho))
        ps = evaluate(scn, ProtocolId.A, controls_for(ProtocolId.A, alpha_nirl=0.5, rho_rf=rho))
        ok = ok and ts.rate == ps.rate and ts.harvested_power == ps.harvested_power
    _report("AC-7 ts(tau=1) == ps(alpha=0.5) exactly", ok)


def test_ac8_monotonicity_and_saturation(scn, regions_21):
    inputs = np.logspace(-9, 1, 10_000)
    outputs = np.array([rf_harvest(float(p), scn.eh_rf) for p in inputs])
    bounded = bool(np.all(outputs <= scn.eh_rf.p_sat) and np.all(outputs >= 0.0))
    nondecreasing = bool(np.all(np.diff(outputs) >= 0.0))
    unsaturated = outputs < scn.eh_rf.p_sat * (1.0 - 1e-9)
    strict = bool(np.all(np.diff(outputs[unsaturated]) > 0.0))

    monotone_rho = True
    points = regions_21[ProtocolId.A].points  # rho varies fastest within each alpha block
    grid = regions_21[ProtocolId.A].grid_points_per_axis
    for start in range(0, len(points), grid):
        block = [p.harvested_power for p in points[start:start + grid]]
        monotone_rho = monotone_rho and all(b >= a for a, b in zip(block, block[1:]))

    ok = bounded and nondecreasing and strict and monotone_rho
    _report("AC-8 harvest monotonicity and saturation", ok,
            f"bounded={bounded} nondecreasing={nondecreasing} strict={strict} rho={monotone_rho}")


def test_ac9_safety_checks(scn):
    import dataclasses

    ok_default, margin_default = check_sar(0.1, scn.safety)
    ok_boundary, margin_boundary = check_sar(4.8, scn.safety)
    exposed = dataclasses.replace(
        scn, safety=dataclasses.replace(scn.safety, nirl_beam_avoids_body=False)
    )
    body_ok, _ = check_irradiance(exposed, scn.nirl_geometry())
    ok = (
        ok_default and margin_default == 4.7
        and ok_boundary and margin_boundary == 0.0
        and not body_ok
    )
    _report("AC-9 safety checks", ok,
            f"margin(0.1 W)={margin_default}, boundary ok={ok_boundary}, exposure fails={not body_ok}")


def test_ac10_determinism(tmp_path):
    scenario_file = tmp_path / "default.toml"
    scenario_file.write_text("")
    out_a = tmp_path / "first.csv"
    out_b = tmp_path / "second.csv"
    assert main(["region", str(scenario_file), "a", "--grid", "21", "--out", str(out_a)]) == 0
    assert main(["region", str(scenario_file), "a", "--grid", "21", "--out", str(out_b)]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()
    frontier_identical = (
        (tmp_path / "first.frontier.csv").read_bytes()
        == (tmp_path / "second.frontier.csv").read_bytes()
    )

    scn = default_scenario()
    first = mean_rf_received_power(scn, 0.0132)
    _mean_mrt_norm_sq.cache_clear()
    second = mean_rf_received_power(scn, 0.0132)

    ok = identical and frontier_identical and first == second
    _report("AC-10 determinism", ok,
            f"csv identical={identical}, frontier identical={frontier_identical}, "
            f"ensemble reproducible={first == second}")
