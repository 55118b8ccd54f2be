import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from wiptsim import (
    DegenerateRegionError,
    OperatingPoint,
    ProtocolControls,
    ProtocolId,
    RateEnergyRegion,
    dominates,
    enumerate_controls,
    evaluate,
    illuminance_at,
    max_energy,
    max_rate,
    pareto,
    sweep,
)
from wiptsim.cli import _csv_text

_DUMMY_CONTROLS = ProtocolControls(0.0, 0.0, 0.0, 0.0, 0.0)


def _point(rate, energy):
    return OperatingPoint(rate, energy, _DUMMY_CONTROLS, ProtocolId.RF_ONLY)


def brute_force_frontier(points):
    """O(n^2) dominance filter used as the independent oracle."""
    rates = np.array([p.rate for p in points])
    energies = np.array([p.harvested_power for p in points])
    kept = []
    seen = set()
    for i in range(len(points)):
        better_or_equal = (rates >= rates[i]) & (energies >= energies[i])
        strictly_better = (rates > rates[i]) | (energies > energies[i])
        if np.any(better_or_equal & strictly_better):
            continue
        key = (rates[i], energies[i])
        if key in seen:
            continue
        seen.add(key)
        kept.append(i)
    kept.sort(key=lambda i: rates[i])
    return [points[i] for i in kept]


def test_pareto_singleton():
    pts = [_point(1.0, 1.0)]
    assert pareto(pts) == pts


def test_pareto_known_case():
    pts = [_point(1, 2), _point(2, 1), _point(1.5, 1.5), _point(0.5, 0.5)]
    frontier = pareto(pts)
    assert [(p.rate, p.harvested_power) for p in frontier] == [(1, 2), (1.5, 1.5), (2, 1)]


def test_pareto_collapses_duplicates():
    first = _point(1.0, 1.0)
    pts = [first, _point(1.0, 1.0)]
    frontier = pareto(pts)
    assert len(frontier) == 1
    assert frontier[0] is first


def test_pareto_drops_weakly_dominated_ties():
    pts = [_point(2.0, 1.0), _point(1.0, 1.0), _point(2.0, 0.5)]
    frontier = pareto(pts)
    assert [(p.rate, p.harvested_power) for p in frontier] == [(2.0, 1.0)]


def test_pareto_matches_brute_force_randomized():
    rng = np.random.default_rng(77)
    for trial in range(200):
        n = int(rng.integers(1, 120))
        if trial % 4 == 0:
            coords = rng.integers(0, 4, size=(n, 2)).astype(float)  # heavy ties
        else:
            coords = rng.random((n, 2))
        pts = [_point(r, e) for r, e in coords]
        fast = pareto(pts)
        slow = brute_force_frontier(pts)
        assert len(fast) == len(slow)
        assert all(a is b for a, b in zip(fast, slow))


def test_sweep_rf_grid2_corners(scenario):
    region = sweep(scenario, ProtocolId.RF_ONLY, 2)
    assert len(region.points) == 2
    decode_all, harvest_all = region.points
    assert decode_all.harvested_power == 0.0 and decode_all.rate > 0.0
    assert harvest_all.rate == 0.0 and harvest_all.harvested_power > 0.0
    assert max_rate(region) == decode_all.rate
    assert max_energy(region) == harvest_all.harvested_power


def test_sweep_nirl_grid3_frontier_matches_brute_force(scenario):
    region = sweep(scenario, ProtocolId.NIRL_ONLY, 3)
    assert len(region.points) == 9
    expected = brute_force_frontier(list(region.points))
    assert list(region.frontier) == expected


def test_sweep_deterministic(scenario):
    a = sweep(scenario, ProtocolId.A, 5)
    b = sweep(scenario, ProtocolId.A, 5)
    assert a == b


def test_sweep_skips_infeasible_tuples(scenario):
    bright = dataclasses.replace(scenario, luminous_efficacy=600.0)
    region = sweep(bright, ProtocolId.C, 5)
    assert 0 < len(region.points) < 125


def test_sweep_degenerate_region(scenario):
    glaring = dataclasses.replace(scenario, luminous_efficacy=5000.0)
    with pytest.raises(DegenerateRegionError):
        sweep(glaring, ProtocolId.C, 2)


def test_frontier_sorted_and_antichain(scenario):
    for protocol in (ProtocolId.A, ProtocolId.B, ProtocolId.VL_ONLY):
        region = sweep(scenario, protocol, 11)
        rates = [p.rate for p in region.frontier]
        energies = [p.harvested_power for p in region.frontier]
        assert rates == sorted(rates)
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert all(b < a for a, b in zip(energies, energies[1:]))
        frontier_set = {(p.rate, p.harvested_power) for p in region.frontier}
        point_set = {(p.rate, p.harvested_power) for p in region.points}
        assert frontier_set <= point_set


def test_max_energy_nirl_all_dc_corner(scenario):
    region = sweep(scenario, ProtocolId.NIRL_ONLY, 5)
    assert max_energy(region) == pytest.approx(9.594037383028574e-3, rel=1e-9)


def test_max_rate_bounds_points(scenario):
    region = sweep(scenario, ProtocolId.VL_ONLY, 7)
    assert all(max_rate(region) >= p.rate for p in region.points)


def test_max_on_empty_region():
    empty = RateEnergyRegion((), (), ProtocolId.RF_ONLY, 2)
    with pytest.raises(DegenerateRegionError):
        max_rate(empty)
    with pytest.raises(DegenerateRegionError):
        max_energy(empty)


def test_dominates_reflexive(scenario):
    region = sweep(scenario, ProtocolId.A, 7)
    assert dominates(region, region)


def test_protocol_a_dominates_nirl_baseline(scenario):
    a = sweep(scenario, ProtocolId.A, 21)
    nirl = sweep(scenario, ProtocolId.NIRL_ONLY, 21)
    assert dominates(a, nirl)
    assert not dominates(nirl, a)


def test_dominates_transitive(scenario):
    regions = [sweep(scenario, p, 9) for p in (ProtocolId.A, ProtocolId.NIRL_ONLY,
                                               ProtocolId.VL_ONLY, ProtocolId.RF_ONLY)]
    for x, y, z in itertools.product(regions, repeat=3):
        if dominates(x, y) and dominates(y, z):
            assert dominates(x, z)


def test_refinement_never_shrinks_extremes(scenario):
    # nested grid chain: each level contains the previous one's points
    for protocol in (ProtocolId.NIRL_ONLY, ProtocolId.A):
        best_rate = 0.0
        best_energy = 0.0
        for grid in (2, 3, 5, 9, 17):
            region = sweep(scenario, protocol, grid)
            assert max_rate(region) >= best_rate
            assert max_energy(region) >= best_energy
            best_rate = max_rate(region)
            best_energy = max_energy(region)


def test_every_protocol_tops_nirl_baseline_energy(scenario):
    nirl_best = max_energy(sweep(scenario, ProtocolId.NIRL_ONLY, 5))
    for protocol in (ProtocolId.A, ProtocolId.B, ProtocolId.C, ProtocolId.D):
        assert max_energy(sweep(scenario, protocol, 5)) >= nirl_best


# sha256 of the points CSV and the frontier CSV at grid 21, fixed before the
# protocol definitions were folded into one table; any change to a protocol's
# arithmetic, enumeration order or CSV formatting shows up here.
_GOLDEN = {
    ("default", "rf"): ("6a5f339902dcb93544d6a9b3819eaf3183806dc8d55f65a3945ebe2b39b44a7e", "bbab1d30b74ccd84b5cc2ab8ba64a0193d5e736d7c3526a73905f0c121071249"),
    ("default", "vl"): ("6654e95047671d4093e6fa761b4a2cc4eb400a523c9844db7939555e81387f85", "1a2ab4f5489551fa458867af4f46c3b7b2e6be4c7c7a45470bb99cd7417d89a4"),
    ("default", "nirl"): ("dca9069bc65396ef7d5350c9d97d118603a4c264a0f056ccf650ffb130ca1d51", "1e57dafbc0d5411551e156f699e4b32d89387fbbf19baae924af8d74c51a5f91"),
    ("default", "a"): ("287c117cd36ead82cafbf26a5c3aab835d4fac2030b916d89e80af4358efa037", "55809f15a1e7aae6093917713efd17df11dc4f9aa17e7400391af8d55e47fcc7"),
    ("default", "b"): ("69cfc4efa6883db901bf1036d32733b3b087e2fab75ae844e276cc977a875df7", "364f0d1ba3c359ff9e9039d4445760a3f86e330b925257cd1f391c35b4725935"),
    ("default", "c"): ("2d8cc7456b501789c6c6a0fae57db9da01266822097421e3f10d4381ce6965b2", "7120fb1a171fc5d7e142d076b2b2dc3963ff793deeb0cf6fccfe02ce27511e30"),
    ("default", "d"): ("30810a430bef3f28efb697872eda664b9a144865088335527b2efdebe6098c7a", "0b123373cf342dde02a4843b69acdc2d95f42051fbede102542654643745b8df"),
    ("lux_gated", "rf"): ("6a5f339902dcb93544d6a9b3819eaf3183806dc8d55f65a3945ebe2b39b44a7e", "bbab1d30b74ccd84b5cc2ab8ba64a0193d5e736d7c3526a73905f0c121071249"),
    ("lux_gated", "vl"): ("6654e95047671d4093e6fa761b4a2cc4eb400a523c9844db7939555e81387f85", "1a2ab4f5489551fa458867af4f46c3b7b2e6be4c7c7a45470bb99cd7417d89a4"),
    ("lux_gated", "nirl"): ("dca9069bc65396ef7d5350c9d97d118603a4c264a0f056ccf650ffb130ca1d51", "1e57dafbc0d5411551e156f699e4b32d89387fbbf19baae924af8d74c51a5f91"),
    ("lux_gated", "a"): ("287c117cd36ead82cafbf26a5c3aab835d4fac2030b916d89e80af4358efa037", "55809f15a1e7aae6093917713efd17df11dc4f9aa17e7400391af8d55e47fcc7"),
    ("lux_gated", "b"): ("69cfc4efa6883db901bf1036d32733b3b087e2fab75ae844e276cc977a875df7", "364f0d1ba3c359ff9e9039d4445760a3f86e330b925257cd1f391c35b4725935"),
    ("lux_gated", "c"): ("3abe12325abf82647f73ccf31d94476772cac43cafab9f4bcb63fc5b0d541717", "4fa23aedbafd11891d93878e6d87b65be7a3ea02637f1465a422f3342c617818"),
    ("lux_gated", "d"): ("30810a430bef3f28efb697872eda664b9a144865088335527b2efdebe6098c7a", "0b123373cf342dde02a4843b69acdc2d95f42051fbede102542654643745b8df"),
}


def _lux_gated(scenario):
    """Illuminance range at 0.3x..0.8x of full drive: protocol c rejects tuples."""
    full = illuminance_at(scenario.vl_bulb_power, scenario.luminous_efficacy,
                          scenario.vl_geometry())
    limits = dataclasses.replace(scenario.safety, illuminance_min=0.3 * full,
                                 illuminance_max=0.8 * full)
    return dataclasses.replace(scenario, safety=limits)


@pytest.mark.parametrize("protocol", list(ProtocolId), ids=lambda p: p.value)
@pytest.mark.parametrize("variant", ["default", "lux_gated"])
def test_region_csv_golden_bytes(scenario, variant, protocol):
    s = scenario if variant == "default" else _lux_gated(scenario)
    region = sweep(s, protocol, 21)
    if (variant, protocol) == ("lux_gated", ProtocolId.C):
        assert len(region.points) == 9261 - 5418
    digests = tuple(
        hashlib.sha256(_csv_text(protocol, pts).encode()).hexdigest()
        for pts in (region.points, region.frontier)
    )
    assert digests == _GOLDEN[variant, protocol.value]
