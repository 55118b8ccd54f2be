import dataclasses
import hashlib
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wiptsim import (
    DegenerateRegionError,
    InfeasibleControlsError,
    OperatingPoint,
    ProtocolControls,
    ProtocolId,
    RateEnergyRegion,
    ScenarioValidationError,
    channel_gain,
    dominates,
    enumerate_controls,
    evaluate,
    illuminance_at,
    max_energy,
    max_rate,
    pareto,
    parse_scenario,
    sweep,
)
from wiptsim import cli, protocols
from wiptsim import region as region_module
from wiptsim.cli import CSV_HEADER, _csv_rows
from test_scenario import _valid_scenarios

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


def test_sweep_builds_control_columns_from_the_grid(lux_gated_scenario):
    # Protocol c at grid 21 rejects 5,418 tuples, among them the first and
    # the last (frame-average drive 1.0, above 0.8x full drive).
    grid = list(enumerate_controls(ProtocolId.C, 21))
    kept = []
    for controls in grid:
        try:
            evaluate(lux_gated_scenario, ProtocolId.C, controls)
        except InfeasibleControlsError:
            continue
        kept.append(controls)
    assert len(grid) - len(kept) == 5418
    assert kept[0] != grid[0] and kept[-1] != grid[-1]
    columns = sweep(lux_gated_scenario, ProtocolId.C, 21).points.columns
    assert len(columns) == 7
    assert all(c.dtype == np.float64 and c.flags.c_contiguous for c in columns)
    # bit for bit: -0.0 and 0.0 differ as int64
    got = np.stack(columns[2:], axis=1).view(np.int64)
    assert np.array_equal(got, np.array(kept, dtype=np.float64).view(np.int64))
    glaring = dataclasses.replace(lux_gated_scenario, luminous_efficacy=5000.0)
    with pytest.raises(DegenerateRegionError):
        sweep(glaring, ProtocolId.C, 21)


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
        hashlib.sha256("".join(_csv_rows(pts)).encode()).hexdigest()
        for pts in (region.points, region.frontier)
    )
    assert digests == _GOLDEN[variant, protocol.value]


def test_csv_rows_keep_the_sign_of_zero_controls():
    # -0.0 == 0.0, so a per-value text cache must not serve one for the other
    controls = [ProtocolControls(0.0, -0.0, 0.5, 0.5, 0.0),
                ProtocolControls(-0.0, 0.0, 0.5, -0.0, -0.0),
                ProtocolControls(0.0, -0.0, 0.5, 0.5, 0.0)]
    points = [OperatingPoint(1.0 + i, -0.0 if i else 0.0, c, ProtocolId.D)
              for i, c in enumerate(controls)]
    lines = "".join(_csv_rows(RateEnergyRegion(points, (), ProtocolId.D, 2).points)).split("\n")
    assert len(lines) == 5 and lines[-1] == ""
    for line, p in zip(lines[1:], points):
        c = p.controls
        values = (c.alpha_nirl, c.tau_nirl, c.alpha_vl, c.tau_vl, c.rho_rf,
                  p.rate, p.harvested_power)
        assert line == "d," + ",".join(format(v, ".8e") for v in values)


def _e8_strings(values):
    """The texts cli._e8 writes for a float64 array, NUL padding dropped."""
    cells, _ = cli._e8(np.asarray(values, dtype=np.float64))
    return [cell.tobytes().replace(b"\0", b"").decode() for cell in cells]


@pytest.mark.parametrize("v", [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               2.225073858507201e-308, 1e308, -1e308,
                               1.7976931348623157e308, float("inf"), float("-inf"),
                               float("nan"), 0.5, 1 / 3, 9.999999995e-5])
def test_percent_e_equals_format_e(v):
    # the CSV writer's "%.8e" kernel, alone and beside a value it spells out itself
    assert _e8_strings([v]) == [format(v, ".8e")]
    assert _e8_strings([v, 0.25]) == [format(v, ".8e"), "2.50000000e-01"]


# Values where a vectorised "%.8e" goes wrong unless it falls back to Python.
_E8_EDGES = [
    123456789.5, 123456788.5, 0.5, 2.5, 1.5e-10,  # exact ties at the ninth digit
    # decimal ties that are no binary ties: the scaled product rounds onto .5
    4.992100795, 12316083.95, 9.538325895e-14, 8.944600425e-11, 1.019057405e30,
    2.780869985e20,
    999999999.5, 9.999999995, 9.9999999951, 9.9999999949, 99999999.95,  # next decade
    *(v for k in range(-15, 32) for v in (np.nextafter(10.0 ** k, 0), 10.0 ** k,
                                          np.nextafter(10.0 ** k, np.inf))),
    1e99, 1e-99, 1e100, 1e-100, 9.999999995e99,
    5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -0.0,
]


def test_e8_equals_format_e_at_the_edges():
    values = np.array(_E8_EDGES + [-v for v in _E8_EDGES])
    assert _e8_strings(values) == [format(v, ".8e") for v in values.tolist()]
    assert [_e8_strings([v])[0] for v in values] == [format(v, ".8e") for v in values.tolist()]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | st.floats(-1e31, 1e31) | st.floats(-1e-14, 1e-14)
                | st.integers(10 ** 8, 10 ** 9).map(lambda k: (k + 0.5) / 10 ** 4),
                min_size=1, max_size=50))
def test_e8_equals_format_e_on_any_float(values):
    # every finite float, subnormals and +-0.0 included, also in the kernel's range
    assert _e8_strings(values) == [format(v, ".8e") for v in values]


def test_csv_blocks_of_mixed_widths(monkeypatch):
    # the first block mixes signs, a three-digit exponent and -0.0 controls, so its
    # fields differ in width; the second block's fields do not
    monkeypatch.setattr(cli, "_CSV_BLOCK", 4)
    rows = [(-1.5, 2.5e-3, 0.0, -0.0), (2.5, 1e-120, -0.0, 0.5), (-0.0, 3.0, 0.5, 0.0),
            (-7.25e8, 0.0, -0.0, -0.0),
            (1.25, 2.5, 0.0, 0.5), (3.5e6, 4.5e-3, 0.5, 0.5), (1e-3, 7.0, 0.0, 0.0)]
    points = [OperatingPoint(rate, harvest, ProtocolControls(a, 0.25, b, 0.75, a), ProtocolId.D)
              for rate, harvest, a, b in rows]
    store = RateEnergyRegion(points, (), ProtocolId.D, 2).points
    blocks = list(_csv_rows(store))
    assert len(blocks) == 3
    for block, chunk in zip(blocks[1:], (points[:4], points[4:])):
        want = [",".join(["d", *(format(v, ".8e") for v in (*p.controls, p.rate,
                                                            p.harvested_power))])
                for p in chunk]
        assert block.split("\n") == want + [""]
    assert len({len(line) for line in blocks[1].splitlines()}) > 1
    assert len({len(line) for line in blocks[2].splitlines()}) == 1


def test_csv_rows_format_only_the_levels_a_small_store_uses(monkeypatch):
    # a frontier keeps its parent's levels: five rows over a rho_rf axis three
    # blocks long, with a wider level text that no row uses and one that a row does
    rho = np.linspace(0.0, 1.0, 3 * cli._CSV_BLOCK + 5)
    rho[1], rho[2] = 1e-300, -2.5e-310
    pick = np.array([len(rho) - 1, 2, 7, 2, 0], np.uint16)
    zeros = np.zeros(len(pick), np.uint8)
    store = region_module._Points(ProtocolId.RF_ONLY, np.arange(5.0), np.arange(5.0)[::-1] / 3,
                                  (np.zeros(1),) * 4 + (rho,), (zeros,) * 4 + (pick,))
    want = [",".join(["rf", *(format(v, ".8e") for v in (0, 0, 0, 0, rho[k], k_row,
                                                         (4 - k_row) / 3))])
            for k_row, k in enumerate(pick)]
    formatted = []

    def e8_texts(values, _real=cli._e8_texts):
        formatted.append(len(values))
        return _real(values)

    monkeypatch.setattr(cli, "_e8_texts", e8_texts)
    assert "".join(_csv_rows(store)).split("\n") == [CSV_HEADER, *want, ""]
    # one level of each pinned column, the four rho_rf levels the rows use, and
    # whatever rate or harvest texts _e8 hands to Python
    assert sum(formatted[:5]) == 4 + 4
    assert sum(formatted) <= 4 + 4 + 2 * len(pick)


def test_csv_blocks_end_on_whole_lines(monkeypatch, scenario):
    monkeypatch.setattr(cli, "_CSV_BLOCK", 7)
    points = sweep(scenario, ProtocolId.C, 4).points
    blocks = list(_csv_rows(points))
    assert all(block.endswith("\n") for block in blocks)
    assert [block.count("\n") for block in blocks] == [1] + [7] * 9 + [1]  # 64 rows
    monkeypatch.undo()
    assert "".join(blocks) == "".join(_csv_rows(points))


def _hex(point):
    c = point.controls
    return tuple(v.hex() for v in (point.rate, point.harvested_power, c.alpha_nirl,
                                   c.tau_nirl, c.alpha_vl, c.tau_vl, c.rho_rf))


# Every float the store must keep bit for bit: signed zeros, subnormals and
# the largest finite doubles, besides ordinary values.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308]
_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
_UNIT_FLOAT = (st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 5e-324, 1.0])
               | st.floats(0.0, 1e-300))


@st.composite
def _points(draw, values=_ANY_FLOAT, max_size=40):
    rows = draw(st.lists(st.tuples(values, values, *[_UNIT_FLOAT] * 5),
                         min_size=1, max_size=max_size))
    return [OperatingPoint(rate, harvest, ProtocolControls(*controls), ProtocolId.D)
            for rate, harvest, *controls in rows]


@settings(max_examples=100, deadline=None)
@given(_points())
def test_store_round_trips_bit_for_bit(points):
    store = RateEnergyRegion(points, (), ProtocolId.D, 2).points
    assert len(store) == len(points)
    want = [_hex(p) for p in points]
    assert [_hex(p) for p in store] == want
    assert [_hex(store[i]) for i in range(-len(points), len(points))] == want * 2
    assert [_hex(p) for p in store[1::2]] == want[1::2]
    assert [tuple(v.hex() for v in row) for row in store.rows()] == want
    assert store == RateEnergyRegion(list(store), (), ProtocolId.D, 2).points
    lines = (",".join(["d", *(format(v, ".8e") for v in (*p.controls, p.rate,
                                                          p.harvested_power))]) + "\n"
             for p in points)
    assert "".join(_csv_rows(store)) == CSV_HEADER + "\n" + "".join(lines)


# A handful of values makes ties in rate, in harvest and exact duplicates
# (including 0.0 against -0.0) common.
_TIED = st.sampled_from([0.0, -0.0, 5e-324, 1.0, 2.0, 1e308])


def _indexed(points):
    """The same points with distinct controls, so kept duplicates are told apart."""
    n = len(points)
    return [OperatingPoint(p.rate, p.harvested_power,
                           ProtocolControls(i / n, 0.0, 0.0, 0.0, 0.0), ProtocolId.D)
            for i, p in enumerate(points)]


@settings(max_examples=200, deadline=None)
@given(_points(_TIED, max_size=60) | _points(max_size=60))
def test_pareto_equals_brute_force_on_lists_and_columns(points):
    points = _indexed(points)
    slow = brute_force_frontier(points)
    fast = pareto(points)
    assert len(fast) == len(slow) and all(a is b for a, b in zip(fast, slow))
    columns = pareto(RateEnergyRegion(points, (), ProtocolId.D, 2).points)
    assert [_hex(p) for p in columns] == [_hex(p) for p in slow]


@pytest.mark.parametrize("block", [1, 2, 7])
@settings(max_examples=100, deadline=None)
@given(points=_points(_TIED, max_size=60))
def test_blocked_pareto_equals_brute_force(block, points):
    # the frontier of the blocks' frontiers, filtered again in input order,
    # keeps the same first duplicate (0.0 against -0.0 included)
    points = _indexed(points)
    slow = brute_force_frontier(points)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(region_module, "_FRONTIER_BLOCK", block)
        fast = pareto(points)
        columns = pareto(RateEnergyRegion(points, (), ProtocolId.D, 2).points)
    assert len(fast) == len(slow) and all(a is b for a, b in zip(fast, slow))
    assert [_hex(p) for p in columns] == [_hex(p) for p in slow]


def _assert_store_invariants(store):
    assert len(store.levels) == len(store.index) == 5
    for levels, index in zip(store.levels, store.index):
        assert levels.dtype == np.float64 and index.dtype.kind == "u"
        assert len(index) == len(store) and (len(index) == 0 or index.max() < len(levels))
        assert len(np.unique(levels.view(np.int64))) == len(levels)  # distinct by bits
        # the narrowest unsigned width that indexes this control's own levels
        assert len(levels) <= 256 ** index.dtype.itemsize
        assert index.dtype == np.uint8 or len(levels) > 256 ** (index.dtype.itemsize // 2)


def _index_bytes_held(store):
    """Bytes of the arrays that own the store's index columns' memory."""
    owners = {id(a): a for a in (i if i.base is None else i.base for i in store.index)}
    return sum(a.nbytes for a in owners.values())


@pytest.mark.parametrize("protocol,grid,free_dtype", [
    (ProtocolId.D, 2, np.uint8), (ProtocolId.C, 21, np.uint8), (ProtocolId.A, 33, np.uint8),
    (ProtocolId.RF_ONLY, 256, np.uint8), (ProtocolId.RF_ONLY, 257, np.uint16),
    (ProtocolId.RF_ONLY, 70000, np.uint32)])
def test_swept_store_keeps_distinct_levels_and_small_indices(lux_gated_scenario, protocol,
                                                             grid, free_dtype):
    # a free control has grid levels, a pinned one a single level
    free = protocols.free_controls(protocol)
    want = [free_dtype if name in free else np.uint8 for name in protocols._CONTROL_NAMES]
    region = sweep(lux_gated_scenario, protocol, grid)
    for store in (region.points, region.frontier):
        _assert_store_invariants(store)
        assert [index.dtype for index in store.index] == want
        # no index column keeps a wider matrix alive
        assert _index_bytes_held(store) == sum(index.nbytes for index in store.index)


@settings(max_examples=100, deadline=None)
@given(_points())
def test_stored_list_keeps_distinct_levels(points):
    store = RateEnergyRegion(points, (), ProtocolId.D, 2).points
    _assert_store_invariants(store)
    for k, levels in enumerate(store.levels):  # one level for each bit pattern used
        bits = {np.float64(p.controls[k]).view(np.int64).item() for p in points}
        assert sorted(levels.view(np.int64).tolist()) == sorted(bits)


def _dominates_oracle(a, b):
    """The pairwise test: each point of b's frontier under some point of a's."""
    return all(any(p.rate >= q.rate and p.harvested_power >= q.harvested_power
                   for p in a.frontier) for q in b.frontier)


def _region(points):
    return RateEnergyRegion(points, pareto(points), ProtocolId.D, 2)


@settings(max_examples=300, deadline=None)
@given(_points(_TIED, max_size=30), _points(_TIED, max_size=30), st.booleans())
def test_dominates_equals_pairwise_oracle(a_points, b_points, nested):
    if nested:  # b drawn from a's points, so a dominates b and the merge must say so
        b_points = a_points[::2] + b_points[:1]
    a, b = _region(a_points), _region(b_points)
    for x, y in ((a, b), (b, a), (a, a)):
        assert dominates(x, y) is _dominates_oracle(x, y)


def test_sweep_memory_per_point(scenario):
    # The columns take 21 bytes a point (16 of rate and harvest, 5 of uint8
    # indices); with the Pareto filter's blocks the traced peak is about 45 at
    # this grid (29 at grid 61).  Point objects kept alive cost ~290.
    sweep(scenario, ProtocolId.D, 2)  # build the ensemble outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        region = sweep(scenario, ProtocolId.D, 41)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(region.points) == 41 ** 3
    assert peak / len(region.points) < 120


def test_sweep_keeps_controls_as_index_columns(scenario):
    # 16 bytes of rate and harvest and 5 of uint8 indices a point, plus the
    # Pareto filter's blocks: about 29 bytes a point traced.  Float64 control
    # columns would add 35 more.
    sweep(scenario, ProtocolId.D, 2)  # build the ensemble outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        region = sweep(scenario, ProtocolId.D, 61)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(region.points) == 61 ** 3
    assert peak / len(region.points) < 40


def test_rejecting_sweep_keeps_positions_in_a_typed_array(lux_gated_scenario):
    # c rejects 58% of its tuples here: 16 bytes of rate and harvest and 5 of
    # uint8 indices a kept point, 8 bytes a rejected position, and the index
    # columns np.delete filters: about 20 bytes a tuple traced.  Rejected
    # positions kept as a list of Python ints read 46.8.
    sweep(lux_gated_scenario, ProtocolId.D, 2)  # build the ensemble outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        region = sweep(lux_gated_scenario, ProtocolId.C, 41)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 0 < len(region.points) < 41 ** 3
    assert peak / 41 ** 3 < 35


def _cold_outcome(scenario, protocol, controls):
    """A cold evaluate's (rate, harvest) hex, None when infeasible, or its error text."""
    try:
        point = evaluate(dataclasses.replace(scenario), protocol, controls)
    except InfeasibleControlsError:
        return None
    except ScenarioValidationError as exc:
        return str(exc)
    return point.rate.hex(), point.harvested_power.hex()


def _assert_sweeps_equal_cold_evaluate(s, grid, ids=tuple(ProtocolId)):
    grids = {protocol: list(enumerate_controls(protocol, grid)) for protocol in ids}
    cold = {protocol: [_cold_outcome(s, protocol, c) for c in controls]
            for protocol, controls in grids.items()}
    # The sweeps run back to back on one scenario object, so later
    # protocols read band terms the earlier ones memoised.
    for protocol, controls in grids.items():
        errors = [o for o in cold[protocol] if isinstance(o, str)]
        if errors:  # the sweep stops at the first tuple that raises
            with pytest.raises(ScenarioValidationError) as info:
                sweep(s, protocol, grid)
            assert str(info.value) == errors[0]
            continue
        # protocol c's rejected tuples are absent, every other tuple in order
        want = [(*o, *(v.hex() for v in c)) for c, o in zip(controls, cold[protocol]) if o]
        if not want:
            with pytest.raises(DegenerateRegionError):
                sweep(s, protocol, grid)
            continue
        got = [tuple(v.hex() for v in row) for row in sweep(s, protocol, grid).points.rows()]
        assert got == want, protocol


@st.composite
def _sweep_scenarios(draw):
    """A scenario of the round-trip strategy, small fading ensemble, maybe lux-gated."""
    s = dataclasses.replace(draw(_valid_scenarios()), mc_samples=draw(st.integers(1, 200)))
    if draw(st.booleans()):
        full = illuminance_at(s.vl_bulb_power, s.luminous_efficacy, s.vl_geometry())
        low, high = sorted(draw(st.lists(st.floats(0.0, 1.5), min_size=2, max_size=2,
                                         unique=True)))
        if low * full < high * full:
            s = dataclasses.replace(s, safety=dataclasses.replace(
                s.safety, illuminance_min=low * full, illuminance_max=high * full))
    return s


@settings(max_examples=40, deadline=None)
@given(_sweep_scenarios(), st.integers(3, 5))
def test_sweeps_of_random_scenarios_equal_cold_evaluate(s, grid):
    _assert_sweeps_equal_cold_evaluate(s, grid)


def test_sweep_equals_cold_evaluate_when_memos_evict(monkeypatch, lux_gated_scenario):
    # three entries for five rho_rf levels: the RF memo evicts on every lookup
    monkeypatch.setattr(protocols, "_MEMO_SIZE", 3)
    s = dataclasses.replace(lux_gated_scenario)
    _assert_sweeps_equal_cold_evaluate(s, 5)
    last, bands = protocols._last_bands
    assert last is s
    rf = bands.rf.cache_info()
    assert (rf.maxsize, rf.currsize, rf.hits) == (3, 3, 0)
    assert rf.misses > rf.currsize  # some RF term was evicted


def test_sweep_computes_each_band_term_once_and_holds_one_lightwave_term(scenario):
    s = dataclasses.replace(scenario)  # a scenario no context was built for
    sweep(s, ProtocolId.D, 21)
    last, bands = protocols._last_bands
    assert last is s
    lightwave, rf = bands.lightwave.cache_info(), bands.rf.cache_info()
    assert (lightwave.misses, lightwave.currsize, lightwave.maxsize) == (21 ** 2, 1, 1)
    assert (rf.misses, rf.currsize) == (21, 21)


def test_compare_merges_the_protocols_that_drive_the_rf_band(monkeypatch, scenario, capsys):
    swept = []

    def recording_sweep(s, protocol, grid):
        swept.append(protocol)
        return sweep(s, protocol, grid)

    for module in (cli, region_module):
        monkeypatch.setattr(module, "sweep", recording_sweep)
    assert cli.cmd_compare(scenario, 5) == 0
    assert swept == [p for p in ProtocolId if protocols._TABLE[p].rf is None]
    assert swept == [ProtocolId.VL_ONLY, ProtocolId.NIRL_ONLY]


def _assert_merge_equals_sweep(s, protocol, grid):
    """The band merge's count, frontier values and maxima are sweep's, bit for bit."""
    try:
        count, merged = region_module._band_merge(s, protocol, grid)
    except (ScenarioValidationError, DegenerateRegionError) as exc:
        with pytest.raises(type(exc)) as info:
            sweep(s, protocol, grid)
        assert str(info.value) == str(exc)
        return None
    swept = sweep(s, protocol, grid)
    assert count == len(swept.points)
    for k in range(2):  # rate, then harvested power; -0.0 and 0.0 differ as int64
        assert np.array_equal(merged.frontier.columns[k].view(np.int64),
                              swept.frontier.columns[k].view(np.int64))
    assert max_rate(merged) == max_rate(swept) == swept.points.columns[0].max()
    assert max_energy(merged) == max_energy(swept) == swept.points.columns[1].max()
    return count


# numpy's floating-point warnings are errors; see test_band_terms_equal_a_per_tuple_loop
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(_sweep_scenarios(), st.integers(2, 6))
def test_band_merge_equals_sweep_on_random_scenarios(s, grid):
    for protocol in ProtocolId:
        _assert_merge_equals_sweep(s, protocol, grid)


def _merged_bits(s, protocol, grid):
    try:
        count, merged = region_module._band_merge(s, protocol, grid)
    except (ScenarioValidationError, DegenerateRegionError) as exc:
        return type(exc), str(exc)
    return count, [column.view(np.int64).tolist() for column in merged.frontier.columns]


@settings(max_examples=40, deadline=None)
@given(_sweep_scenarios(), st.integers(2, 6))
def test_blocked_band_merge_equals_one_block(s, grid):
    for protocol in ProtocolId:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(region_module, "_FRONTIER_BLOCK", 1 << 62)  # one block
            want = _merged_bits(s, protocol, grid)
            for block in (1, 2, 7):
                patch.setattr(region_module, "_FRONTIER_BLOCK", block)
                assert _merged_bits(s, protocol, grid) == want, (protocol, block)


@st.composite
def _rows(draw):
    """A protocol row of any pin pattern, drives and lux gate, and a grid to sweep it on."""
    level = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    controls = draw(st.lists(st.just(protocols._SWEPT) | level, min_size=5, max_size=5))
    row = protocols._Protocol(
        controls,
        draw(st.sampled_from([None, protocols._NIRL])),
        draw(st.sampled_from([None, protocols._VL_FULL, protocols._dimmed_vl_budget])),
        draw(st.sampled_from([None, protocols._RF_FULL, protocols._RF_WPT])),
        lux_gated=draw(st.booleans()),
    )
    return row, draw(st.integers(2, 3 if len(row.free) == 5 else 5))


_ALL_SWEPT = protocols._Protocol((protocols._SWEPT,) * 5, protocols._NIRL, protocols._VL_FULL,
                                 protocols._RF_WPT)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(_sweep_scenarios(), _rows(), st.sampled_from(ProtocolId))
@example(parse_scenario(""), (_ALL_SWEPT, 3), ProtocolId.D)
@example(_lux_gated(parse_scenario("")), (_ALL_SWEPT, 3), ProtocolId.C)
def test_both_engines_equal_evaluate_on_any_row(s, row_and_grid, protocol):
    # a row nobody has written yet, installed in place of one protocol's
    row, grid = row_and_grid
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(protocols._TABLE, protocol, row)
        _assert_sweeps_equal_cold_evaluate(s, grid, (protocol,))
        _assert_merge_equals_sweep(s, protocol, grid)


_OUT_OF_RANGE = "; the scenario's model constants are out of range"


def _direct_outcome(s, row, controls):
    """evaluate's (rate, harvest) hex or its error text, from direct _lightwave_branch
    and _rf_branch calls added in evaluate's order; no memo and no band context."""
    gains = {name: channel_gain(geometry, s.pd_area, s.optical_filter_gain)
             for name, geometry in (("NIRL", s.nirl_geometry()), ("VL", s.vl_geometry()))}
    terms = [(name, protocols._lightwave_branch, (s, drive(s), gains[name], *controls[k:k + 2]))
             for name, drive, k in row.lightwave]
    if row.rf is not None:
        terms.append(("RF", protocols._rf_branch, (s, row.rf(s), controls[4])))
    rate = harvest = 0.0
    for name, kernel, args in terms:
        try:
            term = kernel(*args)
        except ArithmeticError as exc:
            return f"the {name} band yields {type(exc).__name__} ({exc}){_OUT_OF_RANGE}"
        if not all(map(math.isfinite, term)):
            what = f"a non-finite (rate, harvested power) = {term}"
            return f"the {name} band yields {what}{_OUT_OF_RANGE}"
        rate += term[0]
        harvest += term[1]
    if not (math.isfinite(rate) and math.isfinite(harvest)):
        return ("the summed band terms are non-finite: (rate, harvested power) = "
                f"({rate}, {harvest}){_OUT_OF_RANGE}")
    return rate.hex(), harvest.hex()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(_sweep_scenarios(), _rows(), st.sampled_from(ProtocolId), st.randoms(use_true_random=False))
# kernels that raise (a NIRL rate past the float range), a harvest that is inf,
# and NIRL and VL rates that are finite but whose sum is not
@example(parse_scenario("nirl_bulb_power = 1e200\n"), (_ALL_SWEPT, 3), ProtocolId.D, random.Random(0))
@example(parse_scenario("thermal_voltage = 1e308\n"), (_ALL_SWEPT, 3), ProtocolId.D, random.Random(0))
@example(parse_scenario("optical_bandwidth = 8e306\n"), (_ALL_SWEPT, 3), ProtocolId.D, random.Random(0))
@example(_lux_gated(parse_scenario("")), (_ALL_SWEPT, 3), ProtocolId.C, random.Random(0))
def test_evaluate_equals_direct_band_kernels_on_any_row(s, row_and_grid, protocol, order):
    # evaluate's memos on one scenario object, in grid order and then in any order
    # mixed with the other rows' tuples at grid 3 (c's VL bias 0.5 at full drive
    # beside d's at dim drive), against the band kernels called directly per tuple
    row, grid = row_and_grid
    others = [(protocols._TABLE[p], p, values) for p in ProtocolId if p is not protocol
              for values in enumerate_controls(p, 3)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(protocols._TABLE, protocol, row)
        cases = [(row, protocol, values) for values in enumerate_controls(protocol, grid)]
        mixed = cases + others
        order.shuffle(mixed)
        for case_row, case, values in (*cases, *mixed):
            want = _direct_outcome(s, case_row, values)
            try:
                point = evaluate(s, case, values)
            except InfeasibleControlsError:
                _, above, below = protocols._Bands(s).lux(values[2], values[3])
                assert case_row.lux_gated and (above or below)
                continue
            except ScenarioValidationError as exc:
                assert str(exc) == want, (case, values)
                continue
            assert (point.rate.hex(), point.harvested_power.hex()) == want, (case, values)


@pytest.mark.parametrize("protocol,grid,levels", [
    (ProtocolId.VL_ONLY, 41, 41), (ProtocolId.NIRL_ONLY, 41, 41),
    # 21 NIRL bias levels and d's one pinned VL level
    (ProtocolId.D, 21, 22)])
def test_sweep_runs_the_lightwave_kernels_once_per_bias_level(monkeypatch, scenario, protocol,
                                                             grid, levels):
    calls = dict.fromkeys(["lightwave_rate", "optical_harvest"], 0)
    for name in calls:
        def counted(*args, _name=name, _kernel=getattr(protocols, name)):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(protocols, name, counted)
    s = dataclasses.replace(scenario)  # a scenario no context was built for
    assert len(sweep(s, protocol, grid).points) == grid ** len(protocols.free_controls(protocol))
    # each bias level harvests twice (ID slot and all-DC remainder)
    assert calls == {"lightwave_rate": levels, "optical_harvest": 2 * levels}
    assert protocols._last_bands[1].levels.cache_info().maxsize == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid", [21, 41])
@pytest.mark.parametrize("variant", ["default", "lux_gated"])
def test_band_merge_equals_sweep(scenario, lux_gated_scenario, variant, grid):
    s = scenario if variant == "default" else lux_gated_scenario
    counts = {p: _assert_merge_equals_sweep(s, p, grid) for p in ProtocolId}
    if (variant, grid) == ("lux_gated", 21):
        assert counts[ProtocolId.C] == 21 ** 3 - 5418


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text,raising", [
    # only d adds a NIRL and a VL rate; each is finite, their sum is not
    ("optical_bandwidth = 8e306\n", ["d"]),
    # the lightwave plus RF sums overflow
    ("optical_bandwidth = 5e306\nrf_bandwidth = 5e306\n", ["a", "b", "c", "d"]),
    # every RF term raises, and NIRL terms from the first alpha_nirl above
    # 0: d's first failing tuple is at an RF term, b's at a NIRL term
    ("nirl_bulb_power = 1e200\nrf_bandwidth = 1e308\n", ["rf", "nirl", "a", "b", "c", "d"]),
], ids=["lightwave-sum", "band-sum", "rf-before-nirl"])
def test_band_merge_raises_the_sweeps_first_error(text, raising):
    s = parse_scenario(text)
    assert [p.value for p in ProtocolId if _assert_merge_equals_sweep(s, p, 5) is None] == raising


def _looped_band_terms(s, protocol, grid):
    """_band_terms' outcome, from evaluate's band memos one tuple at a time."""
    row, bands = protocols._TABLE[protocol], protocols._Bands(s)
    *lightwave_axes, rho_levels = protocols._axes(protocol, grid)
    try:
        lightwave = [bands.lightwave(row, *values)
                     for values in itertools.product(*lightwave_axes)]
        feasible = [violation is None for violation, _, _ in lightwave]
        if not any(feasible):
            return feasible, None, None
        rf = [bands.rf(row.rf, rho) for rho in rho_levels]
    except ScenarioValidationError:
        return None
    terms = [(rate, harvest) for violation, rate, harvest in lightwave if violation is None]
    if not all(map(math.isfinite, (a + b for t in terms for u in rf for a, b in zip(t, u)))):
        return None
    return feasible, terms, rf


# numpy's floating-point warnings are errors; a blanket "error" filter would
# also turn a DeprecationWarning that hypothesis raises while it reports a
# falsifying example into a pytest INTERNALERROR that ends the session
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(_sweep_scenarios(), st.integers(2, 6))
# rate kernels that overflow where the AC swing is above zero, not at alpha 0 or 1
@example(parse_scenario("nirl_bulb_power = 1e200\n"), 3)
@example(parse_scenario("optical_filter_gain = 1e300\n"), 3)
def test_band_terms_equal_a_per_tuple_loop(s, grid):
    for protocol in (p for p in ProtocolId if protocols._TABLE[p].rf is not None):
        looped = _looped_band_terms(s, protocol, grid)
        if looped is None:  # some kept tuple's term or sum is inf or NaN
            with pytest.raises(ScenarioValidationError):
                protocols._band_terms(s, protocol, grid)
            continue
        feasible, terms, rf = protocols._band_terms(s, protocol, grid)
        assert feasible.tolist() == looped[0]
        if looped[1] is None:
            assert (terms, rf) == (None, None)
            continue
        for got, want in ((terms[feasible], looped[1]), (rf, looped[2])):
            assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


@pytest.mark.parametrize("protocol", [ProtocolId.C, ProtocolId.D])
def test_band_terms_call_the_lightwave_kernels_once_per_alpha(monkeypatch, scenario, protocol):
    calls = dict.fromkeys(["lightwave_rate", "optical_harvest", "illuminance_at"], 0)
    for name in calls:
        def counted(*args, _name=name, _kernel=getattr(protocols, name)):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(protocols, name, counted)
    protocols._band_terms(scenario, protocol, 41)
    # one level of the pinned band's alpha, 41 of the swept one's; each
    # _lightwave_branch harvests twice (ID slot and all-DC remainder)
    assert calls["lightwave_rate"] <= 2 * 41 + 2
    assert calls["optical_harvest"] <= 2 * 41 + 2
    assert calls["illuminance_at"] <= 2  # full drive, and c's levels as one array


def test_band_terms_and_evaluate_keep_their_own_contexts(scenario, lux_gated_scenario):
    other = dataclasses.replace(scenario, nirl_bulb_power=40.0, rf_distance=6.0)
    grid = 5

    def merged():
        count, region = region_module._band_merge(lux_gated_scenario, ProtocolId.C, grid)
        return count, [column.view(np.int64).tolist() for column in region.frontier.columns[:2]]

    first = merged()
    swept = sweep(other, ProtocolId.D, grid).points.rows()
    cold = dataclasses.replace(other)  # a scenario no context was built for
    assert [tuple(v.hex() for v in row[:2]) for row in swept] == [
        tuple(v.hex() for v in evaluate(cold, ProtocolId.D, controls)[:2])
        for controls in enumerate_controls(ProtocolId.D, grid)]
    assert merged() == first
    assert protocols._last_bands[0] is cold  # the merge left evaluate's context alone


def test_band_merge_rejects_a_glaring_grid_before_any_rf_term(monkeypatch,
                                                             lux_gated_scenario):
    def no_rf(*args):
        raise AssertionError("an RF term was computed")

    monkeypatch.setattr(protocols, "_rf_branch", no_rf)
    glaring = dataclasses.replace(lux_gated_scenario, luminous_efficacy=5000.0)
    with pytest.raises(DegenerateRegionError,
                       match="^every control tuple of protocol c is infeasible$"):
        region_module._band_merge(glaring, ProtocolId.C, 21)
