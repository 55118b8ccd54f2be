import dataclasses
import itertools
import random
import re
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
from helpers import (assert_sweeps_equal_cold_evaluate, bits, brute_frontier_indices, counted,
                     direct_outcome, direct_terms, lexsort_frontier, lux_gated, lux_rejects,
                     valid_scenarios)

_DUMMY_CONTROLS = ProtocolControls(0.0, 0.0, 0.0, 0.0, 0.0)


def _point(rate, energy):
    return OperatingPoint(rate, energy, _DUMMY_CONTROLS, ProtocolId.RF_ONLY)


def brute_force_frontier(points):
    """The points brute_frontier_indices keeps, the independent oracle."""
    kept = brute_frontier_indices(np.array([p.rate for p in points]),
                                  np.array([p.harvested_power for p in points]))
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
    empty = RateEnergyRegion((), ProtocolId.RF_ONLY, 2)
    with pytest.raises(DegenerateRegionError):
        max_rate(empty)
    with pytest.raises(DegenerateRegionError):
        max_energy(empty)


def test_region_frontier_is_pareto_of_its_points():
    # the frontier is pareto(points) in whatever order the points come, so both ends
    # and dominance read a true frontier; no frontier can be passed in beside them
    falling, rising = ([OperatingPoint(r, h, _DUMMY_CONTROLS, ProtocolId.D) for r, h in pairs]
                       for pairs in ([(2.0, 1.0), (1.0, 2.0)], [(1.0, 2.0), (2.0, 1.0)]))
    region, other = (RateEnergyRegion(points, ProtocolId.D, 2) for points in (falling, rising))
    assert (max_rate(region), max_energy(region)) == (2.0, 2.0)
    assert dominates(region, other) and dominates(other, region)
    assert region.frontier == pareto(region.points)
    with pytest.raises(TypeError):
        RateEnergyRegion(falling, pareto(falling), ProtocolId.D, 2)


def test_region_refuses_points_of_another_protocol(scenario):
    # else the CSV would write a's points, with a's pins, as d rows
    a, d = (list(sweep(scenario, protocol, 3).points) for protocol in (ProtocolId.A, ProtocolId.D))
    for points in (a, sweep(scenario, ProtocolId.A, 3).points):  # a list, then a store
        with pytest.raises(ValueError, match=r"^point 0 is of protocol a, not d$"):
            RateEnergyRegion(points, ProtocolId.D, 3)
    with pytest.raises(ValueError, match=r"^point 27 is of protocol a, not d$"):
        RateEnergyRegion((p for p in d + a), ProtocolId.D, 3)  # read once, as it is built
    assert RateEnergyRegion(iter(d), ProtocolId.D, 3).points == sweep(scenario, ProtocolId.D, 3).points


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


def test_csv_rows_keep_the_sign_of_zero_controls():
    # -0.0 == 0.0, so a per-value text cache must not serve one for the other
    controls = [ProtocolControls(0.0, -0.0, 0.5, 0.5, 0.0),
                ProtocolControls(-0.0, 0.0, 0.5, -0.0, -0.0),
                ProtocolControls(0.0, -0.0, 0.5, 0.5, 0.0)]
    points = [OperatingPoint(1.0 + i, -0.0 if i else 0.0, c, ProtocolId.D)
              for i, c in enumerate(controls)]
    lines = b"".join(_csv_rows(RateEnergyRegion(points, ProtocolId.D, 2).points)).decode()
    lines = lines.split("\n")
    assert len(lines) == 5 and lines[-1] == ""
    for line, p in zip(lines[1:], points):
        c = p.controls
        values = (c.alpha_nirl, c.tau_nirl, c.alpha_vl, c.tau_vl, c.rho_rf,
                  p.rate, p.harvested_power)
        assert line == "d," + ",".join(format(v, ".8e") for v in values)


def _e8_strings(values):
    """The texts cli._e8 writes for a float64 array, NUL padding dropped, once its
    flag is checked: True exactly when some cell holds a NUL."""
    cells, padded = cli._e8(np.asarray(values, dtype=np.float64))
    assert padded is any(b"\0" in cell.tobytes() for cell in cells)
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
    # 1.0 misses the kernel's window (s = 1e8), but its text is as wide as the rest
    assert cli._e8(np.array([1.0]))[1] is False and cli._e8(np.array([1.0, 0.5]))[1] is False
    assert cli._e8(np.array([-1.0, 0.5]))[1] is True


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
    monkeypatch.setattr(region_module, "_STREAM_BLOCK", 4)
    rows = [(-1.5, 2.5e-3, 0.0, -0.0), (2.5, 1e-120, -0.0, 0.5), (-0.0, 3.0, 0.5, 0.0),
            (-7.25e8, 0.0, -0.0, -0.0),
            (1.25, 2.5, 0.0, 0.5), (3.5e6, 4.5e-3, 0.5, 0.5), (1e-3, 7.0, 0.0, 0.0)]
    points = [OperatingPoint(rate, harvest, ProtocolControls(a, 0.25, b, 0.75, a), ProtocolId.D)
              for rate, harvest, a, b in rows]
    store = RateEnergyRegion(points, ProtocolId.D, 2).points
    blocks = [bytes(block).decode() for block in _csv_rows(store)]
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
    rho = np.linspace(0.0, 1.0, 3 * region_module._STREAM_BLOCK + 5)
    rho[1], rho[2] = 1e-300, -2.5e-310
    pick = np.array([len(rho) - 1, 2, 7, 2, 0], np.uint16)
    zeros = np.zeros(len(pick), np.uint8)
    store = region_module._Points(ProtocolId.RF_ONLY, np.arange(5.0), np.arange(5.0)[::-1] / 3,
                                  (np.zeros(1),) * 4 + (rho,), (zeros,) * 4 + (pick,))
    want = [",".join(["rf", *(format(v, ".8e") for v in (0, 0, 0, 0, rho[k], k_row,
                                                         (4 - k_row) / 3))])
            for k_row, k in enumerate(pick)]
    sizes = []

    def e8(values, _real=cli._e8):
        sizes.append(len(values))
        return _real(values)

    monkeypatch.setattr(cli, "_e8", e8)
    assert b"".join(_csv_rows(store)).decode().split("\n") == [CSV_HEADER, *want, ""]
    # one level of each pinned column, the four rho_rf levels the rows use, then
    # the rows' rates and harvests: every text comes from _e8
    assert sizes == [1, 1, 1, 1, 4, 5, 5]


def test_csv_blocks_end_on_whole_lines(monkeypatch, scenario):
    monkeypatch.setattr(region_module, "_STREAM_BLOCK", 7)
    points = sweep(scenario, ProtocolId.C, 4).points
    blocks = [bytes(block) for block in _csv_rows(points)]
    assert all(block.endswith(b"\n") for block in blocks)
    assert [block.count(b"\n") for block in blocks] == [1] + [7] * 9 + [1]  # 64 rows
    monkeypatch.undo()
    assert b"".join(blocks) == b"".join(_csv_rows(points))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats() | st.sampled_from(_E8_EDGES), min_size=1, max_size=60),
       st.data(), st.integers(1, 9))
def test_e8_of_a_long_axis_a_block_at_a_time_equals_one_call(levels, data, block):
    # a long axis's texts, _e8 of only the levels each block of an index column uses,
    # are one call's, NUL padding dropped; each call's flag is exact, and a block of
    # texts that one call pads nowhere is not padded either
    levels = np.array(levels)
    index = np.array(data.draw(st.lists(st.integers(0, len(levels) - 1), min_size=1, max_size=60)))
    cells, padded = cli._e8(levels)
    for start in range(0, len(index), block):
        used, inverse = np.unique(index[start:start + block], return_inverse=True)
        part, flag = cli._e8(levels[used])
        assert [c.tobytes().rstrip(b"\0") for c in part[inverse]] == [
            c.tobytes().rstrip(b"\0") for c in cells[index[start:start + block]]]
        assert flag is any(b"\0" in c.tobytes() for c in part)
        assert padded or not flag


def test_csv_rows_format_only_the_levels_each_block_of_a_long_axis_uses(monkeypatch):
    # rho_rf has three blocks of levels and five more, each used once, and each block
    # of rows uses its first two and last two unused levels: every block formats only
    # those four rho_rf levels, then its rates and harvests
    monkeypatch.setattr(region_module, "_STREAM_BLOCK", 4)
    rho = np.linspace(0.0, 1.0, 17)
    rho[1], rho[15] = -2.5e-310, 1e-300  # a wider text in the first block
    pick = np.array([0, 16, 1, 15, 2, 14, 3, 13, 4, 12, 5, 11, 6, 10, 7, 9, 8], np.uint8)
    rate, zeros = np.arange(17.0), np.zeros(17, np.uint8)
    store = region_module._Points(ProtocolId.RF_ONLY, rate, rate[::-1] / 3,
                                  (np.zeros(1),) * 4 + (rho,), (zeros,) * 4 + (pick,))
    sizes = []

    def e8(values, _real=cli._e8):
        sizes.append(len(values))
        return _real(values)

    monkeypatch.setattr(cli, "_e8", e8)
    want = [",".join(["rf", *(format(v, ".8e") for v in (0, 0, 0, 0, rho[k], row, (16 - row) / 3))])
            for row, k in enumerate(pick)]
    assert b"".join(_csv_rows(store)).decode().split("\n") == [CSV_HEADER, *want, ""]
    assert sizes == [1, 1, 1, 1] + [4, 4, 4] * 4 + [1, 1, 1]


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
    store = RateEnergyRegion(points, ProtocolId.D, 2).points
    assert len(store) == len(points)
    want = [_hex(p) for p in points]
    assert [_hex(p) for p in store] == want
    assert [_hex(store[i]) for i in range(-len(points), len(points))] == want * 2
    assert [_hex(p) for p in store[1::2]] == want[1::2]
    assert [tuple(v.hex() for v in row) for row in store.rows()] == want
    assert store == RateEnergyRegion(list(store), ProtocolId.D, 2).points
    lines = (",".join(["d", *(format(v, ".8e") for v in (*p.controls, p.rate,
                                                          p.harvested_power))]) + "\n"
             for p in points)
    assert b"".join(_csv_rows(store)).decode() == CSV_HEADER + "\n" + "".join(lines)


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
    columns = pareto(RateEnergyRegion(points, ProtocolId.D, 2).points)
    assert [_hex(p) for p in columns] == [_hex(p) for p in slow]


@pytest.mark.parametrize("block", [1, 2, 7])
@settings(max_examples=100, deadline=None)
@given(points=_points(_TIED, max_size=60), data=st.data())
def test_blocked_pareto_equals_brute_force(block, points, data):
    # the frontier of the blocks' frontiers, filtered again in input order, keeps
    # the same first duplicate (0.0 against -0.0 included), at the fixed block size
    # and at one drawn from 1 to the input's length
    drawn = data.draw(st.integers(1, len(points)), label="drawn block")
    points = _indexed(points)
    slow = brute_force_frontier(points)
    for size in (block, drawn):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(region_module, "_FRONTIER_BLOCK", size)
            fast = pareto(points)
            columns = pareto(RateEnergyRegion(points, ProtocolId.D, 2).points)
        assert len(fast) == len(slow) and all(a is b for a, b in zip(fast, slow))
        assert [_hex(p) for p in columns] == [_hex(p) for p in slow]


_TIED_FLOATS = np.array([0.0, -0.0, 5e-324, 1.0, np.inf, -np.inf])
_COLUMN_KINDS = st.sampled_from(["tied", "repeated", "random"])


def _column(rng, n, kind):
    if kind == "tied":
        return rng.choice(_TIED_FLOATS, n)
    if kind == "repeated":  # random floats, each about 50 times
        return rng.choice(rng.standard_normal(n // 50 + 1), n)
    return rng.standard_normal(n)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 20) | st.integers(0, 200_000), st.integers(0, 2 ** 32 - 1), _COLUMN_KINDS,
       _COLUMN_KINDS)
@example(200_000, 0, "tied", "tied")
@example(200_000, 0, "tied", "repeated")
def test_frontier_kernel_equals_the_lexsort_kernel(n, seed, rate_kind, harvest_kind):
    # the brute oracle stops at 60 points; this one reaches several blocks
    rng = np.random.default_rng(seed)
    rate, harvest = _column(rng, n, rate_kind), _column(rng, n, harvest_kind)
    want = lexsort_frontier(rate, harvest)
    assert np.array_equal(region_module._sorted_frontier(rate, harvest), want)
    blocks = list(region_module._blocks(rate, harvest))
    blocked = region_module._frontier(blocks)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(region_module, "_sorted_frontier", lexsort_frontier)
        assert np.array_equal(blocked, region_module._frontier(blocks))
    assert np.array_equal(blocked, want)


def test_pareto_and_regions_refuse_non_finite_points():
    # The maxima filter needs a total order, which NaN breaks: given rate [3, 4, 1, 2] and
    # harvest [nan, 1, 5, 4], one block kept only point 1, and blocks of 2 kept 2, 3 and 1.
    refusals = (pareto,
                lambda points: RateEnergyRegion(points=points, protocol=ProtocolId.RF_ONLY,
                                                grid_points_per_axis=2))
    with pytest.raises(ValueError, match=r"^point 0 is not finite: rate 3\.0, harvested power nan$"):
        pareto([_point(3.0, np.nan), _point(4.0, 1.0), _point(1.0, 5.0), _point(2.0, 4.0)])
    cases = [([1.0, 2.0, np.nan], [1.0, np.inf, 1.0], 1)]  # the first, whichever its column
    for bad, column, at in itertools.product([np.nan, np.inf, -np.inf], range(2), [0, 2]):
        values = [[3.0, 4.0, 1.0, 2.0], [1.0, 1.0, 5.0, 4.0]]
        values[column][at] = bad
        cases.append((*values, at))
    for rate, harvest, at in cases:
        points = [_point(r, h) for r, h in zip(rate, harvest)]
        for refuse in refusals:
            with pytest.raises(ValueError) as refused:
                refuse(points)
            assert str(refused.value) == (
                f"point {at} is not finite: rate {rate[at]}, harvested power {harvest[at]}")


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
    """Bytes of the buffers that own the store's index columns' memory (a pinned
    column's is one byte, which every pinned column shares)."""
    owners = {id(a): a for a in (i if i.base is None else i.base for i in store.index)}
    return sum(memoryview(a).nbytes for a in owners.values())


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
        # no index column keeps a wider matrix alive, and the pinned ones share one byte
        own = [index for index in store.index if index.strides != (0,)]
        assert len(own) == len(free)
        assert _index_bytes_held(store) == sum(index.nbytes for index in own) + (len(free) < 5)


def _assert_one_level_columns_are_pinned(store):
    """Each index column of a one-level control is a read-only zero-stride view."""
    for levels, index in zip(store.levels, store.index):
        if len(levels) == 1:
            assert index.strides == (0,) and not index.flags.writeable
            assert len(index) == len(store) and index.tolist() == [0] * len(store)


@pytest.mark.parametrize("protocol", list(ProtocolId))
def test_one_level_controls_hold_no_byte_a_point(scenario, lux_gated_scenario, protocol):
    for s in (scenario, lux_gated_scenario) if protocol is ProtocolId.C else (scenario,):
        region = sweep(s, protocol, 9)
        free = protocols.free_controls(protocol)
        assert [len(levels) == 1 for levels in region.points.levels] == [
            name not in free for name in protocols._CONTROL_NAMES]
        points = region.points
        for store in (points, region.frontier, points.take(slice(1, None, 3)),
                      points.take(np.array([len(points) - 1, 0, 0, 2]))):
            _assert_one_level_columns_are_pinned(store)
    # a stored list: tau_nirl and alpha_vl take one value each, the other controls two
    points = [OperatingPoint(rate, harvest, ProtocolControls(a, 0.25, 0.5, a, 1.0 - a),
                             ProtocolId.D)
              for rate, harvest, a in ((0.0, 0.0, 0.0), (0.5, 1.0, 1.0), (1.0, 0.5, 0.0))]
    region = RateEnergyRegion(points, ProtocolId.D, 2)
    assert [len(levels) for levels in region.points.levels] == [2, 1, 1, 2, 2]
    for store in (region.points, region.frontier, region.points.take([2, 2, 0, 1, 1])):
        _assert_one_level_columns_are_pinned(store)


@settings(max_examples=100, deadline=None)
@given(_points())
def test_stored_list_keeps_distinct_levels(points):
    store = RateEnergyRegion(points, ProtocolId.D, 2).points
    _assert_store_invariants(store)
    for k, levels in enumerate(store.levels):  # one level for each bit pattern used
        bits = {np.float64(p.controls[k]).view(np.int64).item() for p in points}
        assert sorted(levels.view(np.int64).tolist()) == sorted(bits)


def _dominates_oracle(a, b):
    """The pairwise test: each point of b's frontier under some point of a's."""
    return all(any(p.rate >= q.rate and p.harvested_power >= q.harvested_power
                   for p in a.frontier) for q in b.frontier)


def _region(points):
    return RateEnergyRegion(points, ProtocolId.D, 2)


@settings(max_examples=300, deadline=None)
@given(_points(_TIED, max_size=30), _points(_TIED, max_size=30), st.booleans())
def test_dominates_equals_pairwise_oracle(a_points, b_points, nested):
    if nested:  # b drawn from a's points, so a dominates b and the merge must say so
        b_points = a_points[::2] + b_points[:1]
    a, b = _region(a_points), _region(b_points)
    for x, y in ((a, b), (b, a), (a, a)):
        assert dominates(x, y) is _dominates_oracle(x, y)


def test_sweep_memory_per_point(scenario):
    # The columns take 19 bytes a point (16 of rate and harvest, 3 of uint8
    # indices: d's two pinned controls' index columns hold none); with the Pareto
    # filter's blocks the traced peak is about 64 at this grid (29 at grid 61).
    # Point objects kept alive cost ~290.
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
    # 16 bytes of rate and harvest and 3 of uint8 indices a point (none for d's
    # two pinned controls), plus the Pareto filter's blocks: about 29 bytes a
    # point traced.  Float64 control columns would add 37 more.
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
    # c rejects 58% of its tuples here: 16 bytes of rate and harvest and 3 of
    # uint8 indices a kept point (none for c's two pinned controls), 8 bytes a
    # rejected position, and the index columns np.delete filters: about 26 bytes
    # a tuple traced.  Rejected positions kept as a list of Python ints read 46.8.
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


@st.composite
def _sweep_scenarios(draw):
    """A scenario of the round-trip strategy, small fading ensemble, maybe lux-gated."""
    s = dataclasses.replace(draw(valid_scenarios()), mc_samples=draw(st.integers(1, 200)))
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
    assert_sweeps_equal_cold_evaluate(s, grid)


def test_sweep_equals_cold_evaluate_when_memos_evict(monkeypatch, lux_gated_scenario):
    # three entries for five rho_rf levels: the RF memo clears before every reuse
    monkeypatch.setattr(protocols, "_MEMO_SIZE", 3)
    sizes = []  # the current context's RF memo size at each RF kernel call
    kernel = protocols._rf_branch

    def recording(*args):
        sizes.append(len(protocols._last_bands[1].rf_terms))
        return kernel(*args)

    monkeypatch.setattr(protocols, "_rf_branch", recording)
    s = dataclasses.replace(lux_gated_scenario)
    assert_sweeps_equal_cold_evaluate(s, 5)
    assert max(sizes) == 3
    sizes.clear()
    sweep(s, ProtocolId.D, 5)
    last, bands = protocols._last_bands
    assert last is s and len(bands.rf_terms) <= 3
    assert len(sizes) == 5 ** 3 and max(sizes) == 3  # every RF term was cleared before its reuse


def test_sweep_computes_each_band_term_once_and_holds_one_lightwave_term(monkeypatch, scenario):
    s = dataclasses.replace(scenario)  # a scenario no context was built for
    bands = protocols._Bands(s)
    monkeypatch.setattr(protocols, "_last_bands", (s, bands))
    calls = counted(monkeypatch, bands, "lightwave", "rf")
    sweep(s, ProtocolId.D, 21)
    assert protocols._last_bands[1] is bands
    assert calls == {"lightwave": 21 ** 2, "rf": 21}
    assert len(bands.rf_terms) == 21
    # one lightwave term, the last tuple's: (row, four lightwave controls, term)
    row, *controls, term = bands.last
    assert row is protocols._TABLE[ProtocolId.D] and controls == [1.0, 1.0, 0.5, 1.0]
    assert term == bands.lightwave(row, (*controls, 1.0))


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


# one tuple, a pair, a block edge inside a row of the grid (3 and 7), and one block for every grid
_STREAM_BLOCKS = [1, 2, 3, 7, 1 << 62]


def _streamed(s, protocol, grid):
    """A sweep with write: each written store's seven columns, copied, and the region."""
    stores = []

    def write(store):
        _assert_store_invariants(store)
        assert not stores or store.levels is stores[0][0]  # built once a sweep, shared
        stores.append((store.levels, [column.copy() for column in store.columns]))

    region = sweep(s, protocol, grid, write)
    return [np.concatenate(columns) for columns in zip(*(c for _, c in stores))], region


def _assert_stream_equals_sweep(s, protocol, grid):
    """At every _STREAM_BLOCKS size, the written blocks laid end to end are the swept
    points, column for column and bit for bit, and the frontiers are equal; or both
    raise the same error."""
    try:
        swept = sweep(s, protocol, grid)
    except (ScenarioValidationError, DegenerateRegionError) as exc:
        swept = exc
    for block in _STREAM_BLOCKS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(region_module, "_STREAM_BLOCK", block)
            if isinstance(swept, Exception):
                with pytest.raises(type(swept), match=f"^{re.escape(str(swept))}$"):
                    _streamed(s, protocol, grid)
                continue
            columns, streamed = _streamed(s, protocol, grid)
        assert [c.view(np.int64).tolist() for c in columns] == [
            c.view(np.int64).tolist() for c in swept.points.columns], (protocol, grid, block)
        assert streamed.frontier == swept.frontier
        assert [c.view(np.int64).tolist() for c in streamed.frontier.columns] == [
            c.view(np.int64).tolist() for c in swept.frontier.columns]
        assert len(streamed.points) <= len(swept.points)


@pytest.mark.parametrize("grid", range(2, 10))
@pytest.mark.parametrize("protocol", list(ProtocolId))
def test_streamed_blocks_are_the_swept_points(scenario, lux_gated_scenario, protocol, grid):
    for s in (scenario, lux_gated_scenario) if protocol is ProtocolId.C else (scenario,):
        _assert_stream_equals_sweep(s, protocol, grid)


@settings(max_examples=40, deadline=None)
@given(_sweep_scenarios(), st.integers(2, 5))
def test_streamed_sweep_equals_sweep_on_random_scenarios(s, grid):
    for protocol in ProtocolId:
        _assert_stream_equals_sweep(s, protocol, grid)


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
@example(lux_gated(parse_scenario("")), (_ALL_SWEPT, 3), ProtocolId.C)
def test_both_engines_equal_evaluate_on_any_row(s, row_and_grid, protocol):
    # a row nobody has written yet, installed in place of one protocol's
    row, grid = row_and_grid
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(protocols._TABLE, protocol, row)
        assert_sweeps_equal_cold_evaluate(s, grid, (protocol,))
        _assert_merge_equals_sweep(s, protocol, grid)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(_sweep_scenarios(), _rows(), st.sampled_from(ProtocolId), st.randoms(use_true_random=False))
# kernels that raise (a NIRL rate past the float range), a harvest that is inf,
# and NIRL and VL rates that are finite but whose sum is not
@example(parse_scenario("nirl_bulb_power = 1e200\n"), (_ALL_SWEPT, 3), ProtocolId.D, random.Random(0))
@example(parse_scenario("thermal_voltage = 1e308\n"), (_ALL_SWEPT, 3), ProtocolId.D, random.Random(0))
@example(parse_scenario("optical_bandwidth = 8e306\n"), (_ALL_SWEPT, 3), ProtocolId.D, random.Random(0))
@example(lux_gated(parse_scenario("")), (_ALL_SWEPT, 3), ProtocolId.C, random.Random(0))
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
            want = direct_outcome(s, case_row, values)
            try:
                point = evaluate(s, case, values)
            except InfeasibleControlsError:
                assert want is None, (case, values)
                continue
            except ScenarioValidationError as exc:
                assert str(exc) == want, (case, values)
                continue
            assert bits(point) == want, (case, values)


@pytest.mark.parametrize("protocol,grid,levels", [
    (ProtocolId.VL_ONLY, 41, 41), (ProtocolId.NIRL_ONLY, 41, 41),
    # 21 NIRL bias levels and d's one pinned VL level
    (ProtocolId.D, 21, 22)])
def test_sweep_runs_the_lightwave_kernels_once_per_bias_level(monkeypatch, scenario, protocol,
                                                             grid, levels):
    calls = counted(monkeypatch, protocols, "lightwave_rate", "optical_harvest")
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
    # the generator's blocks, laid end to end, at blocks of one tuple, two, seven and
    # one block for the grid: every block shares one rf array
    for protocol in (p for p in ProtocolId if protocols._TABLE[p].rf is not None):
        row, tuples = protocols._TABLE[protocol], list(enumerate_controls(protocol, grid))
        rhos = list(dict.fromkeys(c.rho_rf for c in tuples))  # rho_rf is the fastest axis
        lightwave = tuples[::len(rhos)]
        feasible = [not (row.lux_gated and lux_rejects(s, c.alpha_vl, c.tau_vl)) for c in lightwave]
        errors = [o for o in (direct_outcome(s, row, c) for c in tuples) if isinstance(o, str)]
        for block in (1, 2, 7, 1 << 62):
            blocks = protocols._band_blocks(s, protocol, grid, block)
            if errors:  # the first grid tuple whose term or sum is inf or NaN raises
                with pytest.raises(ScenarioValidationError) as info:
                    list(blocks)
                assert str(info.value) == errors[0]
                continue
            blocks = list(blocks)
            if not any(feasible):
                assert blocks == []
                continue
            assert all(rf is blocks[0][1] for _, rf in blocks)
            kept = [direct_terms(s, row, c)[0] for c, ok in zip(lightwave, feasible) if ok]
            first = lightwave[feasible.index(True)]  # its lightwave kernels do not fail
            want_rf = [direct_terms(s, row, first._replace(rho_rf=rho))[1] for rho in rhos]
            for got, want in ((np.concatenate([terms for terms, _ in blocks]), kept),
                              (blocks[0][1], want_rf)):
                assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


@pytest.mark.parametrize("protocol", [ProtocolId.C, ProtocolId.D])
def test_band_terms_call_the_lightwave_kernels_once_per_alpha(monkeypatch, scenario, protocol):
    # one block for the grid, then blocks of four alpha rows of 41 taus: 11 blocks,
    # whichever band's alpha splits
    for block, blocks in ((1 << 62, 1), (4 * 41, 11)):
        with pytest.MonkeyPatch.context() as patch:
            calls = counted(patch, protocols, "lightwave_rate", "optical_harvest", "illuminance_at")
            terms = protocols._band_blocks(scenario, protocol, 41, block)
            assert sum(len(rows) for rows, _ in terms) == 41 ** 2
        # one level of the pinned band's alpha, 41 of the swept one's, whatever the
        # blocks; each level harvests twice (ID slot and all-DC remainder)
        assert calls == {"lightwave_rate": 42, "optical_harvest": 84,
                         # full drive, and each of c's blocks' levels as one array
                         "illuminance_at": 1 + blocks if protocol is ProtocolId.C else 1}


def test_band_terms_and_evaluate_keep_their_own_contexts(scenario, lux_gated_scenario):
    other = dataclasses.replace(scenario, nirl_bulb_power=40.0, rf_distance=6.0)
    grid = 5

    def merged():
        count, region = region_module._band_merge(lux_gated_scenario, ProtocolId.C, grid)
        return count, [column.view(np.int64).tolist() for column in region.frontier.columns[:2]]

    def swept_against_cold():
        swept = sweep(other, ProtocolId.D, grid).points.rows()
        cold = dataclasses.replace(other)  # a scenario no context was built for
        assert [tuple(v.hex() for v in row[:2]) for row in swept] == [
            bits(evaluate(cold, ProtocolId.D, c)) for c in enumerate_controls(ProtocolId.D, grid)]
        return cold

    first = merged()
    whole = [terms.tolist() for terms, _ in protocols._band_blocks(lux_gated_scenario,
                                                                   ProtocolId.C, grid, 5)]
    # a suspended generator keeps its context while evaluate builds and uses another
    blocks = protocols._band_blocks(lux_gated_scenario, ProtocolId.C, grid, 5)
    interleaved = [next(blocks)[0].tolist()]
    cold = swept_against_cold()
    interleaved += [terms.tolist() for terms, _ in blocks]
    assert interleaved == whole and len(whole) > 1
    assert protocols._last_bands[0] is cold  # the generator left evaluate's context alone
    cold = swept_against_cold()
    assert merged() == first
    assert protocols._last_bands[0] is cold  # and so did the merge


def test_band_merge_rejects_a_glaring_grid_before_any_rf_term(monkeypatch,
                                                             lux_gated_scenario):
    def no_rf(*args):
        raise AssertionError("an RF term was computed")

    monkeypatch.setattr(protocols, "_rf_branch", no_rf)
    glaring = dataclasses.replace(lux_gated_scenario, luminous_efficacy=5000.0)
    with pytest.raises(DegenerateRegionError,
                       match="^every control tuple of protocol c is infeasible$"):
        region_module._band_merge(glaring, ProtocolId.C, 21)


def test_band_merge_memory_follows_the_frontiers_not_the_grid(scenario, monkeypatch):
    # Blocks of 1,024 tuples: c's and d's lightwave grids at grid 80 are four times grid
    # 40's, and each traced peak (a block's terms, the band frontiers and the kept sums)
    # stays within 64 KiB of grid 40's: read c 98 -> 108 KiB, d 96 -> 115 KiB.  Holding
    # every lightwave term, as one band-term plane did, read c 129 -> 406, d 107 -> 263.
    monkeypatch.setattr(region_module, "_FRONTIER_BLOCK", 1024)
    region_module._band_merge(scenario, ProtocolId.D, 2)  # build the ensemble outside the trace
    for protocol in (ProtocolId.C, ProtocolId.D):
        peaks = {}
        for grid in (40, 80):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                region_module._band_merge(scenario, protocol, grid)
                peaks[grid] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peaks[80] < peaks[40] + (64 << 10), (protocol, peaks)
