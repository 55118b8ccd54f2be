import io
import itertools
import math
import os
import resource
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiptsim import (ProtocolControls, ProtocolId, ScenarioParseError, ScenarioValidationError, cli,
                     default_scenario, evaluate, protocols, sweep)
from wiptsim import region as region_module
from wiptsim.cli import CSV_HEADER, main
from wiptsim.protocols import _TABLE
from wiptsim.scenario import _flat, _format_value, parse_scenario
from cli_contract import FAST, LUX_GATED, SLOW, check
from helpers import lux_gated
from test_region import _rows as _table_rows


@pytest.fixture
def default_file(tmp_path):
    path = tmp_path / "default.toml"
    path.write_text("")  # all defaults
    return str(path)


def _rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def test_region_rf_row_count(default_file, tmp_path, capsys):
    out = tmp_path / "rf.csv"
    assert main(["region", default_file, "rf", "--grid", "11", "--out", str(out)]) == 0
    rows = _rows(out)
    assert len(rows) == 11
    assert all(row[0] == "rf" for row in rows)
    assert "11 points" in capsys.readouterr().out


def _check(row, monkeypatch):
    # each row runs in its own directory, so the path to src must be absolute
    monkeypatch.setenv("PYTHONPATH", str(Path(cli.__file__).resolve().parents[1]))
    check(row, [sys.executable, "-m", "wiptsim.cli"])


@pytest.mark.parametrize("name", FAST)
def test_contract_row(name, monkeypatch):
    _check(FAST[name], monkeypatch)


def test_contract_rows_cover_every_documented_exit_code():
    assert {row.code for row in [*FAST.values(), *SLOW.values()]} == set(range(6))


def test_region_protocol_a_with_frontier(default_file, tmp_path):
    out = tmp_path / "a.csv"
    assert main(["region", default_file, "a", "--grid", "21", "--out", str(out)]) == 0
    assert len(_rows(out)) == 441
    frontier_rows = _rows(tmp_path / "a.frontier.csv")
    rates = [float(row[6]) for row in frontier_rows]
    energies = [float(row[7]) for row in frontier_rows]
    assert rates == sorted(rates)
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_compare_golden_stdout_at_the_default_grid(monkeypatch):
    # an explicit --grid 101 prints the default grid's table, byte for byte
    row = FAST["compare-default"]
    _check(row._replace(argv=[*row.argv, "--grid", "101"]), monkeypatch)


def test_contract_check_names_a_changed_digest(monkeypatch):
    row = FAST["region-d-grid-21"]
    frontier = row.digests["o.frontier.csv"]
    changed = frontier[:-1] + ("1" if frontier.endswith("0") else "0")
    with pytest.raises(AssertionError) as raised:
        _check(row._replace(digests={**row.digests, "o.frontier.csv": changed}), monkeypatch)
    assert str(raised.value) == f"sha256 of o.frontier.csv differs from the row: '{frontier}'"


def test_lux_gated_rows_run_the_in_process_fixture(scenario):
    assert parse_scenario(LUX_GATED.decode()) == lux_gated(scenario)


def test_region_invalid_scenario(tmp_path, capsys):
    path = tmp_path / "bad.toml"
    path.write_text("rf_distance = -1\n")
    assert main(["region", str(path), "rf"]) == 1
    assert "rf_distance" in capsys.readouterr().err


def test_region_files_honour_umask(default_file, tmp_path):
    out = tmp_path / "rf.csv"
    previous = os.umask(0o022)
    try:
        assert main(["region", default_file, "rf", "--grid", "3", "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    for path in (out, tmp_path / "rf.frontier.csv"):
        assert path.stat().st_mode & 0o777 == 0o644
    assert sorted(p.name for p in tmp_path.iterdir()) == ["default.toml", "rf.csv",
                                                          "rf.frontier.csv"]


@pytest.mark.parametrize("grid", [3, 5, 9])  # the lux-gated c rejects every tuple at grid 2
@pytest.mark.parametrize("protocol", list(ProtocolId))
def test_streamed_files_are_the_in_memory_regions_csv(scenario, lux_gated_scenario, tmp_path,
                                                      monkeypatch, capsys, protocol, grid):
    # sweep blocks of one tuple, of two, of seven (edges inside a grid row) and one
    # block for the grid, with CSV blocks of three rows inside them
    monkeypatch.setattr(cli, "_CSV_BLOCK", 3)
    for s in (scenario, lux_gated_scenario) if protocol is ProtocolId.C else (scenario,):
        region = sweep(s, protocol, grid)
        want = [b"".join(map(bytes, cli._csv_rows(store)))
                for store in (region.points, region.frontier)]
        for block in (1, 2, 7, 1 << 62):
            monkeypatch.setattr(region_module, "_FRONTIER_BLOCK", block)
            out = tmp_path / f"{block}.csv"
            assert cli.cmd_region(s, protocol, grid, str(out)) == 0
            assert [out.read_bytes(), (tmp_path / f"{block}.frontier.csv").read_bytes()] == want
            assert capsys.readouterr().out == (
                f"{len(region.points)} points -> {out}\n"
                f"{len(region.frontier)} frontier points -> {tmp_path / f'{block}.frontier.csv'}\n")


def test_region_memory_follows_the_frontier_not_the_grid(scenario, tmp_path, monkeypatch):
    # Blocks of 4,096 tuples: d at grid 41 sweeps 7.4 times grid 21's 9,261 tuples,
    # and its traced peak (a block's columns, a CSV block, the frontier, about 1.0 MB
    # at both grids) stays within 128 KiB of grid 21's.  Holding every point, as an
    # in-memory sweep does, adds about 17 bytes a tuple: 1.2 MB more at grid 41.
    monkeypatch.setattr(region_module, "_FRONTIER_BLOCK", 4096)
    sweep(scenario, ProtocolId.D, 2)  # build the ensemble outside the trace
    peaks = {}
    for grid in (21, 41):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert cli.cmd_region(scenario, ProtocolId.D, grid, str(tmp_path / "d.csv")) == 0
            peaks[grid] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peaks[41] < peaks[21] + (128 << 10), peaks


def test_region_runs_are_byte_identical(default_file, tmp_path):
    out_a = tmp_path / "one.csv"
    out_b = tmp_path / "two.csv"
    assert main(["region", default_file, "b", "--grid", "11", "--out", str(out_a)]) == 0
    assert main(["region", default_file, "b", "--grid", "11", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # AC-10 across processes: ProtocolId hashes by identity and str hashes
    # vary with PYTHONHASHSEED; neither may reach an output byte.
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "default.toml"
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        work = tmp_path / f"seed{seed}"
        work.mkdir()
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        runs = [subprocess.run([sys.executable, "-m", "wiptsim.cli", *argv], cwd=work,
                               env=env, capture_output=True, timeout=300, check=True).stdout
                for argv in (["compare", str(scenario), "--grid", "11"],
                             ["region", str(scenario), "d", "--grid", "5", "--out", "d.csv"])]
        outputs.append((runs, (work / "d.csv").read_bytes(),
                        (work / "d.frontier.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].count(b"\n") == 1 + 5 ** 3


def test_compare_table(default_file, capsys):
    assert main(["compare", default_file, "--grid", "11"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 8  # header plus seven regions
    for name in ("rf", "vl", "nirl", "a", "b", "c", "d"):
        assert any(line.startswith(name) for line in lines[1:])


@pytest.fixture
def overflowing_file(tmp_path):
    # valid by the scenario checks, but the optical harvest overflows to inf
    path = tmp_path / "overflow.toml"
    path.write_text("thermal_voltage = 1e308\n")
    return str(path)


@pytest.mark.parametrize("argv", [["region", "nirl", "--grid", "5"], ["compare", "--grid", "5"]])
def test_non_finite_region_exits_1(overflowing_file, tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    command, *rest = argv
    assert main([command, overflowing_file, *rest]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "band" in captured.err and "non-finite" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["overflow.toml"]


@pytest.mark.parametrize("argv", [["region", "d", "--grid", "3"], ["compare", "--grid", "3"]])
def test_band_sum_overflow_exits_1(tmp_path, monkeypatch, capsys, argv):
    # every band term is finite, but their sum overflows to inf
    path = tmp_path / "overflow.toml"
    path.write_text("optical_bandwidth = 5e306\nrf_bandwidth = 5e306\n")
    monkeypatch.chdir(tmp_path)
    command, *rest = argv
    assert main([command, str(path), *rest]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "band" in captured.err and "non-finite" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["overflow.toml"]


def test_a_file_saved_with_a_byte_order_mark_reads_as_without():
    text = (Path(__file__).resolve().parents[1] / "scenarios" / "default.toml").read_text()
    assert parse_scenario("\ufeff" + text) == parse_scenario(text)
    with pytest.raises(ScenarioParseError, match="unknown key '\ufeffrf_distance'"):
        parse_scenario("\ufeff\ufeffrf_distance = 5.0\n")  # one mark is dropped, not two


def _refuses_scenario(tmp_path, monkeypatch, capsys, text, argv):
    """Run argv on a scenario file holding text and return its stderr.

    The run must exit 1 with one error line, print nothing to stdout and
    leave no file behind.
    """
    path = tmp_path / "hostile.toml"
    path.write_text(text)
    monkeypatch.chdir(tmp_path)
    command, *rest = argv
    assert main([command, str(path), *rest]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: invalid scenario '{path}': ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hostile.toml"]
    return captured.err


@pytest.mark.parametrize("angle", ["0.9999999999999999", "0.5", "1e-30", "5e-324",
                                   "89.00000000000001"])
@pytest.mark.parametrize("key", ["vl_semi_angle", "nirl_semi_angle"])
def test_semi_angle_outside_domain_exits_1(tmp_path, monkeypatch, capsys, key, angle):
    err = _refuses_scenario(tmp_path, monkeypatch, capsys, f"{key} = {angle}\n",
                            ["compare", "--grid", "3"])
    assert f"{key} must lie in [1, 89] degrees, got {angle}" in err


_COMPARE = ["compare", "--grid", "3"]


_BAND_KERNEL_OVERFLOWS = [
    ("nirl_bulb_power = 1e200\n", _COMPARE, "the NIRL band yields OverflowError"),
    ("optical_filter_gain = 1e300\n", _COMPARE, "the VL band yields OverflowError"),
    ("pd_area = 1e300\n", _COMPARE, "the VL band yields OverflowError"),
    ("vl_bulb_power = 1e200\nluminous_efficacy = 1e-200\n", _COMPARE,
     "the VL band yields OverflowError"),
    # refused before any band runs: the full-drive illuminance is inf
    ("vl_bulb_power = 1e308\n", ["region", "d", "--grid", "3"],
     "vl_bulb_power, luminous_efficacy and optical_distance make the full-drive illuminance"),
]


@pytest.mark.parametrize("text,argv,named", _BAND_KERNEL_OVERFLOWS, ids=[
    "nirl_bulb_power", "optical_filter_gain", "pd_area", "vl_bulb_power-efficacy",
    "vl_bulb_power-region-d"])
def test_band_kernel_overflow_exits_1(tmp_path, monkeypatch, capsys, text, argv, named):
    # the squared AC photocurrent of a band overflows; it used to escape as a traceback
    err = _refuses_scenario(tmp_path, monkeypatch, capsys, text, argv)
    assert named in err


def _first_sweep_error(text, grid):
    """The message of the first sweep that raises, in compare's protocol order."""
    scenario = parse_scenario(text)
    for protocol in ProtocolId:
        try:
            sweep(scenario, protocol, grid)
        except ScenarioValidationError as exc:
            return str(exc)
    raise AssertionError("no sweep raised")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", [
    "optical_bandwidth = 5e306\nrf_bandwidth = 5e306\n",  # the band sum overflows
    *(text for text, argv, _ in _BAND_KERNEL_OVERFLOWS if argv == _COMPARE),
], ids=lambda text: text.split(" =")[0])
def test_compare_errors_are_the_sweeps_own(tmp_path, monkeypatch, capsys, text):
    err = _refuses_scenario(tmp_path, monkeypatch, capsys, text, _COMPARE)
    assert err == f"error: invalid scenario '{tmp_path / 'hostile.toml'}': " \
                  f"{_first_sweep_error(text, 3)}\n"


@pytest.mark.parametrize("argv", [["compare", "--grid", "3"], ["region", "d", "--grid", "3"],
                                  ["safety"]], ids=["compare", "region", "safety"])
@pytest.mark.parametrize("distance,error", [("1e-308", "ZeroDivisionError"),
                                            ("1e200", "OverflowError")])
def test_optical_distance_squared_out_of_range_exits_1(tmp_path, monkeypatch, capsys, argv,
                                                       distance, error):
    # distance**2 underflows to 0 or overflows in the flux density
    err = _refuses_scenario(tmp_path, monkeypatch, capsys, f"optical_distance = {distance}\n",
                            argv)
    assert f"optical_distance, pd_area and optical_filter_gain make the VL link gain out of " \
           f"range: {error}" in err


def test_infinite_nirl_irradiance_exits_1(tmp_path, monkeypatch, capsys):
    # safety used to report an irradiance margin of -inf W/m^2 and exit 4
    err = _refuses_scenario(tmp_path, monkeypatch, capsys,
                            "nirl_bulb_power = 1e308\noptical_distance = 0.1\n", ["safety"])
    assert "nirl_bulb_power, n_devices and optical_distance make the NIRL irradiance out of " \
           "range: inf" in err


@pytest.mark.parametrize("out", ["", ".", "..", "sub/.."])
def test_region_out_without_file_name_exits_2(default_file, tmp_path, monkeypatch, capsys,
                                              out):
    def no_sweep(*args):
        raise AssertionError("swept before refusing --out")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    monkeypatch.chdir(tmp_path)
    assert main(["region", default_file, "rf", "--grid", "3", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out must name a file, got '{out}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["default.toml"]


def test_region_pair_kept_when_frontier_write_fails(default_file, tmp_path, monkeypatch,
                                                    capsys):
    out = tmp_path / "b.csv"
    frontier = tmp_path / "b.frontier.csv"
    assert main(["region", default_file, "b", "--grid", "3", "--out", str(out)]) == 0
    before = out.read_bytes(), frontier.read_bytes()
    real_lines = cli._csv_lines
    calls = []

    def failing_lines(store, levels):
        calls.append(store)
        lines = real_lines(store, levels)
        if len(calls) == 2:  # the frontier file, once the points file's one block is in
            yield next(lines)
            raise OSError("disk full")
        yield from lines

    monkeypatch.setattr(cli, "_csv_lines", failing_lines)
    assert main(["region", default_file, "b", "--grid", "5", "--out", str(out)]) == 5
    assert "disk full" in capsys.readouterr().err
    assert [len(store) for store in calls] == [25, 25]
    assert (out.read_bytes(), frontier.read_bytes()) == before
    assert not list(tmp_path.glob("*.tmp"))


def test_region_pair_kept_when_a_target_is_a_directory(default_file, tmp_path, monkeypatch,
                                                       capsys):
    # a rename over the directory would fail only after the points file's had succeeded
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.csv").write_text("old text\n")
    (tmp_path / "x.frontier.csv").mkdir()
    assert main(["region", default_file, "rf", "--grid", "3", "--out", "x.csv"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot write 'x.csv' and 'x.frontier.csv': "
                            "[Errno 21] Is a directory: 'x.frontier.csv'\n")
    assert (tmp_path / "x.csv").read_text() == "old text\n"
    assert not list((tmp_path / "x.frontier.csv").iterdir())
    assert not list(tmp_path.glob("*.tmp"))


def test_region_refuses_a_fifo_target(default_file, tmp_path, monkeypatch, capsys):
    # a rename would replace the FIFO, as it would a device such as /dev/null
    monkeypatch.chdir(tmp_path)
    os.mkfifo("x.csv")
    (tmp_path / "x.frontier.csv").write_text("old text\n")
    assert main(["region", default_file, "rf", "--grid", "3", "--out", "x.csv"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot write 'x.csv' and 'x.frontier.csv': "
                            "[Errno 22] Not a regular file: 'x.csv'\n")
    assert stat.S_ISFIFO((tmp_path / "x.csv").lstat().st_mode)
    assert (tmp_path / "x.frontier.csv").read_text() == "old text\n"
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("target", ["x.csv", "x.frontier.csv"])
@pytest.mark.parametrize("kind", ["directory", "fifo"])
def test_region_refuses_a_target_before_the_sweep(default_file, tmp_path, monkeypatch, capsys,
                                                  target, kind):
    def no_sweep(*args):
        raise AssertionError("swept before the targets were checked")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    monkeypatch.chdir(tmp_path)
    (os.mkdir if kind == "directory" else os.mkfifo)(target)
    assert main(["region", default_file, "d", "--grid", "101", "--out", "x.csv"]) == 5
    captured = capsys.readouterr()
    error = ("[Errno 21] Is a directory" if kind == "directory"
             else "[Errno 22] Not a regular file")
    assert captured.out == ""
    assert captured.err == ("error: cannot write 'x.csv' and 'x.frontier.csv': "
                            f"{error}: '{target}'\n")


def test_region_replaces_a_link_not_the_fifo_it_names(default_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.mkfifo("fifo")
    os.symlink("fifo", "x.csv")
    assert main(["region", default_file, "rf", "--grid", "3", "--out", "x.csv"]) == 0
    assert stat.S_ISREG((tmp_path / "x.csv").lstat().st_mode)
    assert stat.S_ISFIFO((tmp_path / "fifo").lstat().st_mode)


def test_failed_write_removes_the_directories_it_made(default_file, tmp_path, monkeypatch,
                                                     capsys):
    def failing_lines(store, levels):  # the points file's first block
        raise OSError("disk full")
        yield

    monkeypatch.setattr(cli, "_csv_lines", failing_lines)
    out = tmp_path / "new" / "deeper" / "rf.csv"
    assert main(["region", default_file, "rf", "--grid", "3", "--out", str(out)]) == 5
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write") and "disk full" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["default.toml"]


@pytest.mark.parametrize("raising", [None, 7])
def test_a_sweep_that_raises_after_a_written_block_leaves_nothing(tmp_path, monkeypatch, capsys,
                                                                  raising):
    # blocks of 7 tuples: a glaring c rejects all 27, and only then is its region
    # degenerate (exit 3); an evaluate raising at the second block's first tuple,
    # after the first block's rows went out, exits 1
    monkeypatch.setattr(region_module, "_FRONTIER_BLOCK", 7)
    text = "" if raising else "luminous_efficacy = 5000.0\n"
    (tmp_path / "s.toml").write_text(text)
    written, real = [], cli._csv_lines

    def recording_lines(store, levels):
        written.append(len(store))
        return real(store, levels)

    def raising_evaluate(scenario, protocol, controls, _count=itertools.count()):
        if next(_count) == raising:
            raise ScenarioValidationError("the summed band terms are non-finite")
        return evaluate(scenario, protocol, controls)

    monkeypatch.setattr(cli, "_csv_lines", recording_lines)
    monkeypatch.setattr(region_module, "evaluate", raising_evaluate)
    out = tmp_path / "new" / "deeper" / "c.csv"
    code = main(["region", str(tmp_path / "s.toml"), "c", "--grid", "3", "--out", str(out)])
    assert code == (1 if raising else 3)
    assert written == ([7] if raising else [0, 0, 0, 0])
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.toml"]


def test_an_out_whose_directory_cannot_be_made_exits_5_before_any_tuple(default_file, tmp_path,
                                                                       monkeypatch, capsys):
    def no_evaluate(*args):
        raise AssertionError("evaluated a tuple before the files were open")

    monkeypatch.setattr(region_module, "evaluate", no_evaluate)
    (tmp_path / "plain").write_text("a file, not a directory\n")
    out = tmp_path / "plain" / "sub" / "d.csv"
    assert main(["region", default_file, "d", "--grid", "101", "--out", str(out)]) == 5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: cannot write '{out}'")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["default.toml", "plain"]


def test_oversized_ensemble_refused_before_any_draw(tmp_path, capsys):
    path = tmp_path / "huge.toml"
    path.write_text("mc_samples = 1000000000\n")
    start = time.perf_counter()
    assert main(["region", str(path), "rf", "--grid", "3",
                 "--out", str(tmp_path / "rf.csv")]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "mc_samples * n_rf_antennas" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.toml"]


def _limit_memory():
    # a regression that starts the sweep dies of MemoryError, not the host
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("command,grid,tuples", [
    # grid 1001 on three free axes would be 10**9 control tuples
    (["region", "d", "--out", "d.csv"], 1001, "protocol d at grid 1001 has 1,003,003,001"),
    # vl, swept whole, is the first protocol whose tuples exceed the budget
    (["compare"], 1449, "protocol vl at grid 1449 has 2,099,601"),
], ids=["region", "compare"])
def test_oversized_grid_refused_before_any_sweep(default_file, tmp_path, command, grid, tuples):
    argv = [command[0], default_file, *command[1:], "--grid", str(grid)]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "wiptsim.cli", *argv], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_limit_memory)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {tuples} control tuples")
    assert proc.stderr.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["default.toml"]


def test_an_endless_scenario_file_is_refused_after_a_bounded_read(tmp_path):
    # /dev/zero never ends: a read of the whole file dies under the cap, a bounded one
    # stops one byte past _MAX_SCENARIO_BYTES
    src = str(Path(cli.__file__).resolve().parents[1])
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "wiptsim.cli", "safety", "/dev/zero"],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", (
        "error: cannot read scenario file '/dev/zero': the file is larger than 1,048,576 bytes\n"))
    assert time.perf_counter() - start < 10.0


def test_compare_budgets_the_terms_it_builds_not_a_full_sweep(default_file, capsys):
    # c and d would sweep 129**3 tuples, above the budget; compare builds
    # only their 129**2 lightwave terms and 129 RF terms
    grid = 129
    assert main(["compare", default_file, "--grid", str(grid)]) == 0
    rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert int(rows["c"].split()[1]) == int(rows["d"].split()[1]) == grid ** 3 == 2_146_689
    scenario = parse_scenario("")
    swept = {p: sweep(scenario, p, grid) for p in (*cli._BASELINES, ProtocolId.A, ProtocolId.B)}
    for protocol in (ProtocolId.A, ProtocolId.B):
        region = swept[protocol]
        assert rows[protocol.value] == cli._compare_row(protocol, len(region.points), region,
                                                        swept)


def test_compare_above_grid_128_reports_the_first_failing_sum(tmp_path, monkeypatch, capsys):
    # only d adds a NIRL and a VL rate; each is finite, their sum is not.
    # d's 129**3 tuples are over the sweep budget, so the error must come
    # from the band terms, as evaluate reports it at the first failing tuple
    text = "optical_bandwidth = 8e306\n"
    scenario = parse_scenario(text)
    grid = itertools.product(*protocols._axes(ProtocolId.D, 129))  # sweep's order, no budget
    with pytest.raises(ScenarioValidationError) as first:
        for controls in grid:
            evaluate(scenario, ProtocolId.D, ProtocolControls(*controls))
    err = _refuses_scenario(tmp_path, monkeypatch, capsys, text, ["compare", "--grid", "129"])
    assert err.endswith(f": {first.value}\n")
    assert "the summed band terms are non-finite: (rate, harvested power) = (inf, " in err


def test_compare_points_column_fits_the_widest_count(default_file, capsys):
    # from grid 465 on, c's and d's 465**3 points take nine digits
    assert main(["compare", default_file, "--grid", "465"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert {len(line) for line in lines} == {len(lines[0])}
    assert [line.split()[1] for line in lines[::7]] == ["points", str(465 ** 3)]


def _built(row, grid):
    """The tuples compare builds for a row at one go: every free axis of a row
    it sweeps (one without RF), else its lightwave tuples or its rho_rf levels."""
    if row.rf is None:
        return grid ** len(row.free)
    lightwave = [name for name in row.free if name != "rho_rf"]
    return max(grid ** len(lightwave), grid if "rho_rf" in row.free else 1)


def _no_work(patch):
    """Make every RF ensemble and lightwave rate call fail: nothing may be built."""
    def fail(*args):
        raise AssertionError("a band term was built")

    for kernel in ("mean_rf_received_power", "lightwave_rate"):
        patch.setattr(protocols, kernel, fail)


def _compare(path, grid):
    """compare's exit code, stdout and stderr; an escaping exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["compare", str(path), "--grid", str(grid)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(_table_rows(), st.sampled_from(ProtocolId), st.integers(2, 12), st.integers(4, 12 ** 3))
def test_compare_on_any_row_exits_0_or_refuses_before_any_work(row_and_grid, replaced, grid,
                                                             budget):
    row, _ = row_and_grid
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        path = Path(tmp, "default.toml")
        path.write_text("")
        patch.setitem(_TABLE, replaced, row)
        counts = {p: protocols.tuples_built(p, grid, merged=True) for p in ProtocolId}
        assert counts == {p: _built(_TABLE[p], grid) for p in ProtocolId}
        over = [p for p in ProtocolId if counts[p] > budget]
        patch.setattr(protocols, "_MAX_SWEEP_TUPLES", budget)
        if over:
            _no_work(patch)
        code, out, err = _compare(path, grid)
    if not over:
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 8
        return
    first = over[0]
    assert (code, out) == (2, "")
    assert err == (f"error: protocol {first.value} at grid {grid} has {counts[first]:,} "
                   f"control tuples; a sweep may evaluate at most {budget:,}\n")


_SWEPT = protocols._SWEPT


@pytest.mark.parametrize("row,grid,refusal", [
    # rho_rf swept with the RF band off: the row is swept whole
    (protocols._Protocol((_SWEPT, _SWEPT, 0.0, 0.0, _SWEPT), protocols._NIRL, None, None), 200,
     "protocol a at grid 200 has 8,000,000 control tuples"),
    # three lightwave axes beside the RF band: the band merge holds 150**3 terms
    (protocols._Protocol((_SWEPT, _SWEPT, _SWEPT, 1.0, _SWEPT), protocols._NIRL,
                         protocols._VL_FULL, protocols._RF_WPT), 150,
     "protocol a at grid 150 has 3,375,000 control tuples"),
], ids=["swept-rho-without-rf", "three-lightwave-axes"])
def test_compare_refuses_an_oversized_row_before_any_work(default_file, monkeypatch, row, grid,
                                                         refusal):
    monkeypatch.setitem(_TABLE, ProtocolId.A, row)
    _no_work(monkeypatch)
    code, out, err = _compare(default_file, grid)
    assert (code, out) == (2, "")
    assert err == f"error: {refusal}; a sweep may evaluate at most 2,097,152\n"


@pytest.mark.parametrize("text,named", [
    # a negative floor used to turn the default's failing verdict into a pass
    ("illuminance_min = -1.0\n", "safety.illuminance_min must be finite and nonnegative"),
    ("illuminance_min = -inf\nilluminance_max = inf\n",
     "safety.illuminance_min must be finite and nonnegative"),
    ("illuminance_max = inf\n", "safety.illuminance_max must be finite and positive"),
], ids=["min-negative", "both-infinite", "max-infinite"])
def test_illuminance_limits_outside_their_ranges_exit_1(tmp_path, monkeypatch, capsys, text,
                                                         named):
    assert named in _refuses_scenario(tmp_path, monkeypatch, capsys, text, ["safety"])


# Extreme values, valid or not, for every key but the ensemble size, whose
# budget has its own tests.
_EXTREME_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-308, 1e-30, 0.5, 89.5, 90.0,
                   math.nextafter(1.0, 0.0), math.nextafter(89.0, 90.0), 1e30, -1e30, 1e200,
                   1e308, -1e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
_EXTREME = {bool: st.booleans(), int: st.sampled_from([0, -1, 1, 2**63, 10**30, 10**400]),
            float: st.sampled_from(_EXTREME_FLOATS) | st.floats()}
_HOSTILE_KEYS = {f.name: _EXTREME[f.type] for f, _ in _flat(default_scenario())
                 if f.name not in ("mc_samples", "n_rf_antennas")}
_NON_FINITE = {"nan", "-nan", "inf", "-inf", "+inf"}


@st.composite
def _hostile_files(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_HOSTILE_KEYS)), min_size=1, max_size=4,
                         unique=True))
    return "".join(f"{key} = {_format_value(draw(_HOSTILE_KEYS[key]))}\n" for key in keys)


@settings(max_examples=300, deadline=None)
@given(_hostile_files())
def test_hostile_scenario_files_end_in_a_documented_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "hostile.toml"), Path(tmp, "d.csv")
        path.write_text(text)
        for argv in (["safety", str(path)], ["compare", str(path), "--grid", "3"],
                     ["region", str(path), "d", "--grid", "3", "--out", str(out)]):
            stdout = io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = main(argv)  # an escaping exception fails the test
            assert code in range(6), (argv, code)
            if argv[0] != "region":  # whole cells: "illuminance" contains "nan"
                assert not _NON_FINITE & {cell.lower() for cell in stdout.getvalue().split()}
        for csv in (out, Path(tmp, "d.frontier.csv")):
            if csv.exists():
                fields = csv.read_text().replace("\n", ",").split(",")
                assert not _NON_FINITE & {field.lower() for field in fields}, csv.name
