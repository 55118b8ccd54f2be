import os

import pytest

from wiptsim.cli import CSV_HEADER, main


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


def test_region_protocol_a_with_frontier(default_file, tmp_path):
    out = tmp_path / "a.csv"
    assert main(["region", default_file, "a", "--grid", "21", "--out", str(out)]) == 0
    assert len(_rows(out)) == 441
    frontier_rows = _rows(tmp_path / "a.frontier.csv")
    rates = [float(row[6]) for row in frontier_rows]
    energies = [float(row[7]) for row in frontier_rows]
    assert rates == sorted(rates)
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_region_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.toml")
    assert main(["region", missing, "rf"]) == 1
    assert missing in capsys.readouterr().err


def test_region_invalid_scenario(tmp_path, capsys):
    path = tmp_path / "bad.toml"
    path.write_text("rf_distance = -1\n")
    assert main(["region", str(path), "rf"]) == 1
    assert "rf_distance" in capsys.readouterr().err


def test_region_unknown_protocol(default_file, capsys):
    assert main(["region", default_file, "x"]) == 2
    assert "unknown protocol" in capsys.readouterr().err


def test_region_grid_too_small(default_file, capsys):
    assert main(["region", default_file, "rf", "--grid", "1"]) == 2
    assert "--grid" in capsys.readouterr().err


def test_region_degenerate(tmp_path, capsys):
    path = tmp_path / "glaring.toml"
    path.write_text("luminous_efficacy = 5000\n")
    assert main(["region", str(path), "c", "--grid", "2", "--out", str(tmp_path / "c.csv")]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_region_default_out_name(default_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["region", default_file, "vl", "--grid", "3"]) == 0
    assert (tmp_path / "region_vl.csv").exists()
    assert (tmp_path / "region_vl.frontier.csv").exists()


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


def test_region_runs_are_byte_identical(default_file, tmp_path):
    out_a = tmp_path / "one.csv"
    out_b = tmp_path / "two.csv"
    assert main(["region", default_file, "b", "--grid", "11", "--out", str(out_a)]) == 0
    assert main(["region", default_file, "b", "--grid", "11", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_compare_table(default_file, capsys):
    assert main(["compare", default_file, "--grid", "11"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 8  # header plus seven regions
    for name in ("rf", "vl", "nirl", "a", "b", "c", "d"):
        assert any(line.startswith(name) for line in lines[1:])


def test_safety_default_reports_and_fails_on_lighting(default_file, capsys):
    assert main(["safety", default_file]) == 4
    out = capsys.readouterr().out
    assert "4.7602" in out  # SAR margin at the WPT power level
    assert "below" in out


def test_safety_dim_mode_passes(default_file, capsys):
    assert main(["safety", default_file, "--dim"]) == 0
    assert "dim mode" in capsys.readouterr().out


def test_safety_body_exposure(tmp_path, capsys):
    path = tmp_path / "exposed.toml"
    path.write_text("nirl_beam_avoids_body = false\n")
    assert main(["safety", str(path), "--dim"]) == 4
    assert "FAIL" in capsys.readouterr().out
