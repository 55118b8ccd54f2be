"""The wiptsim command-line contract: one table of runs, checked by CI and by tier-1.

A row writes its scenario bytes to s.toml in an empty directory, runs wiptsim there
with its argv, and fixes the exit code, stdout and stderr (regular expressions that
must match in full, so an extra line fails), the files left, and optionally a bound
on the run's peak RSS in MB.  Run every row against the installed wiptsim with
`pip install . && python tests/cli_contract.py`, one line per row.  Tier-1 runs the
FAST rows, which bound no RSS: a child's ru_maxrss starts at its parent's resident
size, so only this script, which imports neither numpy nor wiptsim, reads it.
"""

import os
import re
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path
from tempfile import TemporaryDirectory, TemporaryFile


Row = namedtuple("Row", "scenario argv code stdout stderr files rss_mb",
                 defaults=("", "", ("s.toml",), None))

DEFAULT = (Path(__file__).resolve().parents[1] / "scenarios" / "default.toml").read_bytes()
LUX = b"illuminance_min = 15.0\nilluminance_max = 40.0\n"  # c's lux gate keeps 9 of 27 tuples
GLARE, NEAR, LATIN1 = b"luminous_efficacy = 5000.0\n", b"rf_distance = 0.5\n", b"rf_distance = 5.0\n\377\n"
SAFETY, COMPARE, REGION = ["safety", "s.toml"], ["compare", "s.toml"], ["region", "s.toml"]
OUT, CAP = ["--out", "o.csv"], 1 << 20


def _line(text):
    return re.escape(text + "\n")


def _wrote(points, name="o"):
    """A region run's stdout, stderr and files when it writes name.csv and its frontier."""
    return (rf"{points} points -> {name}\.csv\n\d+ frontier points -> {name}\.frontier\.csv\n", "",
            ("s.toml", f"{name}.csv", f"{name}.frontier.csv"))


def _table(width=8, **counts):
    """compare's stdout: the header, then each protocol's row, as long as the header."""
    header = f"protocol  {'points':>{width}}    max_rate_bps    max_energy_w    dom_rf    dom_vl  dom_nirl"
    rows = (rf"(?={'.' * len(header)}\n){name:<10} *{counts.get(name, '[0-9]+')} .*\n"
            for name in ("rf", "vl", "nirl", "a", "b", "c", "d"))
    return _line(header) + "".join(rows)


def _report(irradiance, steering, illuminance, overall):
    return _line(f"sar:         pass  margin 4.7602 W (budget 4.8 W over 360 s)\n"
                 f"irradiance:  {irradiance}  margin -8.741 W/m^2 (beam steering {steering})\n"
                 f"illuminance: below  {illuminance}\noverall:     {overall}")


REPORT = _report("pass", "on", "50.0 lx (range 200..1000 lx)", "FAIL")
DIM = "5.0 lx (range 200..1000 lx, dim mode)"
INVALID, UNREADABLE = "error: invalid scenario 's.toml': ", "error: cannot read scenario file 's.toml': "
LATIN1_ERROR = _line(UNREADABLE + "'utf-8' codec can't decode byte 0xff in position 18: invalid start byte")
NEAR_ERROR = _line(INVALID + "rf_distance must be at least 1 m, the path-loss reference distance, got 0.5")
GLARE_ERROR = _line("error: every control tuple of protocol c is infeasible")
BUDGET = "control tuples; a sweep may evaluate at most 2,097,152"
FAST = {
    "compare-default": Row(DEFAULT, COMPARE, 0, _table()),
    "region-d-grid-3": Row(DEFAULT, [*REGION, "d", "--grid", "3", *OUT], 0, *_wrote(27)),
    "safety-default": Row(DEFAULT, SAFETY, 4, REPORT),
    "safety-byte-order-mark": Row(b"\xef\xbb\xbf" + DEFAULT, SAFETY, 4, REPORT),
    "safety-at-size-cap": Row(b"#" * CAP, SAFETY, 4, REPORT),
    "safety-above-size-cap": Row(b"#" * (CAP + 1), SAFETY, 1, "",
                                 _line(UNREADABLE + "the file is larger than 1,048,576 bytes")),
    "safety-dim": Row(DEFAULT, [*SAFETY, "--dim"], 0, _report("pass", "on", DIM, "pass")),
    "safety-body-exposure": Row(b"nirl_beam_avoids_body = false\n", [*SAFETY, "--dim"], 4,
                                _report("FAIL", "off", DIM, "FAIL")),
    "lux-region-c-grid-3": Row(LUX, [*REGION, "c", "--grid", "3", *OUT], 0, *_wrote(9)),
    # compare's array lux gate keeps as many of c's tuples as region's per-tuple gate
    "lux-region-c-grid-21": Row(LUX, [*REGION, "c", "--grid", "21", *OUT], 0, *_wrote(3822)),
    "lux-compare-grid-21": Row(LUX, [*COMPARE, "--grid", "21"], 0, _table(c=3822)),
    # both engines read c's one lux gate: in a glaring room each rejects every tuple
    "glare-region-c": Row(GLARE, [*REGION, "c", "--grid", "3", *OUT], 3, "", GLARE_ERROR),
    "glare-compare": Row(GLARE, [*COMPARE, "--grid", "3"], 3, "", GLARE_ERROR),
    # compare counts the tuples it builds at one go: c and d's 129**3 are never swept
    "compare-grid-129": Row(DEFAULT, [*COMPARE, "--grid", "129"], 0, _table(c=2146689, d=2146689)),
    "compare-grid-1449": Row(DEFAULT, [*COMPARE, "--grid", "1449"], 2, "",
                             _line(f"error: protocol vl at grid 1449 has 2,099,601 {BUDGET}")),
    "region-d-grid-129": Row(DEFAULT, [*REGION, "d", "--grid", "129", *OUT], 2, "",
                             _line(f"error: protocol d at grid 129 has 2,146,689 {BUDGET}")),
    "region-grid-1": Row(DEFAULT, [*REGION, "rf", "--grid", "1"], 2, "",
                         _line("error: --grid must be at least 2, got 1")),
    "region-unknown-protocol": Row(DEFAULT, [*REGION, "x"], 2, "", _line(
        "error: unknown protocol 'x' (expected one of: rf, vl, nirl, a, b, c, d)")),
    "region-out-empty": Row(DEFAULT, [*REGION, "rf", "--out", ""], 2, "",
                            _line("error: --out must name a file, got ''")),
    "region-out-under-a-file": Row(DEFAULT, [*REGION, "rf", "--out", "s.toml/x.csv"], 5, "", _line(
        "error: cannot write 's.toml/x.csv' and 's.toml/x.frontier.csv': [Errno 17] File exists: 's.toml'")),
    "region-missing-file": Row(DEFAULT, ["region", "nope.toml", "rf"], 1, "", _line(
        "error: cannot read scenario file 'nope.toml': [Errno 2] No such file or directory: 'nope.toml'")),
    "latin1-safety": Row(LATIN1, SAFETY, 1, "", LATIN1_ERROR),
    "latin1-compare": Row(LATIN1, [*COMPARE, "--grid", "3"], 1, "", LATIN1_ERROR),
    "latin1-region": Row(LATIN1, [*REGION, "rf"], 1, "", LATIN1_ERROR),
    "rf-distance-safety": Row(NEAR, SAFETY, 1, "", NEAR_ERROR),
    "rf-distance-compare": Row(NEAR, [*COMPARE, "--grid", "3"], 1, "", NEAR_ERROR),
    # a negative floor is out of its range, not a passing verdict
    "negative-illuminance-floor": Row(b"illuminance_min = -1.0\n", SAFETY, 1, "", _line(
        INVALID + "safety.illuminance_min must be finite and nonnegative, got -1.0")),
    # only d adds a NIRL and a VL rate: above grid 128 compare still reports evaluate's error
    "band-sum-compare-grid-129": Row(b"optical_bandwidth = 8e306\n", [*COMPARE, "--grid", "129"], 1, "",
                                     re.escape(INVALID + "the summed band terms are non-finite: "
                                               "(rate, harvested power) = (inf, ") + r".*\n"),
}
SLOW = {
    # d's 1,030,301 points keep their controls as one-byte index columns (120 MB as float64)
    "region-d-grid-101": Row(DEFAULT, [*REGION, "d", "--grid", "101", *OUT], 0, *_wrote(1030301), 90),
    # c keeps the grid positions it rejects in a typed array (128 MB as a list of ints)
    "lux-region-c-grid-128": Row(LUX, [*REGION, "c", "--grid", "128", *OUT], 0, *_wrote(892160), 100),
    # each file's rho_rf level texts are formatted a block at a time; the sweep sets the peak
    "region-rf-grid-2097152": Row(DEFAULT, [*REGION, "rf", "--grid", "2097152", *OUT], 0,
                                  *_wrote(2097152), 420),
    # the largest grid compare admits: c's and d's counts take ten digits, and vl's and
    # nirl's sweeps evaluate 2,096,704 tuples each; every value is pinned
    "compare-grid-1448": Row(DEFAULT, [*COMPARE, "--grid", "1448"], 0, re.escape(
        "protocol      points    max_rate_bps    max_energy_w    dom_rf    dom_vl  dom_nirl\n"
        "rf              1448    3.175496e+08    1.752868e-03         -         -         -\n"
        "vl           2096704    1.384550e+09    3.761488e-04         -         -         -\n"
        "nirl         2096704    1.823739e+09    9.594037e-03         -         -         -\n"
        "a            2096704    2.128001e+09    1.058657e-02       yes       yes       yes\n"
        "b            2096704    2.128100e+09    1.058657e-02       yes       yes        no\n"
        "c         3036027392    1.688812e+09    1.058657e-02       yes       yes        no\n"
        "d         3036027392    3.280458e+09    1.024192e-02       yes       yes       yes\n")),
}


# Seconds a row may run: well above the slowest, region rf --grid 2097152 and
# compare --grid 1448 (about 7 s each on a 2-vCPU host).
TIMEOUT_S = 120


def check(row, command):
    """Run row with command, wiptsim's argv: raise AssertionError at the first field that
    differs from the row, or when the run outlasts TIMEOUT_S (the child is killed and
    reaped), else return the run's seconds and the child's peak RSS in MB."""
    with TemporaryDirectory() as work, TemporaryFile() as out, TemporaryFile() as err:
        Path(work, "s.toml").write_bytes(row.scenario)
        start = time.perf_counter()
        proc = subprocess.Popen([*command, *row.argv], cwd=work, stdout=out, stderr=err)
        delay = 0.0005  # poll as Popen.wait does: its own reaping would drop the rusage
        while not (reaped := os.wait4(proc.pid, os.WNOHANG))[0]:
            if time.perf_counter() - start > TIMEOUT_S:
                proc.kill()
                _, status, _ = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                raise AssertionError(f"the run did not end within {TIMEOUT_S} s")
            time.sleep(delay)
            delay = min(2 * delay, 0.05)
        _, status, usage = reaped
        seconds, proc.returncode = time.perf_counter() - start, os.waitstatus_to_exitcode(status)
        files = sorted(os.listdir(work))
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    peak = usage.ru_maxrss / 1024
    for field, ok, value in (("exit code", proc.returncode == row.code, proc.returncode),
                             ("stdout", re.fullmatch(row.stdout, stdout), stdout),
                             ("stderr", re.fullmatch(row.stderr, stderr), stderr),
                             ("files", files == sorted(row.files), files),
                             ("peak RSS (MB)", row.rss_mb is None or peak <= row.rss_mb, peak)):
        if not ok:
            raise AssertionError(f"{field} differs from the row: {value!r}")
    return seconds, peak


if __name__ == "__main__":
    for name, row in {**FAST, **SLOW}.items():
        try:
            seconds, peak = check(row, ["wiptsim"])
        except AssertionError as exc:
            sys.exit(f"{name}: {exc}")
        print(f"{row.code} {seconds:6.2f} s {peak:6.1f} MB  {name}: wiptsim {row.argv}", flush=True)
