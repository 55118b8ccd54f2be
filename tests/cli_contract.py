"""The wiptsim command-line contract: one table of runs, checked by CI and by tier-1.

A row writes its scenario bytes to s.toml in an empty directory, runs wiptsim there
with its argv, and fixes the exit code, stdout and stderr (regular expressions that
must match in full, so an extra line fails), the files left, optionally a bound
on the run's peak RSS in MB, and the bytes of its outputs: digests maps "stdout"
or the name of a file the run leaves to the sha256 of its bytes.  The digests are
the byte check of the CSV, frontier and compare outputs: each was taken from a
known-good build, and none is regenerated to let a change pass.  Run every row
against the installed wiptsim with `pip install . && python tests/cli_contract.py`:
one line per row, every failing row reported, then exit 1 if any failed.  Tier-1
runs the FAST rows, which bound no RSS: a child's ru_maxrss starts at its parent's
resident size, so only this script, which imports neither numpy nor wiptsim, reads it.
Every child runs with MALLOC_MMAP_THRESHOLD_=131072, glibc's initial mmap threshold.
Setting it turns off glibc's dynamic raise of the threshold (each free of a large
mmapped block raises it), so a peak follows the data held, not the heap's history or
where the checkout sits; output bytes do not depend on it.  Other libcs ignore it.
Each RSS bound is the largest of three runs at each of two checkout locations, plus
at least 20%.
"""

import hashlib
import os
import re
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path
from tempfile import TemporaryDirectory, TemporaryFile


Row = namedtuple("Row", "scenario argv code stdout stderr files rss_mb digests",
                 defaults=("", "", ("s.toml",), None, {}))

DEFAULT = (Path(__file__).resolve().parents[1] / "scenarios" / "default.toml").read_bytes()
HERE = f"{Path(__file__).resolve().parent}{os.sep}"  # a directory that exists, named as one
LUX = b"illuminance_min = 15.0\nilluminance_max = 40.0\n"  # c's lux gate keeps 9 of 27 tuples
# 0.3x and 0.8x the full-drive illuminance, the range tests/helpers.lux_gated sets
LUX_GATED = b"illuminance_min = 14.99711063995017\nilluminance_max = 39.99229503986712\n"
GLARE, NEAR, LATIN1 = b"luminous_efficacy = 5000.0\n", b"rf_distance = 0.5\n", b"rf_distance = 5.0\n\377\n"
SAFETY, COMPARE, REGION = ["safety", "s.toml"], ["compare", "s.toml"], ["region", "s.toml"]
OUT, CAP = ["--out", "o.csv"], 1 << 20


def _line(text):
    return re.escape(text + "\n")


def _wrote(points, name="o"):
    """A region run's stdout, stderr and files when it writes name.csv and its frontier."""
    return (rf"{points} points -> {name}\.csv\n\d+ frontier points -> {name}\.frontier\.csv\n", "",
            ("s.toml", f"{name}.csv", f"{name}.frontier.csv"))


def _region(scenario, protocol, grid, points, csv, frontier, rss_mb=None):
    """A region row that writes o.csv and its frontier, whose sha256 are csv and frontier."""
    return Row(scenario, [*REGION, protocol, "--grid", str(grid), *OUT], 0, *_wrote(points),
               rss_mb, {"o.csv": csv, "o.frontier.csv": frontier})


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
# each protocol's points, and the sha256 of o.csv and o.frontier.csv, at grid 21 on DEFAULT:
# any change to a protocol's arithmetic, enumeration order or CSV formatting shows up
# here.  LUX_GATED moves only c's.
GRID_21 = {
    "rf": (21, "6a5f339902dcb93544d6a9b3819eaf3183806dc8d55f65a3945ebe2b39b44a7e", "bbab1d30b74ccd84b5cc2ab8ba64a0193d5e736d7c3526a73905f0c121071249"),
    "vl": (441, "6654e95047671d4093e6fa761b4a2cc4eb400a523c9844db7939555e81387f85", "1a2ab4f5489551fa458867af4f46c3b7b2e6be4c7c7a45470bb99cd7417d89a4"),
    "nirl": (441, "dca9069bc65396ef7d5350c9d97d118603a4c264a0f056ccf650ffb130ca1d51", "1e57dafbc0d5411551e156f699e4b32d89387fbbf19baae924af8d74c51a5f91"),
    "a": (441, "287c117cd36ead82cafbf26a5c3aab835d4fac2030b916d89e80af4358efa037", "55809f15a1e7aae6093917713efd17df11dc4f9aa17e7400391af8d55e47fcc7"),
    "b": (441, "69cfc4efa6883db901bf1036d32733b3b087e2fab75ae844e276cc977a875df7", "364f0d1ba3c359ff9e9039d4445760a3f86e330b925257cd1f391c35b4725935"),
    "c": (9261, "2d8cc7456b501789c6c6a0fae57db9da01266822097421e3f10d4381ce6965b2", "7120fb1a171fc5d7e142d076b2b2dc3963ff793deeb0cf6fccfe02ce27511e30"),
    "d": (9261, "30810a430bef3f28efb697872eda664b9a144865088335527b2efdebe6098c7a", "0b123373cf342dde02a4843b69acdc2d95f42051fbede102542654643745b8df"),
}
# c's lux gate rejects 5,418 of its 9,261 tuples
LUX_GATED_C_21 = (3843, "3abe12325abf82647f73ccf31d94476772cac43cafab9f4bcb63fc5b0d541717", "4fa23aedbafd11891d93878e6d87b65be7a3ea02637f1465a422f3342c617818")
GRID_301 = {
    "a": ("c7cb67435e2155d7deb3952c60cb58e68fa1a2d8140c685c88276f8ef1d604ea", "9c9ef80fcfd1b4c734e09f90ce0a93b6099581833a44e60ccc9b15c08ee09fb7"),
    "b": ("d7865cc9de3ccb5458a9334b405a98f16b6604f92bf8399c1c90babab7452da0", "3985806384d8b8b4a31ea455fbd6a47773371cf133b60cb0ef068c88896b80cd"),
    "vl": ("2861e201e275555f11f1b070a8ecdd850f587b8d2f87405ff908a585762034fc", "4cf9e6c477567b2c20b6e3f6e39017b672afa9e953da8348f7490176dfdc1c52"),
    "nirl": ("a7611dba1416a3a305319ba6d2f03e4d9dc1dbea537e50abb861466a98233308", "96d615aa64b2a06e3e3848dc943f2ca33c952d18ff8b2002e02d291580170eb9"),
}
FAST = {
    "compare-default": Row(DEFAULT, COMPARE, 0, _table(), digests={
        "stdout": "a21a7745a64761dd0eaf099638cf1936341c753ccea2bd0c92c2955e660ff8cc"}),
    # a file that sets no key runs the defaults
    "compare-empty-grid-11": Row(b"", [*COMPARE, "--grid", "11"], 0, _table(), digests={
        "stdout": "76cc0e70ec9653ae6a042e02b318b2cba334bbbadbc7929051f313a13fb32e00"}),
    "compare-grid-21": Row(DEFAULT, [*COMPARE, "--grid", "21"], 0, _table(), digests={
        "stdout": "a3b3297306f2be5210062c298b29efaaca4108643d6404e3cda2c7de9c7c9402"}),
    **{f"region-{p}-grid-21": _region(DEFAULT, p, 21, *pins) for p, pins in GRID_21.items()},
    **{f"lux-gated-region-{p}-grid-21": _region(LUX_GATED, p, 21, *pins)
       for p, pins in {**GRID_21, "c": LUX_GATED_C_21}.items()},
    **{f"region-{p}-grid-301": _region(DEFAULT, p, 301, 90601, *pins) for p, pins in GRID_301.items()},
    "lux-region-c-grid-61": _region(LUX, "c", 61, 96014, "fe0131907f6411efa5df6c21b7714e5f314741528a43e523e039fcf9730bbf8e",
                                    "1261943f03a2167fce7013a4b862a82795afdff828743a714c588a5bf056114c"),
    "region-default-out-name": Row(DEFAULT, [*REGION, "vl", "--grid", "3"], 0, *_wrote(9, "region_vl")),
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
    # a name that ends in a separator, or in "/.", names a directory, new or existing
    "region-out-new-directory": Row(DEFAULT, [*REGION, "rf", "--out", "o/"], 2, "",
                                    _line("error: --out must name a file, got 'o/'")),
    "region-out-directory-dot": Row(DEFAULT, [*REGION, "rf", "--out", "o/."], 2, "",
                                    _line("error: --out must name a file, got 'o/.'")),
    "region-out-existing-directory": Row(DEFAULT, [*REGION, "rf", "--out", HERE], 2, "",
                                         _line(f"error: --out must name a file, got '{HERE}'")),
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
    # region streams d's 1,030,301 points to the file a block of 65,536 grid tuples at a
    # time and keeps only each block's frontier (40.3 MB peak; 56.7 MB holding them all)
    "region-d-grid-101": _region(DEFAULT, "d", 101, 1030301,
                                 "6ded5faba8abf53728e7bf31c6fc297e4446f1c43bfe3f437ae545b7e9e7a75d",
                                 "2be5127b600afc73fac1ecdeb1666ab1b6b3f89b99802646f1edfd9f5ea0683b", 49),
    # 2,097,152 points, the sweep budget on three axes: the grid's rates, harvests and
    # index columns (40 MB) are never held at once (40.4 MB peak; 76.8 MB holding them)
    "region-d-grid-128": _region(DEFAULT, "d", 128, 2097152,
                                 "d4754a03d77adf07ab30771c0886e5e9fd61e00103abf26ef21100ed29677e1f",
                                 "ad4172da84fa18634a774b719ad5e83b5230066f4fc63fa761375850013fd666", 49),
    # c keeps the grid positions it rejects in a typed array (128 MB as a list of ints)
    "lux-region-c-grid-128": _region(LUX, "c", 128, 892160,
                                     "ffc23ced6fd96a65a92f15e15fafd323cb9ef4d7698938224fac8ec95d33d6ec",
                                     "92e83fa0f40d438166d04bee0f7d825caf30ff2bae0c81fab0effd2dda1583d0", 48),
    # 2,096,704 points: each free axis has 1,448 levels, each formatted once a file by _e8
    # (34.7 MB peak; 74.9 MB holding every point)
    "region-vl-grid-1448": _region(DEFAULT, "vl", 1448, 2096704,
                                   "0cc15f78e073222f1edc13274b4343ce59d4711fda3610d7c332fa5ee6b9ae9f",
                                   "b8a2d30048b811df4231c2ad8c792bfbb9ffb2f6ea5788b425cb1fbd0b4fe964", 43),
    # a frontier that is every point; the peak (305.5 MB) comes while the sweep holds the
    # rho_rf axis as Python floats and its first block formats every level text
    "region-rf-grid-2097152": _region(DEFAULT, "rf", 2097152, 2097152,
                                      "2648d9173eb3a7bcb3a5be9a6ee075011b41aaf257e339600037f63edb561098",
                                      "be7d19db83172cf009810562a9a6d7afa302bb6083db11d93c69b518050814df", 367),
    "compare-grid-1001": Row(DEFAULT, [*COMPARE, "--grid", "1001"], 0, _table(10), digests={
        "stdout": "fabdc0bb745d1637b21b4efe991062ee043a38dc8e8ff8de0d1fcc9d558da288"}),
    # the largest grid compare admits: c's and d's counts take ten digits, and vl's and
    # nirl's sweeps evaluate 2,096,704 tuples each; every value is pinned (165.3 MB peak)
    "compare-grid-1448": Row(DEFAULT, [*COMPARE, "--grid", "1448"], 0, re.escape(
        "protocol      points    max_rate_bps    max_energy_w    dom_rf    dom_vl  dom_nirl\n"
        "rf              1448    3.175496e+08    1.752868e-03         -         -         -\n"
        "vl           2096704    1.384550e+09    3.761488e-04         -         -         -\n"
        "nirl         2096704    1.823739e+09    9.594037e-03         -         -         -\n"
        "a            2096704    2.128001e+09    1.058657e-02       yes       yes       yes\n"
        "b            2096704    2.128100e+09    1.058657e-02       yes       yes        no\n"
        "c         3036027392    1.688812e+09    1.058657e-02       yes       yes        no\n"
        "d         3036027392    3.280458e+09    1.024192e-02       yes       yes       yes\n"),
        rss_mb=199),
}


# Seconds a row may run: well above the slowest, region rf --grid 2097152 and
# compare --grid 1448 (about 7 s each on a 2-vCPU host).
TIMEOUT_S = 120


def _sha256(path):
    """A file's sha256, read 1 MiB at a time (hashlib.file_digest is new in Python 3.11)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check(row, command):
    """Run row with command, wiptsim's argv: raise AssertionError naming every field that
    differs from the row, or when the run outlasts TIMEOUT_S (the child is killed and
    reaped), else return the run's seconds and the child's peak RSS in MB."""
    with TemporaryDirectory() as work, TemporaryFile() as out, TemporaryFile() as err:
        Path(work, "s.toml").write_bytes(row.scenario)
        start = time.perf_counter()
        proc = subprocess.Popen([*command, *row.argv], cwd=work, stdout=out, stderr=err,
                                env={**os.environ, "MALLOC_MMAP_THRESHOLD_": "131072"})
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
        sums = {name: _sha256(Path(work, name)) for name in row.digests if name in files}
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read().decode()
    sums["stdout"] = hashlib.sha256(stdout).hexdigest()
    stdout, peak = stdout.decode(), usage.ru_maxrss / 1024
    wrong = [f"{field} differs from the row: {value!r}" for field, ok, value in (
        ("exit code", proc.returncode == row.code, proc.returncode),
        ("stdout", re.fullmatch(row.stdout, stdout), stdout),
        ("stderr", re.fullmatch(row.stderr, stderr), stderr),
        ("files", files == sorted(row.files), files),
        ("peak RSS (MB)", row.rss_mb is None or peak <= row.rss_mb, peak),
        *((f"sha256 of {name}", sums.get(name) == digest, sums.get(name))
          for name, digest in row.digests.items())) if not ok]
    if wrong:
        raise AssertionError("; ".join(wrong))
    return seconds, peak


if __name__ == "__main__":
    failed = []
    for name, row in {**FAST, **SLOW}.items():
        try:
            seconds, peak = check(row, ["wiptsim"])
        except AssertionError as exc:
            failed.append(name)
            print(f"FAILED {name}: {exc}", flush=True)
            continue
        print(f"{row.code} {seconds:6.2f} s {peak:6.1f} MB  {name}: wiptsim {row.argv}", flush=True)
    if failed:
        sys.exit(f"{len(failed)} of {len(FAST) + len(SLOW)} rows failed: {', '.join(failed)}")
