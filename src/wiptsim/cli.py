"""Command-line surface: region sweeps to CSV, protocol comparison, safety report.

Exit codes: 0 success; 1 scenario file problem: a file that cannot be
read, is larger than 1 MiB (1,048,576 bytes; the read stops there) or is
not UTF-8, a key out of the range declared beside its default in
scenario.py (such as a semi-angle outside the Lambertian domain), a
fading ensemble above its budget, or keys that make a link gain, the
full-drive illuminance, the per-device NIRL power, a band's rate or
harvest, or their sum over the bands overflow or come out inf or NaN;
2 unknown protocol, --grid below 2 or above the sweep budget (no
protocol's engine may build more than 2**21 tuples at one go; see
protocols.tuples_built), or an --out that names no file ("", ".", "sub/..",
"res/" or "res/."), each refused before any sweep; 3 degenerate region; 4 safety
verdict failed; 5 the region's CSV pair could not be written.  region opens both
files, making --out's directories, before it evaluates a tuple, so an --out whose
directory cannot be made exits 5 before any sweep.
Of several bad keys, the error names the first in scenario.py's order:
each sub-model's keys, then the others in file order, each check across
keys after the keys it reads.  A file may begin with a byte-order mark."""

import argparse
import errno
import os
import sys
import uuid
from contextlib import ExitStack, contextmanager, suppress
from pathlib import Path

import numpy as np

from . import region as _region  # _csv_lines reads its _STREAM_BLOCK when it runs
from .region import DegenerateRegionError, _band_merge, dominates, max_energy, max_rate, sweep
from .protocols import _CONTROL_NAMES, _TABLE, ProtocolId, SweepBudgetError, tuples_built
from .safety import evaluate_safety
from .scenario import ScenarioError, ScenarioValidationError, parse_scenario

_PROTOCOLS = {p.value: p for p in ProtocolId}
# About 1,000 times scenarios/default.toml: a read stops here, not at the memory's end.
_MAX_SCENARIO_BYTES = 1 << 20
# A baseline is a protocol that uses a single band.
_BASELINES = tuple(p for p in ProtocolId
                   if len(_TABLE[p].lightwave) + (_TABLE[p].rf is not None) == 1)

CSV_HEADER = ",".join(("protocol", *_CONTROL_NAMES, "rate_bps", "harvested_w"))


_E8_WIDTH = 16  # the longest "%.8e" text of a float: "-1.79769313e+308"
_DIGITS = (np.arange(1000)[:, None] // [100, 10, 1] % 10 + ord("0")).astype(np.uint8)
_POW10 = np.array([float(10 ** k) for k in range(23)])  # each exact: 5**22 < 2**53


def _cells(rows):
    """Each row of a uint8 matrix whose rows are contiguous as one void item."""
    return rows.view(f"V{rows.shape[1]}")[:, 0]


_DIGITS3, _DIGITS2 = _cells(_DIGITS), _cells(_DIGITS[:, 1:].copy())  # "000".."999", "00".."99"


def _e8(values):
    """The "%.8e" texts of a float64 array as one void item each, NUL-padded to
    the widest (at least 14 bytes), and whether any is shorter than that width.

    With e = floor(log10 v), s = v * 10**(8 - e) is one correctly rounded
    product or quotient by an exact power of ten while |8 - e| <= 22, so below
    1e9 it is within 2**-24 of the exact scaled value.  Where s lies in
    [1e8 + 1e-6, 1e9 - 1) and its fraction is more than 1e-6 from one half, the
    exact value has the same decade and rounds to the same nine digits, rint(s),
    as Python's correctly rounded "%.8e" (Gay, 1990).  A wrong e fails the decade
    check.  +0.0 is spelled out from s = 0; a set sign bit goes to Python, as does
    every other value (a tie, a decade edge, e outside [-14, 30], a subnormal).
    """
    with np.errstate(all="ignore"):  # 0.0, inf, nan, v < 0, and 1e8 * v past 1e308
        p = 8 - np.floor(np.log10(values))
        # 0.0, inf, nan, v < 0 and every other |8 - e| > 22 get p = 8, e = 0: all
        # fail the decade check, which only a value with p = 8 itself passes
        p = np.where(np.abs(p) <= 22, p, 8).astype(np.intp)
        s = values * _POW10[np.maximum(p, 0)]
        np.divide(values, _POW10[np.maximum(-p, 0)], out=s, where=p < 0)
        kept = (s >= 1e8 + 1e-6) & (s < 1e9 - 1) & (np.abs(s - np.floor(s) - 0.5) > 1e-6)
    kept |= values.view(np.uint64) == 0  # +0.0, the one float whose bits are all zero
    head, tail = np.divmod(np.where(kept, np.rint(s), 1e8).astype(np.int64), 1_000_000)
    mid, low = np.divmod(tail, 1000)
    e = 8 - p  # in [-14, 30]
    rows = np.zeros((len(values), 14), np.uint8)  # d.dddddddde+dd
    rows[:, 0] = head // 100 + ord("0")
    rows[:, 1] = ord(".")
    _cells(rows[:, 2:4])[:] = _DIGITS2[head % 100]
    _cells(rows[:, 4:7])[:] = _DIGITS3[mid]
    _cells(rows[:, 7:10])[:] = _DIGITS3[low]
    rows[:, 10] = ord("e")
    rows[:, 11] = np.where(e < 0, ord("-"), ord("+"))
    _cells(rows[:, 12:])[:] = _DIGITS2[np.abs(e)]
    other = np.flatnonzero(~kept)
    if not len(other):
        return _cells(rows), False
    texts = np.array([f"{v:.8e}" for v in values[other].tolist()], dtype=f"S{_E8_WIDTH}")
    texts = texts.view(np.uint8).reshape(len(other), _E8_WIDTH)
    width = max(rows.shape[1], int(np.count_nonzero(texts, axis=1).max()))
    wide = np.zeros((len(values), width), np.uint8)
    wide[:, :rows.shape[1]] = rows
    wide[other] = texts[:, :width]
    return _cells(wide), not wide[:, -1].all()  # a text shorter than the widest ends in NUL


def _block_texts(levels, index, texts):
    """A block's texts of a control, gathered by its index, and the padding flag; for
    a long axis (texts None), _e8 of only the levels the block uses."""
    if texts is None:
        used, index = np.unique(index, return_inverse=True)
        texts = _e8(levels[used])
    return texts[0][index], texts[1]


def _csv_rows(store):
    """The CSV bytes of a region's column store in blocks of whole lines, header first."""
    yield (CSV_HEADER + "\n").encode()
    yield from _csv_lines(store, [])


def _csv_lines(store, file_texts):
    """A store's CSV lines in blocks; ``file_texts`` keeps, for every store of one file,
    each control's level texts through _e8 and whether any is NUL-padded, filled at
    the first store with a row: so a control's levels are formatted once a file.

    Each block of _STREAM_BLOCK rows is one uint8 matrix: the protocol, the five
    control level texts gathered by the index columns, the rate and harvest texts,
    the commas and the newline; every text comes from _e8.  A control with more
    levels than a block, such as rf's rho_rf past grid 4,096, keeps None and formats
    only the levels each block uses (_block_texts).  A block with a NUL-padded field
    is compacted.  Each block is yielded as that array, bytes-like, not copied.
    """
    rows = _region._STREAM_BLOCK
    if len(store) and not file_texts:
        file_texts.extend(None if len(levels) > rows else _e8(levels) for levels in store.levels)
    protocol = store.protocol.value.encode()
    for start in range(0, len(store), rows):
        part = slice(start, start + rows)
        fields = [_block_texts(levels, column[part], known)
                  for levels, column, known in zip(store.levels, store.index, file_texts)]
        fields += [_e8(store.rate[part]), _e8(store.harvest[part])]
        widths = [len(protocol), *(texts.itemsize for texts, _ in fields)]
        # each field and its comma or, after the last, the newline
        block = np.empty((len(fields[0][0]), sum(widths) + len(widths)), np.uint8)
        _cells(block[:, :len(protocol)])[:] = protocol
        at = len(protocol)
        for texts, _ in fields:
            block[:, at] = ord(",")
            _cells(block[:, at + 1:at + 1 + texts.itemsize])[:] = texts
            at += 1 + texts.itemsize
        block[:, at] = ord("\n")
        if any(padded for _, padded in fields):
            block = block[block != 0]
        yield block


@contextmanager
def _write_together(*paths):
    """A temporary file beside each path, open for the body to write, each renamed
    over its path once the body is done and every file is closed: one set of files.

    cmd_region refuses a target that exists and is neither a regular file nor a
    link, then opens the files, then sweeps.  If the body, a write or a close
    fails, every temporary file and every directory this call made is removed,
    and the old targets stay as they were.  A rename can still fail where no check
    foresees it (over another user's file in a sticky directory, or over a
    directory made since), and then the targets renamed before it are new.
    """
    moves, handles = [], []
    made = []  # directories this call created, deepest first
    try:
        with ExitStack() as files:
            for path in paths:
                target = Path(path)
                made[:0] = [d for d in (target.parent, *target.parent.parents) if not d.exists()]
                target.parent.mkdir(parents=True, exist_ok=True)
                tmp = target.with_name(f"{target.name}.{uuid.uuid4().hex}.tmp")
                # open() creates the file with mode 0o666 less the umask, as a
                # direct write would; mkstemp would force 0o600.
                handles.append(files.enter_context(open(tmp, "xb")))
                moves.append((tmp, target))
            yield handles
        for tmp, target in moves:
            os.replace(tmp, target)
    except BaseException:
        for tmp, _ in moves:
            tmp.unlink(missing_ok=True)
        for directory in made:
            with suppress(OSError):  # something else has written into it since
                directory.rmdir()
        raise


def cmd_region(scenario, protocol, grid, out_path):
    out = Path(out_path)
    frontier_path = out.with_name(out.name.removesuffix(".csv") + ".frontier.csv")
    # Refused before the sweep: a rename would replace a FIFO, device or socket, and over
    # a directory it would fail after the renames before it.
    try:
        for path in (out_path, frontier_path):
            if os.path.isdir(path) and not os.path.islink(path):  # a rename replaces a link
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            if os.path.exists(path) and not (os.path.isfile(path) or os.path.islink(path)):
                raise OSError(errno.EINVAL, "Not a regular file", str(path))
        with _write_together(out_path, frontier_path) as (points_file, frontier_file):
            points_file.write((CSV_HEADER + "\n").encode())
            texts, rows = [], []  # every store's level texts (_csv_lines) and row count

            def write(store):
                points_file.writelines(_csv_lines(store, texts))
                rows.append(len(store))

            frontier = sweep(scenario, protocol, grid, write).frontier
            frontier_file.writelines(_csv_rows(frontier))
    except OSError as exc:
        print(f"error: cannot write '{out_path}' and '{frontier_path}': {exc}",
              file=sys.stderr)
        return 5
    print(f"{sum(rows)} points -> {out_path}")
    print(f"{len(frontier)} frontier points -> {frontier_path}")
    return 0


def _compare_row(protocol, count, region, regions, width=8):
    row = f"{protocol.value:<10}{count:>{width}}"
    row += f"{max_rate(region):>16.6e}{max_energy(region):>16.6e}"
    cells = ("-" if protocol in _BASELINES else "yes" if dominates(region, regions[b]) else "no"
             for b in _BASELINES)
    return row + "".join(f"{cell:>10}" for cell in cells)


def cmd_compare(scenario, grid):
    # Rows print once every region is built, so a degenerate region prints nothing.
    merged = {protocol: _band_merge(scenario, protocol, grid) for protocol in ProtocolId}
    regions = {protocol: region for protocol, (_, region) in merged.items()}
    width = max(8, *(len(str(count)) for count, _ in merged.values()))  # the widest count
    header = f"{'protocol':<10}{'points':>{width}}{'max_rate_bps':>16}{'max_energy_w':>16}"
    header += "".join(f"{'dom_' + b.value:>10}" for b in _BASELINES)
    print(header)
    for protocol, (count, region) in merged.items():
        print(_compare_row(protocol, count, region, regions, width))
    return 0


def cmd_safety(scenario, dim_mode):
    verdict = evaluate_safety(scenario, dim_mode=dim_mode)
    limits = scenario.safety
    print(f"sar:         {'pass' if verdict.sar_ok else 'FAIL'}  "
          f"margin {verdict.sar_margin:.4f} W "
          f"(budget {limits.sar_power_budget} W over {limits.sar_window:.0f} s)")
    steering = "beam steering on" if limits.nirl_beam_avoids_body else "beam steering off"
    print(f"irradiance:  {'pass' if verdict.irradiance_ok else 'FAIL'}  "
          f"margin {verdict.irradiance_margin:.4g} W/m^2 ({steering})")
    print(f"illuminance: {verdict.illuminance_class}  {verdict.illuminance:.1f} lx "
          f"(range {limits.illuminance_min:.0f}..{limits.illuminance_max:.0f} lx"
          f"{', dim mode' if verdict.dim_mode else ''})")
    print(f"overall:     {'pass' if verdict.overall_ok else 'FAIL'}")
    return 0 if verdict.overall_ok else 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wiptsim",
        description="Rate-energy region simulator for collaborative RF and "
                    "lightwave information and power transfer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    region = sub.add_parser("region", help="sweep one protocol and write CSV region data")
    region.add_argument("scenario", help="scenario file (key = value lines)")
    region.add_argument("protocol", help="one of: " + ", ".join(_PROTOCOLS))
    region.add_argument("--grid", type=int, default=101, help="grid points per free axis")
    region.add_argument("--out", default=None, help="output CSV path (default region_<protocol>.csv)")

    compare = sub.add_parser("compare", help="tabulate all protocols against the baselines")
    compare.add_argument("scenario")
    compare.add_argument("--grid", type=int, default=101)

    safety = sub.add_parser("safety", help="print the safety verdict for the scenario")
    safety.add_argument("scenario")
    safety.add_argument("--dim", action="store_true",
                        help="evaluate the dimmed-room configuration")
    return parser


def _read_scenario(path):
    """A scenario file's text; OSError for a file above _MAX_SCENARIO_BYTES."""
    with open(path, "rb") as handle:
        data = handle.read(_MAX_SCENARIO_BYTES + 1)
    if len(data) > _MAX_SCENARIO_BYTES:
        raise OSError(f"the file is larger than {_MAX_SCENARIO_BYTES:,} bytes")
    return data.decode("utf-8")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        scenario = parse_scenario(_read_scenario(args.scenario))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read scenario file '{args.scenario}': {exc}", file=sys.stderr)
        return 1
    except ScenarioError as exc:
        print(f"error: invalid scenario '{args.scenario}': {exc}", file=sys.stderr)
        return 1

    if args.command in ("region", "compare") and args.grid < 2:
        print(f"error: --grid must be at least 2, got {args.grid}", file=sys.stderr)
        return 2

    if args.command == "safety":
        return cmd_safety(scenario, args.dim)
    if args.command == "region":
        protocol = _PROTOCOLS.get(args.protocol.lower())
        if protocol is None:
            print(f"error: unknown protocol '{args.protocol}' "
                  f"(expected one of: {', '.join(_PROTOCOLS)})", file=sys.stderr)
            return 2
        out_path = args.out if args.out is not None else f"region_{protocol.value}.csv"
        # e.g. "", ".", "sub/..", "res/" or "res/."; the frontier name derives from the file name
        if os.path.basename(out_path) in ("", ".", ".."):
            print(f"error: --out must name a file, got '{out_path}'", file=sys.stderr)
            return 2
    # Refuse an oversized grid before any term is built or ensemble drawn.
    try:
        for checked in ((protocol,) if args.command == "region" else ProtocolId):
            tuples_built(checked, args.grid, merged=args.command == "compare")
    except SweepBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "region":
            return cmd_region(scenario, protocol, args.grid, out_path)
        return cmd_compare(scenario, args.grid)
    except DegenerateRegionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ScenarioValidationError as exc:
        # a band's rate or harvest, or their sum over the bands, came out inf or NaN
        print(f"error: invalid scenario '{args.scenario}': {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
