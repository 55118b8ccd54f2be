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
protocols.tuples_built), or an --out that names no file ("", "." or
"sub/.."), each refused before any sweep; 3 degenerate region; 4 safety
verdict failed; 5 the region's CSV pair could not be written.
Of several bad keys, the error names the first in scenario.py's order:
each sub-model's keys, then the others in file order, each check across
keys after the keys it reads.  A file may begin with a byte-order mark."""

import argparse
import os
import sys
import uuid
from contextlib import suppress
from pathlib import Path

import numpy as np

from .region import DegenerateRegionError, _band_merge, dominates, max_energy, max_rate, sweep
from .protocols import _TABLE, ProtocolId, SweepBudgetError, tuples_built
from .safety import evaluate_safety
from .scenario import ScenarioError, ScenarioValidationError, parse_scenario

_PROTOCOLS = {p.value: p for p in ProtocolId}
# About 1,000 times scenarios/default.toml: a read stops here, not at the memory's end.
_MAX_SCENARIO_BYTES = 1 << 20
# A baseline is a protocol that uses a single band.
_BASELINES = tuple(p for p in ProtocolId if sum(_TABLE[p].bands_on()) == 1)

CSV_HEADER = "protocol,alpha_nirl,tau_nirl,alpha_vl,tau_vl,rho_rf,rate_bps,harvested_w"


_CSV_BLOCK = 4096  # rows per block: amortises the numpy calls, bounds the block's bytes

_E8_WIDTH = 16  # the longest "%.8e" text of a float: "-1.79769313e+308"
_DIGITS = (np.arange(1000)[:, None] // [100, 10, 1] % 10 + ord("0")).astype(np.uint8)
_POW10 = np.array([float(10 ** k) for k in range(23)])  # each exact: 5**22 < 2**53


def _cells(rows):
    """Each row of a uint8 matrix whose rows are contiguous as one void item."""
    return rows.view(f"V{rows.shape[1]}")[:, 0]


_DIGITS3, _DIGITS2 = _cells(_DIGITS), _cells(_DIGITS[:, 1:].copy())  # "000".."999", "00".."99"


def _e8_texts(values):
    """Python's own "%.8e" texts of a float64 array, as NUL-padded uint8 rows."""
    texts = np.array([f"{v:.8e}" for v in values.tolist()], dtype=f"S{_E8_WIDTH}")
    return texts.view(np.uint8).reshape(len(texts), _E8_WIDTH)


def _e8(values):
    """The "%.8e" texts of a float64 array as one void item each, and whether
    any is NUL-padded (shorter than the widest).

    With e = floor(log10|v|), s = |v| * 10**(8 - e) is one correctly rounded
    product or quotient by an exact power of ten while |8 - e| <= 22, so below
    1e9 it is within 2**-24 of the exact scaled value.  Where s lies in
    [1e8 + 1e-6, 1e9 - 1) and its fraction is more than 1e-6 from one half, the
    exact value has the same decade and rounds to the same nine digits, rint(s),
    as Python's correctly rounded "%.8e" (Gay, 1990).  A wrong e fails the decade
    check.  +-0.0 is spelled out from s = 0; every other value (a tie, a decade
    edge, e outside [-14, 30], a subnormal) is formatted by Python.
    """
    a = np.abs(values)
    with np.errstate(all="ignore"):  # 0.0, inf, nan, and 1e8 * |v| past 1e308
        p = 8 - np.floor(np.log10(a))
        # 0.0, inf, nan and every other |8 - e| > 22 get p = 8, e = 0: all but 0.0
        # fail the decade check, which only a value with p = 8 itself passes
        p = np.where(np.abs(p) <= 22, p, 8).astype(np.intp)
        s = a * _POW10[np.maximum(p, 0)]
        np.divide(a, _POW10[np.maximum(-p, 0)], out=s, where=p < 0)
        kept = (s >= 1e8 + 1e-6) & (s < 1e9 - 1) & (np.abs(s - np.floor(s) - 0.5) > 1e-6)
        kept |= a == 0
    head, tail = np.divmod(np.where(kept, np.rint(s), 1e8).astype(np.int64), 1_000_000)
    mid, low = np.divmod(tail, 1000)
    e = 8 - p  # in [-14, 30]
    negative = np.signbit(values)
    signed = bool(negative.any())
    rows = np.zeros((len(values), 14 + signed), np.uint8)
    if signed:
        rows[negative, 0] = ord("-")
    body = rows[:, signed:]  # d.dddddddde+dd
    body[:, 0] = head // 100 + ord("0")
    body[:, 1] = ord(".")
    _cells(body[:, 2:4])[:] = _DIGITS2[head % 100]
    _cells(body[:, 4:7])[:] = _DIGITS3[mid]
    _cells(body[:, 7:10])[:] = _DIGITS3[low]
    body[:, 10] = ord("e")
    body[:, 11] = np.where(e < 0, ord("-"), ord("+"))
    _cells(body[:, 12:])[:] = _DIGITS2[np.abs(e)]
    other = np.flatnonzero(~kept)
    if not len(other):
        return _cells(rows), signed
    texts = _e8_texts(values[other])
    width = max(rows.shape[1], int(np.count_nonzero(texts, axis=1).max()))
    wide = np.zeros((len(values), width), np.uint8)
    wide[:, :rows.shape[1]] = rows
    wide[other] = texts[:, :width]
    return _cells(wide), True


def _level_texts(levels, index):
    """A control's level texts as one void item each, formatted _CSV_BLOCK levels
    at a time into one matrix, which are NUL-padded (None if none is shorter than
    the longest: the common case, which costs no gather), and the index into them:
    with more levels than rows (a frontier keeps its parent's), only those used."""
    if len(levels) > len(index):
        used, index = np.unique(index, return_inverse=True)
        levels = levels[used]
    rows = np.empty((len(levels), _E8_WIDTH), np.uint8)
    lengths = np.empty(len(levels), np.uint8)
    for start in range(0, len(levels), _CSV_BLOCK):
        chunk = rows[start:start + _CSV_BLOCK]
        chunk[...] = _e8_texts(levels[start:start + _CSV_BLOCK])
        lengths[start:start + _CSV_BLOCK] = np.count_nonzero(chunk, axis=1)
    width = lengths.max()
    return _cells(rows[:, :width]), (lengths < width if lengths.min() < width else None), index


def _csv_rows(store):
    """The CSV text of a region's column store in blocks of whole lines, header first.

    Each block of _CSV_BLOCK rows is one uint8 matrix: the protocol, the five
    control level texts gathered by the store's index columns (each level is
    formatted once), rate and harvest through _e8, the commas and the newline.
    A block whose fields differ in width is NUL-padded, then compacted.
    """
    yield CSV_HEADER + "\n"
    if not len(store):
        return
    levels = list(map(_level_texts, store.levels, store.index))
    protocol = store.protocol.value.encode()
    for start in range(0, len(store), _CSV_BLOCK):
        part = slice(start, start + _CSV_BLOCK)
        fields = [(texts[column[part]], short is not None and short[column[part]].any())
                  for texts, short, column in levels]
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
        yield block.tobytes().decode("ascii")


def _write_together(outputs):
    """Write each (path, lines) pair as one set of files.

    Every file is first written in full to a temporary file beside its
    target; only then is each renamed over its target.  If writing any of
    them fails, every temporary file and every directory this call made is
    removed, and the old targets stay as they were.  Lines are formatted as
    they are written, so the whole text is never built.
    """
    moves = []
    made = []  # directories this call created, deepest first
    try:
        for path, lines in outputs:
            target = Path(path)
            made[:0] = [d for d in (target.parent, *target.parent.parents) if not d.exists()]
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp = target.with_name(f"{target.name}.{uuid.uuid4().hex}.tmp")
            # open() creates the file with mode 0o666 less the umask, as a
            # direct write would; mkstemp would force 0o600.
            with open(tmp, "x", encoding="utf-8", newline="\n") as handle:
                moves.append((tmp, target))
                handle.writelines(lines)  # streams through the file's buffer
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
    region = sweep(scenario, protocol, grid)
    out = Path(out_path)
    frontier_path = out.with_name(out.name.removesuffix(".csv") + ".frontier.csv")
    try:
        _write_together([(out_path, _csv_rows(region.points)),
                         (frontier_path, _csv_rows(region.frontier))])
    except OSError as exc:
        print(f"error: cannot write '{out_path}' and '{frontier_path}': {exc}",
              file=sys.stderr)
        return 5
    print(f"{len(region.points)} points -> {out_path}")
    print(f"{len(region.frontier)} frontier points -> {frontier_path}")
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
        # e.g. "", "." or "sub/.."; the frontier name derives from the file name
        if Path(out_path).name in ("", ".."):
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
