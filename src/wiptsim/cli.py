"""Command-line surface: region sweeps to CSV, protocol comparison, safety report.

Exit codes: 0 success; 1 scenario file problem: a file that cannot be
read or is not UTF-8, a key out of the range declared beside its default
in scenario.py (such as a semi-angle outside the Lambertian domain), a
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
import itertools
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
# A baseline is a protocol that uses a single band.
_BASELINES = tuple(p for p in ProtocolId if sum(_TABLE[p].bands_on()) == 1)

CSV_HEADER = "protocol,alpha_nirl,tau_nirl,alpha_vl,tau_vl,rho_rf,rate_bps,harvested_w"


_CSV_BLOCK = 8192  # rows per block: amortises the numpy calls, bounds the boxed floats


def _csv_rows(store):
    """The CSV text of a region's column store in blocks of whole lines, header first.

    Each control level is formatted once.  Consecutive rows with the same first four
    control indices (levels are distinct by bits) form a run, whose line prefix is joined
    once and whose rate and harvest go through one %-template: "%.8e" % v == format(v, ".8e").
    """
    yield CSV_HEADER + "\n"
    texts = [[f"{v:.8e}" for v in levels.tolist()] for levels in store.levels]
    for start in range(0, len(store), _CSV_BLOCK):
        block = store.take(slice(start, start + _CSV_BLOCK))
        changed = np.any([column[1:] != column[:-1] for column in block.index[:4]], axis=0)
        runs = [0, *(np.flatnonzero(changed) + 1).tolist(), len(block)]
        fields = [None] * (3 * len(block))  # rho_rf text, rate, harvest of each row
        fields[0::3] = map(texts[4].__getitem__, block.index[4].tolist())
        fields[1::3] = block.rate.tolist()
        fields[2::3] = block.harvest.tolist()
        firsts = zip(*(map(text.__getitem__, column[runs[:-1]].tolist())
                       for text, column in zip(texts[:4], block.index)))
        yield "".join(
            (",".join([store.protocol.value, *first, "%s,%.8e,%.8e\n"])
             * (end - begin)) % tuple(fields[3 * begin:3 * end])
            for (begin, end), first in zip(itertools.pairwise(runs), firsts))


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


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        scenario = parse_scenario(Path(args.scenario).read_text(encoding="utf-8"))
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
