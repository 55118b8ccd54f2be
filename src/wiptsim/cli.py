"""Command-line surface: region sweeps to CSV, protocol comparison, safety report.

Exit codes: 0 success, 1 scenario file problem, 2 unknown protocol or bad
--grid, 3 degenerate region, 4 safety verdict failed.
"""

import argparse
import os
import sys
import uuid
from pathlib import Path

from .region import DegenerateRegionError, dominates, max_energy, max_rate, sweep
from .protocols import _TABLE, ProtocolId
from .safety import evaluate_safety
from .scenario import ScenarioError, parse_scenario

_PROTOCOLS = {p.value: p for p in ProtocolId}
# A baseline is a protocol that uses a single band.
_BASELINES = tuple(p for p in ProtocolId if sum(_TABLE[p].bands_on()) == 1)

CSV_HEADER = "protocol,alpha_nirl,tau_nirl,alpha_vl,tau_vl,rho_rf,rate_bps,harvested_w"


def _load_scenario(path):
    text = Path(path).read_text(encoding="utf-8")
    return parse_scenario(text)


def _csv_text(protocol, points):
    lines = [CSV_HEADER]
    for p in points:
        c = p.controls
        fields = (c.alpha_nirl, c.tau_nirl, c.alpha_vl, c.tau_vl, c.rho_rf,
                  p.rate, p.harvested_power)
        lines.append(protocol.value + "," + ",".join(f"{v:.8e}" for v in fields))
    return "\n".join(lines) + "\n"


def _write_atomic(path, text):
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"{target.name}.{uuid.uuid4().hex}.tmp")
    # open() creates the file with mode 0o666 less the umask, as a direct
    # write would; mkstemp would force 0o600.
    handle = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _frontier_path(out_path):
    out = Path(out_path)
    stem = out.name[:-4] if out.name.endswith(".csv") else out.name
    return out.with_name(stem + ".frontier.csv")


def cmd_region(scenario, protocol, grid, out_path):
    region = sweep(scenario, protocol, grid)
    _write_atomic(out_path, _csv_text(protocol, region.points))
    frontier_path = _frontier_path(out_path)
    _write_atomic(frontier_path, _csv_text(protocol, region.frontier))
    print(f"{len(region.points)} points -> {out_path}")
    print(f"{len(region.frontier)} frontier points -> {frontier_path}")
    return 0


def cmd_compare(scenario, grid):
    regions = {}
    for protocol in ProtocolId:
        regions[protocol] = sweep(scenario, protocol, grid)
    header = f"{'protocol':<10}{'points':>8}{'max_rate_bps':>16}{'max_energy_w':>16}"
    header += "".join(f"{'dom_' + b.value:>10}" for b in _BASELINES)
    print(header)
    for protocol, region in regions.items():
        row = f"{protocol.value:<10}{len(region.points):>8}"
        row += f"{max_rate(region):>16.6e}{max_energy(region):>16.6e}"
        if protocol in _BASELINES:
            row += "".join(f"{'-':>10}" for _ in _BASELINES)
        else:
            for baseline in _BASELINES:
                row += f"{'yes' if dominates(region, regions[baseline]) else 'no':>10}"
        print(row)
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
        scenario = _load_scenario(args.scenario)
    except OSError as exc:
        print(f"error: cannot read scenario file '{args.scenario}': {exc}", file=sys.stderr)
        return 1
    except ScenarioError as exc:
        print(f"error: invalid scenario '{args.scenario}': {exc}", file=sys.stderr)
        return 1

    if args.command in ("region", "compare") and args.grid < 2:
        print(f"error: --grid must be at least 2, got {args.grid}", file=sys.stderr)
        return 2

    if args.command == "region":
        protocol = _PROTOCOLS.get(args.protocol.lower())
        if protocol is None:
            print(f"error: unknown protocol '{args.protocol}' "
                  f"(expected one of: {', '.join(_PROTOCOLS)})", file=sys.stderr)
            return 2
        out_path = args.out if args.out is not None else f"region_{protocol.value}.csv"
        try:
            return cmd_region(scenario, protocol, args.grid, out_path)
        except DegenerateRegionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    if args.command == "compare":
        try:
            return cmd_compare(scenario, args.grid)
        except DegenerateRegionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    return cmd_safety(scenario, args.dim)


if __name__ == "__main__":
    raise SystemExit(main())
