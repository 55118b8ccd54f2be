"""Rate-energy regions: exhaustive sweeps, Pareto frontiers, dominance."""

import math
from dataclasses import dataclass
from operator import attrgetter

from .protocols import InfeasibleControlsError, OperatingPoint, ProtocolId, enumerate_controls, evaluate


class DegenerateRegionError(RuntimeError):
    """Raised when a region holds no feasible operating point."""


@dataclass(frozen=True)
class RateEnergyRegion:
    """Swept operating points plus their Pareto-maximal frontier.

    The frontier is sorted by ascending rate, which makes its harvested
    power strictly decreasing.
    """

    points: tuple
    frontier: tuple
    protocol: ProtocolId
    grid_points_per_axis: int


def sweep(scenario, protocol, grid_points_per_axis):
    """Evaluate the full control grid; infeasible tuples are skipped."""
    points = []
    for controls in enumerate_controls(protocol, grid_points_per_axis):
        try:
            points.append(evaluate(scenario, protocol, controls))
        except InfeasibleControlsError:
            continue
    if not points:
        raise DegenerateRegionError(
            f"every control tuple of protocol {protocol.value} is infeasible"
        )
    return RateEnergyRegion(
        points=tuple(points),
        frontier=tuple(pareto(points)),
        protocol=protocol,
        grid_points_per_axis=grid_points_per_axis,
    )


def pareto(points):
    """Pareto-maximal subset under (rate, harvested_power), ascending rate.

    A point is dropped when another point is at least as good in both
    coordinates and strictly better in one; exact duplicates collapse to
    their first occurrence in input order.
    """
    # A stable sort keeps input order among equal (rate, harvest) keys, so
    # the first of a run of duplicates is the one kept.
    order = sorted(points, key=attrgetter("rate", "harvested_power"), reverse=True)
    kept = []
    best_harvest = -math.inf
    for point in order:
        if point.harvested_power > best_harvest:
            kept.append(point)
            best_harvest = point.harvested_power
    kept.reverse()
    return kept


def max_rate(region):
    """Largest rate over the region's points."""
    if not region.points:
        raise DegenerateRegionError("region holds no points")
    return max(p.rate for p in region.points)


def max_energy(region):
    """Largest harvested power over the region's points."""
    if not region.points:
        raise DegenerateRegionError("region holds no points")
    return max(p.harvested_power for p in region.points)


def dominates(a, b):
    """True when every frontier point of b is weakly dominated by a's frontier."""
    return all(
        any(
            p.rate >= q.rate and p.harvested_power >= q.harvested_power
            for p in a.frontier
        )
        for q in b.frontier
    )
