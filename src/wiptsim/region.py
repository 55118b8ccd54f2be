"""Rate-energy regions: exhaustive sweeps, Pareto frontiers, dominance."""

from array import array
from dataclasses import dataclass

import numpy as np

from .protocols import (
    InfeasibleControlsError,
    OperatingPoint,
    ProtocolControls,
    ProtocolId,
    enumerate_controls,
    evaluate,
)

_RATE, _HARVEST = 0, 1  # column indices; the five controls follow in field order


class _Points:
    """A protocol's operating points, kept as seven float64 columns.

    The columns hold the rate, the harvested power and the five controls
    in field order, 56 bytes a point.  ``OperatingPoint``s are built only
    when the store is indexed or iterated.
    """

    __slots__ = ("protocol", "columns")

    def __init__(self, protocol, columns):
        self.protocol = protocol
        self.columns = columns

    @classmethod
    def of(cls, points, protocol):
        """``points`` itself when it is a store, else a store holding its points."""
        if isinstance(points, cls):
            return points
        rows = [(p.rate, p.harvested_power, *p.controls) for p in points]
        table = np.array(rows, dtype=np.float64)
        return cls(protocol, tuple(table.reshape(-1, 7).T.copy()))

    def rows(self):
        """(rate, harvested power, five controls) float tuples, in order."""
        return zip(*map(memoryview, self.columns))  # boxes one row at a time

    def take(self, index):
        """A new store of the points at the given indices, in that order."""
        return _Points(self.protocol, tuple(column[index] for column in self.columns))

    def _point(self, row):
        rate, harvest, *controls = row
        return OperatingPoint(rate, harvest, ProtocolControls(*controls), self.protocol)

    def __len__(self):
        return len(self.columns[_RATE])

    def __iter__(self):
        return map(self._point, self.rows())

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return self._point([column.item(i) for column in self.columns])

    def __eq__(self, other):
        if not isinstance(other, _Points):
            return NotImplemented
        return self.protocol == other.protocol and all(
            map(np.array_equal, self.columns, other.columns))


class _Sink:
    """A sweep's rates and harvested powers, and the grid positions it rejected.

    Only these two floats are stored per swept tuple; the control columns
    are built from the grid's axes once the sweep ends.
    """

    __slots__ = ("rate", "harvest", "rejected")

    def __init__(self):
        self.rate, self.harvest, self.rejected = array("d"), array("d"), []

    def append(self, point):
        self.rate.append(point[0])
        self.harvest.append(point[1])

    def reject(self):
        self.rejected.append(len(self.rate) + len(self.rejected))

    def store(self, protocol, grid):
        """The swept points as a column store."""
        swept = (np.frombuffer(self.rate), np.frombuffer(self.harvest))
        return _Points(protocol, swept + grid.columns(self.rejected))


class DegenerateRegionError(RuntimeError):
    """Raised when a region holds no feasible operating point."""


@dataclass(frozen=True)
class RateEnergyRegion:
    """Swept operating points plus their Pareto-maximal frontier.

    Both are column stores (any sequence of points passed in is stored as
    one).  The frontier is sorted by ascending rate, which makes its
    harvested power strictly decreasing.
    """

    points: _Points
    frontier: _Points
    protocol: ProtocolId
    grid_points_per_axis: int

    def __post_init__(self):
        for name in ("points", "frontier"):
            object.__setattr__(self, name, _Points.of(getattr(self, name), self.protocol))


def sweep(scenario, protocol, grid_points_per_axis):
    """Evaluate the full control grid; infeasible tuples are skipped."""
    grid = enumerate_controls(protocol, grid_points_per_axis)
    points = _Sink()
    for controls in grid:
        try:
            points.append(evaluate(scenario, protocol, controls))
        except InfeasibleControlsError:
            points.reject()
    if not points.rate:
        raise DegenerateRegionError(
            f"every control tuple of protocol {protocol.value} is infeasible"
        )
    points = points.store(protocol, grid)
    return RateEnergyRegion(
        points=points,
        frontier=pareto(points),
        protocol=protocol,
        grid_points_per_axis=grid_points_per_axis,
    )


def _frontier(rate, harvest):
    """Indices of the Pareto-maximal points, by ascending rate (see pareto)."""
    # Rate falling, then harvest falling; lexsort is stable, so among equal
    # (rate, harvest) keys the first in input order comes first.  A point is
    # kept when its harvest beats every point sorted before it (Kung,
    # Luccio & Preparata, J. ACM 22(4), 1975).
    order = np.lexsort((-harvest, -rate))
    sorted_harvest = harvest[order]
    best_before = np.empty_like(sorted_harvest)
    best_before[:1] = -np.inf
    np.maximum.accumulate(sorted_harvest[:-1], out=best_before[1:])
    return order[sorted_harvest > best_before][::-1]


def pareto(points):
    """Pareto-maximal subset under (rate, harvested_power), ascending rate.

    A point is dropped when another point is at least as good in both
    coordinates and strictly better in one; exact duplicates collapse to
    their first occurrence in input order.  A column store gives a store;
    any other sequence gives a list of its own point objects.
    """
    if isinstance(points, _Points):
        return points.take(_frontier(points.columns[_RATE], points.columns[_HARVEST]))
    points = list(points)
    rate = np.fromiter((p.rate for p in points), np.float64, len(points))
    harvest = np.fromiter((p.harvested_power for p in points), np.float64, len(points))
    return [points[i] for i in _frontier(rate, harvest)]


def _column_max(region, k):
    if not region.points:
        raise DegenerateRegionError("region holds no points")
    return float(region.points.columns[k].max())


def max_rate(region):
    """Largest rate over the region's points."""
    return _column_max(region, _RATE)


def max_energy(region):
    """Largest harvested power over the region's points."""
    return _column_max(region, _HARVEST)


def dominates(a, b):
    """True when every frontier point of b is weakly dominated by a's frontier.

    One merge: a's frontier rises in rate, so the points of a at least as
    fast as a point q of b form a suffix, and q is dominated when the best
    harvest of that suffix reaches q's.
    """
    a_rate, a_harvest = a.frontier.columns[_RATE], a.frontier.columns[_HARVEST]
    b_rate, b_harvest = b.frontier.columns[_RATE], b.frontier.columns[_HARVEST]
    first = np.searchsorted(a_rate, b_rate)  # first point of a with rate >= q's
    if np.any(first == len(a_rate)):
        return False
    best_after = np.maximum.accumulate(a_harvest[::-1])[::-1]
    return bool(np.all(best_after[first] >= b_harvest))
