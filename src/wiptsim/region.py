"""Rate-energy regions: exhaustive sweeps, Pareto frontiers, dominance."""

from array import array
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .protocols import (
    InfeasibleControlsError,
    OperatingPoint,
    ProtocolControls,
    ProtocolId,
    _TABLE,
    _band_terms,
    enumerate_controls,
    evaluate,
)

_FRONTIER_BLOCK = 1 << 16  # rows the Pareto filter sorts at one go: bounds its temporaries
# _pinned(n): a one-level control's index column, n read-only zeros over one shared byte
_pinned = partial(np.ndarray, dtype=np.uint8, buffer=b"\0", strides=(0,))


def _finite(rate, harvest):  # the columns, once no point is inf or NaN: the order is total
    for i in np.flatnonzero(~np.isfinite([rate, harvest]).all(axis=0))[:1]:  # the first
        raise ValueError(f"point {i} is not finite: rate {rate[i]}, harvested power {harvest[i]}")
    return rate, harvest


def _index_dtype(levels):
    """The smallest unsigned dtype that indexes this many levels (uint8 up to 256)."""
    return np.min_scalar_type(max(levels - 1, 0))


class _Points:
    """A protocol's operating points: float64 rate and harvested power columns, and
    each control as an index column, in _index_dtype of its own level count, into
    its float64 levels (_pinned, no byte a point, for one level).  Levels are distinct
    by bits (-0.0 is not 0.0), so equal indices mean equal bits.  Only this module
    builds a store (``of``, ``_Sink.store``); ``OperatingPoint``s are built only when
    used.  Every point of a store is of its protocol."""

    __slots__ = ("protocol", "rate", "harvest", "levels", "index")

    def __init__(self, protocol, rate, harvest, levels=(), index=()):
        self.protocol, self.rate, self.harvest, self.levels, self.index = (
            protocol, rate, harvest, levels, index)

    @classmethod
    def of(cls, points, protocol):
        """``points`` itself when a store of ``protocol``, else a store holding its points."""
        if isinstance(points, cls) and points.protocol == protocol:
            return points
        rows = []
        for i, p in enumerate(points):  # one pass: points may be a generator
            if p.protocol != protocol:
                raise ValueError(f"point {i} is of protocol {p.protocol.value}, not {protocol.value}")
            rows.append((p.rate, p.harvested_power, *p.controls))
        rate, harvest, *controls = np.array(rows, dtype=np.float64).reshape(-1, 7).T.copy()
        levels, index = zip(*(np.unique(c.view(np.int64), return_inverse=True) for c in controls))
        return cls(protocol, *_finite(rate, harvest), tuple(bits.view(np.float64) for bits in levels),
                   tuple(_pinned(len(i)) if len(bits) == 1 else i.astype(_index_dtype(len(bits)))
                         for i, bits in zip(index, levels)))

    # rate, harvested power and the controls as seven float64 columns, built on demand
    columns = property(lambda self: (self.rate, self.harvest,
                                     *map(np.take, self.levels, self.index)))

    def rows(self):
        """(rate, harvested power, five controls) float tuples, in order."""
        return zip(*map(memoryview, self.columns))  # boxes one row at a time

    def take(self, index):
        """A new store of the points at the given indices (or slice), in that order."""
        rate = self.rate[index]
        return _Points(self.protocol, rate, self.harvest[index], self.levels,
                       tuple(_pinned(len(rate)) if len(levels) == 1 else column[index]
                             for levels, column in zip(self.levels, self.index)))

    def _point(self, row):
        rate, harvest, *controls = row
        return OperatingPoint(rate, harvest, ProtocolControls(*controls), self.protocol)

    def __len__(self):
        return len(self.rate)

    def __iter__(self):
        return map(self._point, self.rows())

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return self._point([self.rate.item(i), self.harvest.item(i),
                            *(v.item(k.item(i)) for v, k in zip(self.levels, self.index))])

    def __eq__(self, other):
        if not isinstance(other, _Points):
            return NotImplemented
        return self.protocol == other.protocol and all(
            map(np.array_equal, self.columns, other.columns))


class _Sink:
    """A sweep's rates and harvested powers (two floats a tuple) and rejected grid
    positions (eight bytes each); the index columns come from the axes at the end."""

    __slots__ = ("rate", "harvest", "rejected")

    def __init__(self):
        self.rate, self.harvest, self.rejected = array("d"), array("d"), array("q")

    def append(self, point):
        self.rate.append(point[0])
        self.harvest.append(point[1])

    def reject(self):
        self.rejected.append(len(self.rate) + len(self.rejected))

    def store(self, protocol, axes):
        """The swept points as a column store over the grid's axes: a one-level axis
        (a pinned control) gets a _pinned index column, built over no grid."""
        shape = tuple(map(len, axes))
        index = [_pinned(len(self.rate))] * len(shape)
        for k, positions in enumerate(np.indices(shape, sparse=True)):
            if shape[k] > 1:
                column = np.empty(shape, _index_dtype(shape[k]))
                column[...] = positions  # each control's grid index, in its own width, in C order
                index[k] = np.delete(column, self.rejected) if self.rejected else column.reshape(-1)
        return _Points(protocol, np.frombuffer(self.rate), np.frombuffer(self.harvest),
                       tuple(np.array(axis, dtype=np.float64) for axis in axes), tuple(index))


class DegenerateRegionError(RuntimeError):
    """Raised when a region holds no feasible operating point."""


@dataclass(frozen=True)
class RateEnergyRegion:
    """Swept operating points plus their Pareto-maximal frontier, ``pareto(points)``.

    Both are column stores.  A sequence of points passed in is stored as one; each
    must be of ``protocol`` and finite, and ValueError names the first that is not.
    The frontier rises in rate, which makes its harvested power strictly fall.
    """

    points: _Points
    frontier: _Points = field(init=False)
    protocol: ProtocolId
    grid_points_per_axis: int

    def __post_init__(self):
        points = _Points.of(self.points, self.protocol)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "frontier", pareto(points))


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
    return RateEnergyRegion(points.store(protocol, grid.axes), protocol, grid_points_per_axis)


def _sorted_frontier(rate, harvest):
    """Indices of the Pareto-maximal points, by ascending rate (see pareto)."""
    # Rate falling (an argsort), then harvest falling (a lexsort of each run of equal rates),
    # stably, so the first of equal points comes first; keep those whose harvest tops all before.
    work = np.negative(rate)  # reused below: np.take's "clip" mode fills it unbuffered
    order = work.argsort(kind="stable")
    np.take(rate, order, out=work, mode="clip")  # the rates in that order
    tied = np.zeros(len(work), dtype=bool)  # the positions in runs
    tied[1:] = work[1:] == work[:-1]  # each equal to the one before
    tied[:-1] |= tied[1:]  # ufuncs read overlapping operands as if apart
    runs = order[tied]
    order[tied] = runs[np.lexsort((runs, -harvest[runs], -rate[runs]))]
    del tied, runs  # before the filter's arrays
    sorted_harvest = np.take(harvest, order, out=work, mode="clip")
    best_before = np.empty_like(sorted_harvest)
    best_before[:1] = -np.inf
    np.maximum.accumulate(sorted_harvest[:-1], out=best_before[1:])
    return order[sorted_harvest > best_before][::-1]


def _frontier(blocks):
    """_sorted_frontier of (first row, rate, harvest) blocks laid end to end: the
    frontier of the blocks' frontiers (Kung, Luccio & Preparata, J. ACM 22(4),
    1975).  Those hold no two equal points and stay in block order, so the
    first of equal points is still the one kept."""
    kept, survivors = [], []
    for start, *block in blocks:
        index = _sorted_frontier(*block)
        kept.append(start + index)
        survivors.append([column[index] for column in block])
    if len(kept) == 1:  # one block's frontier is the whole frontier
        return kept[0]
    return np.concatenate(kept)[_sorted_frontier(*np.concatenate(survivors, axis=1))]


def _blocks(rate, harvest):  # at least one, so an empty input has an empty frontier
    return ((k, rate[k:k + _FRONTIER_BLOCK], harvest[k:k + _FRONTIER_BLOCK])
            for k in range(0, len(rate) or 1, _FRONTIER_BLOCK))


def pareto(points):
    """Pareto-maximal subset under (rate, harvested_power), ascending rate.

    A point is dropped when another point is at least as good in both coordinates
    and strictly better in one; exact duplicates collapse to their first occurrence
    in input order.  A column store gives a store; any other sequence gives a list of
    its own point objects, and ValueError at its first inf or NaN rate or harvest.
    """
    if isinstance(points, _Points):
        return points.take(_frontier(_blocks(points.rate, points.harvest)))
    points = list(points)
    rate = np.fromiter((p.rate for p in points), np.float64, len(points))
    harvest = np.fromiter((p.harvested_power for p in points), np.float64, len(points))
    return [points[i] for i in _frontier(_blocks(*_finite(rate, harvest)))]


def _frontier_end(region, column, end):
    if not region.frontier:
        raise DegenerateRegionError("region holds no points")
    return float(getattr(region.frontier, column)[end])


def max_rate(region):
    """Largest rate over the region's points: its last frontier point's."""
    return _frontier_end(region, "rate", -1)


def max_energy(region):
    """Largest harvested power over the region's points: its first frontier point's."""
    return _frontier_end(region, "harvest", 0)


def dominates(a, b):
    """True when every frontier point of b is weakly dominated by a's frontier.

    One merge: a's frontier rises in rate, so the points of a at least as
    fast as a point q of b form a suffix, and q is dominated when the best
    harvest of that suffix reaches q's.
    """
    a_rate, a_harvest = a.frontier.rate, a.frontier.harvest
    b_rate, b_harvest = b.frontier.rate, b.frontier.harvest
    first = np.searchsorted(a_rate, b_rate)  # first point of a with rate >= q's
    if np.any(first == len(a_rate)):
        return False
    best_after = np.maximum.accumulate(a_harvest[::-1])[::-1]
    return bool(np.all(best_after[first] >= b_harvest))


# A region known by its frontier alone: all that max_rate, max_energy and dominates read.
_FrontierOnly = namedtuple("_FrontierOnly", "frontier")


def _band_merge(scenario, protocol, grid_points_per_axis):
    """Point count and frontier-only region of a protocol.

    A protocol without the RF band is swept.  Each point of any other is a
    lightwave term plus an RF term (rf's lightwave term is (0.0, 0.0)), and
    Pareto(A + B) lies within Pareto(A) + Pareto(B) (Ehrgott, Multicriteria
    Optimization, 2005).  Correctly rounded addition never decreases when
    an addend grows, so the sums of the band frontiers, added in evaluate's
    order, have the full sweep's frontier values bit for bit.  The sums are
    built and filtered a block of lightwave rows by every RF row at a time
    (about _FRONTIER_BLOCK sums), never all at once.  Errors are sweep's.
    """
    if _TABLE[protocol].rf is None:
        region = sweep(scenario, protocol, grid_points_per_axis)
        return len(region.points), _FrontierOnly(region.frontier)
    feasible, lightwave, rf = _band_terms(scenario, protocol, grid_points_per_axis)
    if rf is None:
        raise DegenerateRegionError(
            f"every control tuple of protocol {protocol.value} is infeasible"
        )
    count = int(feasible.sum()) * len(rf)
    lightwave, rf = (terms[_frontier(_blocks(*terms.T))] for terms in (lightwave[feasible], rf))
    rows = max(1, _FRONTIER_BLOCK // len(rf))
    kept = _frontier((k * len(rf), *(lightwave[k:k + rows, None] + rf).reshape(-1, 2).T)
                     for k in range(0, len(lightwave), rows))
    frontier = lightwave[kept // len(rf)] + rf[kept % len(rf)]  # the kept sums, rebuilt
    return count, _FrontierOnly(_Points(protocol, *frontier.T))
