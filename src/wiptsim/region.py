"""Rate-energy regions: exhaustive sweeps, Pareto frontiers, dominance."""

import math
from array import array
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice

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

_FRONTIER_BLOCK = 1 << 16  # rows the Pareto filter sorts, tuples a streamed sweep holds, at one go
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
    positions (eight bytes each); index columns come from grid positions (``index``)."""

    __slots__ = ("protocol", "levels", "strides", "write", "start", "frontier",
                 "rate", "harvest", "rejected")

    def __init__(self, protocol, axes, write):
        self.protocol, self.write, self.start, self.frontier = protocol, write, 0, _Frontier()
        self.levels = tuple(np.array(axis, dtype=np.float64) for axis in axes)  # shared by each store
        self.strides = [math.prod(map(len, axes[k + 1:])) for k in range(len(axes))]
        self.rate, self.harvest, self.rejected = array("d"), array("d"), array("q")

    def append(self, point):
        self.rate.append(point[0])
        self.harvest.append(point[1])

    def reject(self):
        self.rejected.append(self.start + len(self.rate) + len(self.rejected))

    def blocks(self, grid):
        """The grid's tuples a block at a time; once a block's last is in, its points go
        to write as one store, only their frontier is kept, and the buffers start anew."""
        tuples = iter(grid)
        for self.start in range(0, len(grid), _FRONTIER_BLOCK):  # the block's first position
            yield islice(tuples, _FRONTIER_BLOCK)
            positions = self.positions(self.start, self.start + len(self.rate) + len(self.rejected))
            store = _Points(self.protocol, np.frombuffer(self.rate), np.frombuffer(self.harvest),
                            self.levels, self.index(positions))
            self.rate, self.harvest, self.rejected = array("d"), array("d"), array("q")
            self.write(store)
            self.frontier.push(positions, store.rate, store.harvest)
            del store  # and with it the block's buffers

    def positions(self, start, stop):
        """Grid positions start to stop, less the rejected ones."""
        if not self.rejected:
            return np.arange(start, stop)
        rejected = np.frombuffer(self.rejected, np.int64)
        return np.delete(np.arange(start, stop),
                         rejected[slice(*rejected.searchsorted((start, stop)))] - start)

    def index(self, positions):
        """Each control's index column at these grid positions: (position // stride) %
        levels, in the axis's own _index_dtype; _pinned for a one-level axis."""
        return tuple(_pinned(len(positions)) if len(levels) == 1 else
                     (positions // stride % len(levels)).astype(_index_dtype(len(levels)))
                     for levels, stride in zip(self.levels, self.strides))

    def store(self):
        """The swept points as one store; with write, the blocks' frontier candidates."""
        if self.write is not None:
            positions, rate, harvest = self.frontier.columns()
            return _Points(self.protocol, rate, harvest, self.levels, self.index(positions))
        count, stop = len(self.rate), len(self.rate) + len(self.rejected)
        index = tuple(_pinned(count) if len(levels) == 1 else
                      np.empty(count, _index_dtype(len(levels))) for levels in self.levels)
        at = 0  # the columns are filled a block of grid positions at a time
        for start in range(0, stop, _FRONTIER_BLOCK):
            positions = self.positions(start, min(start + _FRONTIER_BLOCK, stop))
            for column, part in zip(index, self.index(positions)):
                if column.flags.writeable:  # a _pinned column holds nothing to fill
                    column[at:at + len(part)] = part
            at += len(positions)
        return _Points(self.protocol, np.frombuffer(self.rate), np.frombuffer(self.harvest),
                       self.levels, index)


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


def sweep(scenario, protocol, grid_points_per_axis, write=None):
    """Evaluate the full control grid; infeasible tuples are skipped.

    Given ``write``, each block of _FRONTIER_BLOCK grid tuples goes to it, in grid
    order, as a column store of the block's points over the sweep's shared levels,
    and only the block's frontier is kept: the region's frontier is the full
    sweep's, bit for bit, and its points are just those frontier candidates.
    """
    grid = enumerate_controls(protocol, grid_points_per_axis)
    points = _Sink(protocol, grid.axes, write)
    for controls in grid if write is None else chain.from_iterable(points.blocks(grid)):
        try:
            points.append(evaluate(scenario, protocol, controls))
        except InfeasibleControlsError:
            points.reject()
    store = points.store()
    if not len(store):
        raise DegenerateRegionError(
            f"every control tuple of protocol {protocol.value} is infeasible"
        )
    return RateEnergyRegion(store, protocol, grid_points_per_axis)


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


def _pruned(columns):  # the frontier of (positions, rate, harvest), by ascending rate
    index = _sorted_frontier(*columns[1:])
    return [column[index] for column in columns]


class _Frontier(list):
    """The frontier of (positions, rate, harvest) blocks pushed in order, as parts that
    merge while the last two cover as many blocks (a binary counter): the frontier of
    their frontiers (Kung, Luccio & Preparata, J. ACM 22(4), 1975).  Parts stay in
    block order and hold no two equal points, so the first of equal points is kept."""

    def push(self, *block):
        self.append([1, *_pruned(block)])
        while len(self) > 1 and self[-2][0] == self[-1][0]:
            self._merge()

    def _merge(self):  # the last two parts as one
        (n, *a), (m, *b) = self[-2:]
        del self[-2:]
        for x, y in ((a, b), (b, a)):  # two staircases apart, the slower first, are one
            if len(x[1]) and len(y[1]) and x[1][-1] < y[1][0] and x[2][-1] > y[2][0]:
                return self.append([n + m, *map(np.concatenate, zip(x, y))])
        both = list(map(np.concatenate, zip(a, b)))
        del a, b
        self.append([n + m, *_pruned(both)])

    def columns(self):
        """The frontier's positions, rates and harvests, by ascending rate."""
        while len(self) > 1:
            self._merge()
        return self.pop()[1:]


def _frontier(blocks):
    """Positions of the frontier of (positions, rate, harvest) blocks, by ascending rate."""
    frontier = _Frontier()
    for block in blocks:
        frontier.push(*block)
    return frontier.columns()[0]


def _blocks(rate, harvest):  # at least one, so an empty input has an empty frontier
    return ((np.arange(k, min(k + _FRONTIER_BLOCK, len(rate))), rate[k:k + _FRONTIER_BLOCK],
             harvest[k:k + _FRONTIER_BLOCK]) for k in range(0, len(rate) or 1, _FRONTIER_BLOCK))


def pareto(points):
    """Pareto-maximal subset under (rate, harvested_power), ascending rate.

    A point is dropped when another point is at least as good in both coordinates
    and strictly better in one; exact duplicates collapse to their first occurrence
    in input order.  A column store gives a store; any other sequence gives a list of
    its own point objects, and ValueError at its first inf or NaN rate or harvest.
    """
    if isinstance(points, _Points):
        rate, harvest = points.rate, points.harvest
        if (rate[1:] > rate[:-1]).all() and (harvest[1:] < harvest[:-1]).all():
            return points.take(slice(None))  # a staircase, as a streamed sweep keeps, is its own
        return points.take(_frontier(_blocks(rate, harvest)))
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
    kept = _frontier((np.arange(k * len(rf), min(k + rows, len(lightwave)) * len(rf)),
                      *(lightwave[k:k + rows, None] + rf).reshape(-1, 2).T)
                     for k in range(0, len(lightwave), rows))
    frontier = lightwave[kept // len(rf)] + rf[kept % len(rf)]  # the kept sums, rebuilt
    return count, _FrontierOnly(_Points(protocol, *frontier.T))
