"""Result containers and curve analysis for NetPIPE sweeps."""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import Sequence

from repro.units import to_mbps, to_us


@dataclass(frozen=True, slots=True)
class NetPipePoint:
    """One measured point: message size and one-way time.

    Slotted: a curve holds dozens of points and the analytic tier builds
    curves by the thousand, so points carry no per-instance ``__dict__``.
    """

    size: int
    oneway_time: float  # seconds (RTT/2, NetPIPE convention)

    @property
    def mbps(self) -> float:
        """NetPIPE throughput in decimal megabits per second."""
        return to_mbps(self.size / self.oneway_time)

    @property
    def time_us(self) -> float:
        return to_us(self.oneway_time)


#: Slot setters for :func:`_bulk_points` (they bypass the frozen
#: ``__setattr__`` exactly as the generated ``__init__`` does).
_SET_SIZE = NetPipePoint.size.__set__
_SET_TIME = NetPipePoint.oneway_time.__set__


def _bulk_points(
    sizes: Sequence[int], oneway_times: Sequence[float]
) -> list[NetPipePoint]:
    """Points for parallel columns, built in C-level ``map`` passes.

    :class:`NetPipePoint`'s frozen-dataclass ``__init__`` (two
    ``object.__setattr__`` dispatches per point) would otherwise be the
    single largest cost of an analytic sweep.  The points are allocated
    and their two slots filled through the slot descriptors: the same
    state a normal construction leaves, so they are equal to (and
    indistinguishable from) normally constructed ones.
    """
    points = list(map(object.__new__, repeat(NetPipePoint, len(sizes))))
    deque(map(_SET_SIZE, points, sizes), maxlen=0)
    deque(map(_SET_TIME, points, oneway_times), maxlen=0)
    return points


@dataclass
class NetPipeResult:
    """A full NetPIPE curve for one library on one configuration.

    A result built by :meth:`from_columns` holds its (sizes, times)
    columns and makes its points on the first read of ``.points``:
    the analytic tier validates and caches whole curves without ever
    needing the point objects.  The columns stay the record of such a
    curve (results are never mutated once built).  Equality, ``repr``,
    canonical form and pickles are those of the materialized points.
    """

    library: str
    config: str
    points: list[NetPipePoint] = field(default_factory=list)

    def __post_init__(self) -> None:
        # attrgetter, not a lambda: results are built once per sweep but
        # sweeps are built by the thousand on the analytic tier, where
        # 66 Python-level key calls would be a measurable slice.
        self.points = sorted(self.points, key=attrgetter("size"))

    @classmethod
    def from_columns(
        cls,
        library: str,
        config: str,
        sizes: Sequence[int],
        oneway_times: Sequence[float],
    ) -> "NetPipeResult":
        """Bulk-build a result from parallel size/time columns.

        Columns already in ascending size order (every NetPIPE schedule)
        are kept as they are and become points lazily; others are
        sorted into points now, as ``__init__`` would.
        """
        if sorted(sizes) != list(sizes):
            return cls(library=library, config=config,
                       points=_bulk_points(sizes, oneway_times))
        result = cls.__new__(cls)
        result.library = library
        result.config = config
        result._columns = (sizes, oneway_times)
        return result

    def __getattr__(self, name: str):
        # Normal lookup failed: for ``points`` that means a from_columns
        # result read for the first time.  Two threads may both build
        # the points; setdefault keeps one list.
        columns = self.__dict__.get("_columns")
        if name == "points" and columns is not None:
            return self.__dict__.setdefault("points", _bulk_points(*columns))
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __getstate__(self) -> dict:
        # A lazy result pickles as its materialized twin: same bytes.
        return {"library": self.library, "config": self.config,
                "points": self.points}

    def columns(self) -> "tuple[Sequence[int], Sequence[float]]":
        """The curve as parallel (sizes, one-way times) columns.

        Free for a :meth:`from_columns` result, read or not; otherwise
        one walk over the points.
        """
        columns = self.__dict__.get("_columns")
        if columns is not None:
            return columns
        points = self.points
        return ([p.size for p in points], [p.oneway_time for p in points])

    # -- scalar summaries -------------------------------------------------------
    @property
    def latency_us(self) -> float:
        """Small-message latency: mean one-way time below 64 bytes."""
        small = [p for p in self.points if p.size < 64]
        if not small:
            raise ValueError("no sub-64-byte points; extend the schedule")
        return to_us(sum(p.oneway_time for p in small) / len(small))

    @property
    def max_mbps(self) -> float:
        """Peak throughput anywhere on the curve."""
        return max(p.mbps for p in self.points)

    @property
    def plateau_mbps(self) -> float:
        """Throughput at the largest measured size — the 'flattens out
        at' number the paper quotes for buffer-limited configurations
        (which can sit slightly below a small-message bump)."""
        return self.points[-1].mbps

    @property
    def max_size(self) -> int:
        """Largest measured message size."""
        return self.points[-1].size

    # -- lookup -------------------------------------------------------------------
    def point_at(self, size: int) -> NetPipePoint:
        """The measured point nearest to ``size``."""
        if not self.points:
            raise ValueError("empty result")
        sizes = [p.size for p in self.points]
        i = bisect.bisect_left(sizes, size)
        candidates = [j for j in (i - 1, i) if 0 <= j < len(self.points)]
        return min(
            (self.points[j] for j in candidates),
            key=lambda p: abs(p.size - size),
        )

    def mbps_at(self, size: int) -> float:
        """Throughput (Mb/s) at the measured point nearest ``size``."""
        return self.point_at(size).mbps

    # -- curve features --------------------------------------------------------
    def half_bandwidth_size(self) -> int:
        """Smallest measured size achieving half the peak throughput
        (NetPIPE's classic 'half-performance' metric)."""
        target = self.max_mbps / 2.0
        for p in self.points:
            if p.mbps >= target:
                return p.size
        raise AssertionError("unreachable: max point reaches its own half")

    def dips(self, min_depth: float = 0.05) -> list[tuple[int, float]]:
        """Local throughput dips of relative depth >= ``min_depth``.

        Returns ``[(size, depth), ...]`` where depth is the fractional
        drop from the running maximum at that size.  This is how the
        benchmarks detect the rendezvous-threshold dips the paper
        points at in figures 1 and 5.
        """
        out: list[tuple[int, float]] = []
        running_max = -math.inf
        for p in self.points:
            if p.mbps > running_max:
                running_max = p.mbps
                continue
            depth = 1.0 - p.mbps / running_max
            if depth >= min_depth:
                out.append((p.size, depth))
        return out

    def signature(self) -> list[tuple[float, float]]:
        """NetPIPE's network *signature graph*: throughput vs time.

        The classic NetPIPE companion plot — each point is (one-way
        transfer time in seconds, achieved Mb/s), sorted by time.  Its
        leftmost point is the latency bound, its top the bandwidth
        bound, and the area under it is Gustafson's single-figure
        merit for a network.
        """
        return sorted((p.oneway_time, p.mbps) for p in self.points)

    def signature_merit(self) -> float:
        """Area under the signature graph on a log-time axis.

        A single scalar that rewards both low latency (curve starts
        further left) and high bandwidth (curve rises higher) — the
        figure of merit the NetPIPE papers propose.  Units: Mb/s per
        decade of time.
        """
        import math

        sig = self.signature()
        if len(sig) < 2:
            raise ValueError("signature needs at least two points")
        area = 0.0
        for (t0, m0), (t1, m1) in zip(sig, sig[1:]):
            if t1 <= t0:
                continue
            area += 0.5 * (m0 + m1) * (math.log10(t1) - math.log10(t0))
        return area

    def fraction_of(self, other: "NetPipeResult", size: int | None = None) -> float:
        """This curve's throughput as a fraction of ``other``'s.

        With ``size=None``, compares peak throughputs (the paper's
        'delivers X % of what TCP offers').
        """
        if size is None:
            return self.max_mbps / other.max_mbps
        return self.mbps_at(size) / other.mbps_at(size)

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)
