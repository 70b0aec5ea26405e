"""Background traffic generators: deterministic congestion on demand.

Each generator injects raw fabric messages (tag
:data:`~repro.scenario.spec.BACKGROUND_TAG`) from its participating
source ranks, competing with the foreground workload for TX/RX ports
and — on a two-tier tree — the shared uplinks.  They only steal wire
time: each message holds its ports for its occupancy and is then
dropped (``Fabric.send(..., deliver=False)``), never reaching an inbox,
so no receive can match it and no inbox scan walks past it.

``rate`` is offered load as a fraction of one TX port: a generator
paces each source so it occupies ``rate`` of its own link, using the
link model's per-message :meth:`~repro.net.base.LinkModel.occupancy`
(which includes protocol overheads) as the pacing unit.  Pacing is
closed-loop: when contention slows a send past its period the source
simply continues — offered load is capped, never queued unboundedly.

Three shapes, in the jsommers/fs spirit (traffic described as data,
synthesized by the harness):

* ``constant`` — each source picks a uniform-random other rank per
  message (the fabric's "uniform background wash");
* ``onoff`` — the same wash gated by an on/off burst cycle, the bursty
  aggregate of many short flows;
* ``alltoall`` — *subtractive* all-to-all: every source walks all
  other participants round-robin from a seeded offset, spreading its
  rate evenly across destinations — the steady bisection load that
  collapses oversubscribed uplinks, without simulating an actual
  collective's synchronisation.

All randomness comes from :class:`repro.apps.patterns.Lcg` streams
seeded from ``(spec seed, generator index, source rank)``: same spec,
same congestion, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Tuple

from repro.apps.patterns import Lcg
from repro.fabric import Fabric
from repro.scenario.spec import BACKGROUND_TAG, TrafficSpec


@dataclass
class FlowStats:
    """Mutable per-generator counters, filled while the engine runs.

    One instance per traffic block; every participating source rank
    accumulates into it.  The runner freezes these into
    :class:`~repro.scenario.result.FlowResult` entries afterwards.
    """

    name: str
    kind: str
    offered_rate: float
    messages: int = 0
    bytes: int = 0


def _mix_seed(seed: int, index: int, src: int) -> int:
    """One independent LCG stream per (spec seed, generator, source)."""
    return (seed * 1_000_003 + index * 10_007 + src) & (2**64 - 1)


def _constant_source(
    fabric: Fabric,
    src: int,
    size: int,
    period: float,
    rng: Lcg,
    stats: FlowStats,
) -> Generator:
    """Uniform-random background wash from one source, forever."""
    engine = fabric.engine
    nranks = fabric.nranks
    # Desynchronise sources: a seeded fraction of one period.
    yield engine.timeout(period * rng.next(1024) / 1024.0)
    while True:
        t0 = engine.now
        dst = rng.next(nranks - 1)
        dst = dst if dst < src else dst + 1  # exclude self
        yield from fabric.send(src, dst, size, tag=BACKGROUND_TAG,
                               deliver=False)
        stats.messages += 1
        stats.bytes += size
        gap = period - (engine.now - t0)
        if gap > 0:
            yield engine.timeout(gap)


def _onoff_source(
    fabric: Fabric,
    src: int,
    size: int,
    period: float,
    on_seconds: float,
    off_seconds: float,
    rng: Lcg,
    stats: FlowStats,
) -> Generator:
    """Bursty on/off wash from one source, forever."""
    engine = fabric.engine
    nranks = fabric.nranks
    cycle = on_seconds + off_seconds
    # Desynchronise burst phases across sources.
    yield engine.timeout(cycle * rng.next(1024) / 1024.0)
    while True:
        burst_end = engine.now + on_seconds
        while engine.now < burst_end:
            t0 = engine.now
            dst = rng.next(nranks - 1)
            dst = dst if dst < src else dst + 1
            yield from fabric.send(src, dst, size, tag=BACKGROUND_TAG,
                                   deliver=False)
            stats.messages += 1
            stats.bytes += size
            gap = period - (engine.now - t0)
            if gap > 0:
                yield engine.timeout(gap)
        yield engine.timeout(off_seconds)


def _alltoall_source(
    fabric: Fabric,
    src: int,
    size: int,
    period: float,
    destinations: Tuple[int, ...],
    rng: Lcg,
    stats: FlowStats,
) -> Generator:
    """Subtractive all-to-all from one source: round-robin over every
    other participant from a seeded offset, forever."""
    engine = fabric.engine
    yield engine.timeout(period * rng.next(1024) / 1024.0)
    index = rng.next(len(destinations))
    while True:
        t0 = engine.now
        dst = destinations[index % len(destinations)]
        index += 1
        yield from fabric.send(src, dst, size, tag=BACKGROUND_TAG,
                               deliver=False)
        stats.messages += 1
        stats.bytes += size
        gap = period - (engine.now - t0)
        if gap > 0:
            yield engine.timeout(gap)


def build_traffic(
    entry: TrafficSpec,
    index: int,
    seed: int,
    fabric: Fabric,
) -> Tuple[List[Generator], FlowStats]:
    """Generators (one per participating source) for one traffic block.

    The caller starts them as engine processes *before* the workload;
    they run until the engine stops iterating (background traffic has
    no natural end).  Returns the generators plus the shared
    :class:`FlowStats` they accumulate into.
    """
    participants = (
        entry.ranks if entry.ranks is not None else tuple(range(fabric.nranks))
    )
    occupancy = fabric.link.occupancy(entry.message_bytes)
    if occupancy <= 0:
        raise ValueError(
            f"traffic[{index}]: link model reports non-positive occupancy "
            f"({occupancy!r}) for {entry.message_bytes}-byte messages; "
            "cannot derive a pacing period"
        )
    period = occupancy / entry.rate
    stats = FlowStats(
        name=f"traffic[{index}]",
        kind=entry.kind,
        offered_rate=entry.rate,
    )
    generators: List[Generator] = []
    for src in participants:
        rng = Lcg(_mix_seed(seed, index, src))
        if entry.kind == "constant":
            generators.append(
                _constant_source(fabric, src, entry.message_bytes, period,
                                 rng, stats)
            )
        elif entry.kind == "onoff":
            generators.append(
                _onoff_source(fabric, src, entry.message_bytes, period,
                              entry.on_seconds, entry.off_seconds, rng,
                              stats)
            )
        elif entry.kind == "alltoall":
            destinations = tuple(r for r in participants if r != src)
            generators.append(
                _alltoall_source(fabric, src, entry.message_bytes, period,
                                 destinations, rng, stats)
            )
        else:  # pragma: no cover - spec validation is exhaustive
            raise AssertionError(entry.kind)
    return generators, stats
