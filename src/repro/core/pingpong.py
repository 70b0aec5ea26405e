"""The ping-pong driver: NetPIPE's inner loop on simulated time.

One trial bounces a message of a given size A→B→A ``repeats`` times and
reports the mean round trip.  Throughput is computed NetPIPE-style from
RTT/2.  The driver works on any pair of
:class:`~repro.mplib.base.LibEndpoint` objects.
"""

from __future__ import annotations

from typing import Sequence

from repro.mplib.base import LibEndpoint
from repro.sim import Engine


def measure_pingpong(
    engine: Engine,
    a: LibEndpoint,
    b: LibEndpoint,
    size: int,
    repeats: int = 1,
) -> float:
    """One-way time (RTT/2) for ``size``-byte messages, in seconds."""
    return measure_sweep(engine, a, b, [size], repeats)[0][1]


def measure_streaming(
    engine: Engine,
    a: LibEndpoint,
    b: LibEndpoint,
    size: int,
    burst: int = 16,
) -> float:
    """NetPIPE streaming mode (-s): one-directional burst throughput.

    The sender fires ``burst`` messages back to back; the receiver
    drains them.  Returns sustained bytes/second, which for pipelined
    transports exceeds the ping-pong number because latency is paid
    once, not per message.
    """
    if burst < 1:
        raise ValueError("burst must be >= 1")
    result: dict[str, float] = {}

    def sender():
        for _ in range(burst):
            yield from a.send(size)

    def receiver():
        t0 = engine.now
        for _ in range(burst):
            yield from b.recv(size)
        result["elapsed"] = engine.now - t0

    pa = engine.process(sender())
    pb = engine.process(receiver())
    engine.run(until=engine.all_of([pa, pb]))
    if result["elapsed"] <= 0:
        raise RuntimeError("streaming burst completed in zero time")
    return burst * size / result["elapsed"]


def measure_bidirectional(
    engine: Engine,
    a: LibEndpoint,
    b: LibEndpoint,
    size: int,
    repeats: int = 4,
) -> float:
    """NetPIPE bidirectional mode (-2): simultaneous exchange.

    Both sides send and receive each round.  Returns the aggregate
    bytes/second moved (both directions), which on a full-duplex link
    approaches twice the one-directional rate — unless the library's
    progress engine or staging copies get in the way.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    result: dict[str, float] = {}

    def side(ep, name: str):
        t0 = engine.now
        for _ in range(repeats):
            send_proc = engine.process(ep.send(size))
            yield from ep.recv(size)
            yield send_proc
        result[name] = engine.now - t0

    pa = engine.process(side(a, "a"))
    pb = engine.process(side(b, "b"))
    engine.run(until=engine.all_of([pa, pb]))
    elapsed = max(result.values())
    return 2 * repeats * size / elapsed


def measure_sweep(
    engine: Engine,
    a: LibEndpoint,
    b: LibEndpoint,
    sizes: Sequence[int],
    repeats: int = 1,
) -> list[tuple[int, float]]:
    """Run the full schedule on one warm connection.

    Like NetPIPE, one ping process and one pong process walk the whole
    schedule; the ping side brackets each size's ``repeats`` round trips
    on the simulated clock.  Returns ``[(size, one_way_time_seconds),
    ...]`` in schedule order.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    out: list[tuple[int, float]] = []
    append = out.append
    # Bind the endpoint methods once; the generators below re-enter
    # these loops for every simulated event, so repeated attribute
    # lookups on the endpoints are measurable at high repeat counts.
    a_send, a_recv = a.send, a.recv
    b_send, b_recv = b.send, b.recv

    def pinger():
        for size in sizes:
            t0 = engine.now
            for _ in range(repeats):
                yield from a_send(size)
                yield from a_recv(size)
            append((size, (engine.now - t0) / repeats / 2.0))

    def ponger():
        for size in sizes:
            for _ in range(repeats):
                yield from b_recv(size)
                yield from b_send(size)

    pa = engine.process(pinger())
    pb = engine.process(ponger())
    engine.run(until=engine.all_of([pa, pb]))
    return out
