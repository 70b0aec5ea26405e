"""The N-node network: per-node ports, a crossbar, pairwise endpoints.

Model: a non-blocking crossbar switch (no internal contention — true of
the small Myrinet/Giganet/GigE switches of the era at these port
counts) with one full-duplex link per node.  A message therefore holds
**both** its source's TX port and its destination's RX port for its
occupancy (cut-through approximation): two senders to one destination
serialise at the destination's RX port; one sender to two destinations
serialises at its own TX port; disjoint pairs proceed in parallel.

``PairEndpoint`` gives one ordered (me, peer) pair the same send/recv
interface as the two-node :class:`~repro.net.channel.Endpoint`, so the
protocol models in :mod:`repro.mplib` run unmodified over the fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.fabric.topology import Crossbar, TopologyPorts, TwoTierTree
from repro.net.base import LinkModel
from repro.sim import Engine, Event, Resource, Store


@dataclass
class FabricMessage:
    """One message in flight between two ranks."""

    src: int
    dst: int
    tag: str
    size: int
    meta: dict = field(default_factory=dict)
    sent_at: float = 0.0
    delivered_at: float = 0.0


class Fabric:
    """N nodes joined by one interconnect model.

    ``topology`` defaults to a non-blocking crossbar; pass a
    :class:`~repro.fabric.topology.TwoTierTree` to add leaf switches
    with contended uplinks (cascaded 2002 switches).
    """

    def __init__(
        self,
        engine: Engine,
        link: LinkModel,
        nranks: int,
        topology: Crossbar | TwoTierTree | None = None,
    ):
        if nranks < 2:
            raise ValueError("a fabric needs at least 2 ranks")
        self.engine = engine
        self.link = link
        self.nranks = nranks
        self.topology = topology or Crossbar()
        self._ports = (
            TopologyPorts(engine, self.topology, nranks)
            if isinstance(self.topology, TwoTierTree)
            else None
        )
        self._tx = [Resource(engine, 1) for _ in range(nranks)]
        self._rx = [Resource(engine, 1) for _ in range(nranks)]
        self.inboxes = [Store(engine) for _ in range(nranks)]
        self.messages_delivered = 0
        #: bound once: the engine's obs recorder (NULL_RECORDER when off)
        self.obs = engine.obs

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range 0..{self.nranks - 1}")

    # -- transfers ---------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        size: int,
        tag: str = "data",
        meta: Optional[dict] = None,
        deliver: bool = True,
    ) -> Generator:
        """Blocking injection of one message (generator).

        ``deliver=False`` is background load: the message holds the
        ports and the wire exactly as a delivered one, then is dropped —
        no latency leg, no inbox, no ``net.deliver`` span.
        """
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            raise ValueError("self-sends do not cross the fabric")
        if size < 0:
            raise ValueError("message size must be non-negative")
        msg = FabricMessage(
            src=src, dst=dst, tag=tag, size=size,
            meta=dict(meta or {}),
        )
        obs = self.obs
        if obs.enabled:
            t_queue = self.engine.now
        crossing = self._ports.crossing(src, dst) if self._ports else None
        tx_req = self._tx[src].request()
        yield tx_req
        held = [(self._tx[src], tx_req)]
        try:
            if crossing is not None:
                uplink, downlink = crossing
                up_req = uplink.request()
                yield up_req
                held.append((uplink, up_req))
                down_req = downlink.request()
                yield down_req
                held.append((downlink, down_req))
                msg.meta["inter_leaf"] = True
            rx_req = self._rx[dst].request()
            yield rx_req
            held.append((self._rx[dst], rx_req))
            msg.sent_at = self.engine.now
            occupancy = self.link.occupancy(size)
            if occupancy > 0:
                yield self.engine.timeout(occupancy)
        finally:
            for resource, req in held:
                resource.release(req)
        if obs.enabled:
            obs.record(
                "net.send", cat="wire", t0=t_queue, t1=self.engine.now,
                track=msg.src, size=msg.size, tag=msg.tag,
            )
            obs.count("net.messages")
            obs.observe("net.bytes", msg.size)
        if deliver:
            # Arm the latency timer from a zero-delay kick, not here:
            # events scheduled at this instant before the kick fires
            # keep their heap order ahead of it, so ties at the arrival
            # time resolve as they always have.
            self.engine.timeout(0.0, msg).callbacks.append(self._fly)
        return msg

    def _fly(self, kick: Event) -> None:
        """Injection done: start the message's latency leg."""
        msg = kick.value
        latency = self.link.latency0
        if msg.meta.get("inter_leaf") and isinstance(self.topology, TwoTierTree):
            latency += 2 * self.topology.uplink_latency
        timer = self.engine.timeout(latency, (msg, self.engine.now))
        timer.callbacks.append(self._land)

    def _land(self, timer: Event) -> None:
        """Latency leg done: the message reaches its inbox."""
        msg, t_flight = timer.value
        msg.delivered_at = self.engine.now
        self.messages_delivered += 1
        if self.obs.enabled:
            self.obs.record(
                "net.deliver", cat="wire", t0=t_flight,
                t1=self.engine.now, track=msg.dst, size=msg.size,
                tag=msg.tag,
            )
        self.inboxes[msg.dst].put(msg)

    def recv(
        self,
        dst: int,
        src: Optional[int] = None,
        tag: Optional[str] = None,
    ) -> Generator:
        """Blocking receive at ``dst``, optionally filtered."""
        self._check_rank(dst)

        def _filter(msg: FabricMessage) -> bool:
            if src is not None and msg.src != src:
                return False
            if tag is not None and msg.tag != tag:
                return False
            return True

        needs_filter = src is not None or tag is not None
        msg = yield self.inboxes[dst].get(_filter if needs_filter else None)
        return msg

    def pair(self, me: int, peer: int) -> "PairEndpoint":
        """A two-node-style endpoint view of one ordered pair."""
        return PairEndpoint(self, me, peer)

    def port_utilisation(self) -> list[tuple[float, float]]:
        """Per-rank (tx, rx) port busy fractions so far.

        The quickest way to find the hot port in a pattern study:
        a hotspot run shows the victim's RX pinned near 1.0 while
        everyone else idles.
        """
        return [
            (self._tx[r].utilisation(), self._rx[r].utilisation())
            for r in range(self.nranks)
        ]


class PairEndpoint:
    """Endpoint-compatible adapter for one (me, peer) rank pair.

    Exposes the same generator API as
    :class:`repro.net.channel.Endpoint`, so :class:`TcpLibEndpoint` and
    friends can run each pairwise conversation over the shared fabric.
    """

    def __init__(self, fabric: Fabric, me: int, peer: int):
        fabric._check_rank(me)
        fabric._check_rank(peer)
        if me == peer:
            raise ValueError("an endpoint pair needs two distinct ranks")
        self.fabric = fabric
        self.me = me
        self.peer_rank = peer

    @property
    def channel(self):  # interface parity with net.channel.Endpoint
        return self.fabric

    def send(self, size: int, tag: str = "data", meta: Optional[dict] = None):
        msg = yield from self.fabric.send(self.me, self.peer_rank, size, tag, meta)
        return msg

    def recv(self, tag: Optional[str] = None, match=None):
        def _filter(msg: FabricMessage) -> bool:
            if msg.src != self.peer_rank:
                return False
            if tag is not None and msg.tag != tag:
                return False
            if match is not None and not match(msg):
                return False
            return True

        msg = yield self.fabric.inboxes[self.me].get(_filter)
        return msg
