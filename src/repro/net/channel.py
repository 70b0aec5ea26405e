"""SimChannel: executes LinkModel transfers on the event engine.

A channel joins the two nodes of a cluster config through one
:class:`~repro.net.base.LinkModel`.  Each node gets an
:class:`Endpoint` whose ``send``/``recv`` are generators suitable for
``yield from`` inside a simulated process.

Timing contract (matches the analytic model exactly):

* a *blocking* send occupies the sender for ``link.occupancy(n)``
  (injection is serialised per direction — back-to-back sends queue);
* the message lands in the peer's inbox ``link.latency0`` after
  injection completes, i.e. ``transfer_time(n)`` after the send began
  on an idle channel;
* ``recv`` completes the moment the matching message lands (receive
  drain costs are part of the link's rate model; protocol-level staging
  copies are charged by the library layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from repro.sim import Engine, Event, Process, Resource, Store
from repro.net.base import LinkModel


@dataclass
class Message:
    """One protocol message in flight or delivered."""

    src: int
    dst: int
    tag: str
    size: int
    meta: dict = field(default_factory=dict)
    sent_at: float = 0.0
    delivered_at: float = 0.0


class Endpoint:
    """One node's handle on a SimChannel."""

    def __init__(self, channel: "SimChannel", node: int):
        self.channel = channel
        self.node = node
        self.inbox: Store = Store(channel.engine)

    @property
    def peer(self) -> "Endpoint":
        return self.channel.endpoints[1 - self.node]

    # -- sending ---------------------------------------------------------------
    def send(
        self, size: int, tag: str = "data", meta: Optional[dict] = None
    ) -> Generator:
        """Blocking send: returns when injection completes.

        Delivery to the peer happens ``latency0`` later in the
        background.
        """
        msg = self.channel._make_message(self.node, size, tag, meta)
        yield from self.channel._inject(msg)
        return msg

    def isend(
        self, size: int, tag: str = "data", meta: Optional[dict] = None
    ) -> Process:
        """Non-blocking send: returns a Process that completes when
        injection has finished (wait on it for MPI_Wait semantics)."""
        msg = self.channel._make_message(self.node, size, tag, meta)
        return self.channel.engine.process(self.channel._inject(msg))

    # -- receiving --------------------------------------------------------------
    def recv(
        self,
        tag: Optional[str] = None,
        match: Optional[Callable[[Message], bool]] = None,
    ) -> Generator:
        """Blocking receive of the next message matching tag/filter."""

        def _filter(msg: Message) -> bool:
            if tag is not None and msg.tag != tag:
                return False
            if match is not None and not match(msg):
                return False
            return True

        needs_filter = tag is not None or match is not None
        msg = yield self.inbox.get(_filter if needs_filter else None)
        return msg


class SimChannel:
    """A bidirectional connection between nodes 0 and 1."""

    def __init__(self, engine: Engine, link: LinkModel):
        self.engine = engine
        self.link = link
        self.endpoints = (Endpoint(self, 0), Endpoint(self, 1))
        # One injection pipeline per direction: concurrent sends from
        # the same node serialise; opposite directions are independent
        # (full duplex).
        self._wire = (Resource(engine, 1), Resource(engine, 1))
        self.messages_delivered = 0
        self.messages_dropped = 0
        #: optional wire-fault plan (duck-typed, normally a
        #: :class:`repro.faults.wire.WireFaultPlan`): consulted per
        #: injected message via ``action_for_message(src, tag, n)``.
        #: None (the default) costs one identity check per send.
        self.faults = None
        #: 1-based send counts per (src, tag), for fault matching
        self._sends_seen: dict[tuple[int, str], int] = {}
        #: bound once: the engine's obs recorder (NULL_RECORDER when off)
        self.obs = engine.obs

    def _make_message(
        self, src: int, size: int, tag: str, meta: Optional[dict]
    ) -> Message:
        if size < 0:
            raise ValueError("message size must be non-negative")
        return Message(
            src=src,
            dst=1 - src,
            tag=tag,
            size=size,
            meta=dict(meta or {}),
        )

    def _inject(self, msg: Message) -> Generator:
        obs = self.obs
        if obs.enabled:
            t_queue = self.engine.now
        wire = self._wire[msg.src]
        req = wire.request()
        yield req
        msg.sent_at = self.engine.now
        try:
            occupancy = self.link.occupancy(msg.size)
            if occupancy > 0:
                yield self.engine.timeout(occupancy)
        finally:
            wire.release(req)
        if obs.enabled:
            obs.record(
                "net.send", cat="wire", t0=t_queue, t1=self.engine.now,
                track=msg.src, size=msg.size, tag=msg.tag,
            )
            obs.count("net.messages")
            obs.observe("net.bytes", msg.size)
        if self.faults is not None:
            key = (msg.src, msg.tag)
            n = self._sends_seen[key] = self._sends_seen.get(key, 0) + 1
            action = self.faults.action_for_message(msg.src, msg.tag, n)
            if action == "drop":
                # Injection succeeded from the sender's point of view;
                # the message simply never lands in the peer's inbox.
                self.messages_dropped += 1
                if obs.enabled:
                    obs.count("net.dropped")
                    obs.point(
                        "net.drop", cat="fault", track=msg.src,
                        size=msg.size, tag=msg.tag,
                    )
                return msg
            if action == "corrupt":
                msg.meta["corrupted"] = True
                if obs.enabled:
                    obs.count("net.corrupted")
        # Arm the latency timer from a zero-delay kick, not here: events
        # scheduled at this instant before the kick fires keep their
        # heap order ahead of it, so ties at the arrival time resolve as
        # they always have.
        self.engine.timeout(0.0, msg).callbacks.append(self._fly)
        return msg

    def _fly(self, kick: Event) -> None:
        """Injection done: start the message's latency leg."""
        msg = kick.value
        timer = self.engine.timeout(self.link.latency0, (msg, self.engine.now))
        timer.callbacks.append(self._land)

    def _land(self, timer: Event) -> None:
        """Latency leg done: the message reaches the peer's inbox."""
        msg, t_flight = timer.value
        msg.delivered_at = self.engine.now
        self.messages_delivered += 1
        if self.obs.enabled:
            self.obs.record(
                "net.deliver", cat="wire", t0=t_flight,
                t1=self.engine.now, track=msg.dst, size=msg.size,
                tag=msg.tag,
            )
        self.endpoints[msg.dst].inbox.put(msg)
