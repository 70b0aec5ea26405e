"""The discrete-event engine: a time-ordered heap of pending events.

The engine owns simulated time.  Nothing in the simulation consults the
wall clock; ``engine.now`` advances only when the engine pops the next
event off its heap.  Ties are broken by insertion order (a sequence
counter), which makes every run bit-for-bit deterministic.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, Optional

from repro.obs.recorder import NULL_RECORDER
from repro.sim.events import PROCESSED, Event, Timeout, AllOf, AnyOf


class SimError(Exception):
    """Raised for illegal simulation operations (deadlock, bad yields...)."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries whatever the interrupter supplied.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Engine:
    """Discrete-event simulation engine.

    Typical use::

        eng = Engine()

        def worker(eng):
            yield eng.timeout(1.5)
            return "done"

        proc = eng.process(worker(eng))
        eng.run()
        assert eng.now == 1.5 and proc.value == "done"
    """

    # The engine is instantiated per sweep and its attributes are read
    # on every event; __slots__ keeps instances small and lookups fast.
    __slots__ = ("_now", "_heap", "_seq", "events_processed", "obs", "_traced")

    def __init__(self, obs=None) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self.events_processed = 0
        #: repro.obs recorder every hook in the stack reads; the null
        #: recorder's class-level ``enabled = False`` keeps untraced
        #: runs to one attribute check per hook site.  Attach a real
        #: Recorder at construction only — layers bind it once.
        self.obs = NULL_RECORDER if obs is None else obs
        #: ``obs.enabled`` bound once for the per-event hooks below.
        self._traced = self.obs.enabled
        if self._traced and self.obs.clock is None:
            self.obs.clock = lambda: self._now

    # -- time --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention in this repo)."""
        return self._now

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def all_of(self, events) -> AllOf:
        """An event that fires when every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """An event that fires when any event in ``events`` fires."""
        return AnyOf(self, events)

    def process(self, generator: Generator) -> "Process":
        """Start a new simulated process running ``generator``."""
        return Process(self, generator)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        # Hot path: called for every event in the simulation.  The
        # zero-delay case (process resumption kicks, immediate
        # succeed()) skips the float add entirely.
        if delay:
            if delay < 0:
                raise ValueError(
                    f"cannot schedule into the past (delay={delay!r})"
                )
            when = self._now + delay
        else:
            when = self._now
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (when, seq, event))
        if self._traced:
            self.obs.count("sim.scheduled")

    # -- execution ------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event.  Raises SimError if none remain."""
        if not self._heap:
            raise SimError("no more events")
        t, _, event = heappop(self._heap)
        self._now = t
        self.events_processed += 1
        if self._traced:
            self.obs.count("sim.events")
        event._fire()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the heap drains, a time is reached, or an event fires.

        * ``until=None`` — run to exhaustion.
        * ``until=<float>`` — run until simulated time reaches that value.
        * ``until=<Event>`` — run until that event has fired; returns its
          value (re-raising its exception if it failed).
        """
        # The loops below inline step() and Event._fire() — one heappop
        # and one callback sweep per event, with the heap bound to a
        # local — because this is where a sweep spends nearly all of its
        # time.  ``events_processed`` is reconciled in ``finally`` so a
        # mid-run exception (a failed process re-raising) still leaves
        # the counter accurate.
        heap = self._heap
        processed = 0
        if self._traced:
            self.obs.count("sim.runs")
        if until is None:
            try:
                while heap:
                    t, _, event = heappop(heap)
                    self._now = t
                    processed += 1
                    event._state = PROCESSED
                    callbacks = event.callbacks
                    event.callbacks = []
                    for cb in callbacks:
                        cb(event)
            finally:
                self._count_run(processed)
            return None
        if isinstance(until, Event):
            target = until
            try:
                while target._state != PROCESSED:
                    if not heap:
                        raise SimError(
                            "deadlock: event heap drained before the awaited "
                            "event fired (a process is waiting on something "
                            "that can never happen)"
                        )
                    t, _, event = heappop(heap)
                    self._now = t
                    processed += 1
                    event._state = PROCESSED
                    callbacks = event.callbacks
                    event.callbacks = []
                    for cb in callbacks:
                        cb(event)
            finally:
                self._count_run(processed)
            if not target.ok:
                raise target.value
            return target.value
        horizon = float(until)
        if horizon < self._now:
            raise ValueError("cannot run() to a time in the past")
        try:
            while heap and heap[0][0] <= horizon:
                t, _, event = heappop(heap)
                self._now = t
                processed += 1
                event._state = PROCESSED
                callbacks = event.callbacks
                event.callbacks = []
                for cb in callbacks:
                    cb(event)
        finally:
            self._count_run(processed)
        self._now = max(self._now, horizon)
        return None

    def _count_run(self, processed: int) -> None:
        self.events_processed += processed
        if self._traced:
            self.obs.count("sim.events", processed)


# Imported last: repro.sim.process needs Engine, Interrupt and SimError
# from this module, and Engine.process needs Process on every call.
from repro.sim.process import Process  # noqa: E402
