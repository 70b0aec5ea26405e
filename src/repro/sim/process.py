"""Simulated processes: generators driven by the event engine.

A process is itself an :class:`~repro.sim.events.Event` that fires when
the generator returns, carrying the generator's return value.  This lets
processes wait on each other directly (``yield other_process``), which is
how the ping and pong sides of a NetPIPE trial synchronise.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.sim.engine import Engine, Interrupt, SimError
from repro.sim.events import PENDING, PROCESSED, Event


class Process(Event):
    """A running simulated activity.

    Created via :meth:`Engine.process`.  The wrapped generator yields
    events; each yielded event suspends the process until it fires, at
    which point the event's value is sent back into the generator (or its
    exception is thrown in).
    """

    __slots__ = ("generator", "_waiting_on", "_obs_t0")

    def __init__(self, engine: Engine, generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Engine.process() needs a generator, got {type(generator).__name__}"
            )
        # Event.__init__ inlined: one Process per non-blocking request
        # and per segment of the packet-level TCP model.
        self.engine = engine
        self.callbacks = []
        self._value = None
        self._state = PENDING
        self._ok = True
        self.generator = generator
        self._waiting_on: Event | None = None
        self._obs_t0 = 0.0
        if engine.obs.enabled:
            engine.obs.count("sim.process.started")
            self._obs_t0 = engine.now
        # Kick off the process asynchronously at the current instant.
        start = Event(engine)
        start.callbacks.append(self._resume)
        start.succeed(None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not yet returned or raised."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process stops waiting on whatever event it yielded (the event
        itself is untouched and may still fire later).
        """
        if self.triggered:
            raise RuntimeError("cannot interrupt a finished process")
        waited = self._waiting_on
        if waited is not None:
            try:
                waited.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._waiting_on = None
        # A failed kick event: _resume throws its value into the generator.
        kick = Event(self.engine)
        kick.callbacks.append(self._resume)
        kick.fail(Interrupt(cause))

    # -- internal ------------------------------------------------------------
    # Resumption runs once per yielded event, so the generator is stepped
    # inline here rather than through a helper taking a closure.
    def _resume(self, event: Event) -> None:
        if self._state != PENDING:
            return
        self._waiting_on = None
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                target = self.generator.throw(event._value)
        except BaseException as exc:
            self._finish(exc)
            return
        self._wait_for(target)

    def _finish(self, exc: BaseException) -> None:
        """The generator returned (``StopIteration``) or raised ``exc``."""
        obs = self.engine.obs
        if isinstance(exc, StopIteration):
            if obs.enabled:
                obs.count("sim.process.finished")
                obs.record(
                    "sim.process", cat="sim", t0=self._obs_t0,
                    t1=self.engine.now,
                    target=getattr(self.generator, "__name__", "?"),
                )
            self.succeed(exc.value)
            return
        if obs.enabled:
            obs.count("sim.process.failed")
        # The process died; propagate through anyone waiting on it.
        if not self.callbacks:
            raise exc
        self.fail(exc)

    def _wait_for(self, target: Any) -> None:
        """Suspend until ``target`` (the value just yielded) fires."""
        if not isinstance(target, Event):
            raise SimError(
                f"process yielded {target!r}; processes must yield Event "
                "instances (timeout(), resource.request(), store.get(), "
                "another process, ...)"
            )
        if target.engine is not self.engine:
            raise SimError("process yielded an event from a different engine")
        if target._state == PROCESSED:
            # Already fired: resume immediately (but asynchronously, to
            # preserve deterministic ordering).
            kick = Event(self.engine)
            kick.callbacks.append(lambda ev: self._resume(target))
            kick.succeed(None)
        else:
            target.callbacks.append(self._resume)
        self._waiting_on = target
