"""Event primitives for the simulation engine.

An :class:`Event` is a one-shot occurrence at a point in simulated time.
Processes wait on events by yielding them; the engine resumes the process
when the event fires.  Events carry a ``value`` (delivered to the waiting
process) and may instead fail with an exception, which is re-raised
inside the waiting process.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

# Event lifecycle states.
PENDING = 0  # created, not yet scheduled to fire
TRIGGERED = 1  # scheduled in the engine's heap, waiting for its turn
PROCESSED = 2  # fired; callbacks have run


class Event:
    """A one-shot occurrence that processes can wait on.

    Events start *pending*.  Calling :meth:`succeed` or :meth:`fail`
    triggers them: the engine schedules their callbacks to run at the
    current simulated time.  An event can only be triggered once.
    """

    __slots__ = ("engine", "callbacks", "_value", "_state", "_ok")

    def __init__(self, engine: "Engine"):  # noqa: F821 - circular typing
        self.engine = engine
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._state = PENDING
        self._ok = True

    # -- inspection -------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire (or has fired)."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        """True once the event has fired and its callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event fired with (or the exception, on failure)."""
        if self._state == PENDING:
            raise RuntimeError("value not available: event is pending")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``.

        ``delay`` defers the firing by that much simulated time; the
        default fires it at the current instant (still asynchronously,
        after the engine finishes the current step).
        """
        if self._state != PENDING:
            raise RuntimeError("event already triggered")
        self._state = TRIGGERED
        self._ok = True
        self._value = value
        self.engine._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception.

        The exception is raised inside every process waiting on the event.
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._state != PENDING:
            raise RuntimeError("event already triggered")
        self._state = TRIGGERED
        self._ok = False
        self._value = exception
        self.engine._schedule(self, delay)
        return self

    def _fire(self) -> None:
        """Run callbacks.  Called by the engine; do not call directly."""
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at t={self.engine.now:.6g}>"


class Timeout(Event):
    """An event that fires after a fixed delay of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None):  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        # Event.__init__ inlined: one Timeout per simulated wait.
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._state = TRIGGERED
        self._ok = True
        self.delay = delay
        engine._schedule(self, delay)


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_n_fired")

    def __init__(self, engine: "Engine", events: Iterable[Event]):  # noqa: F821
        super().__init__(engine)
        self.events = tuple(events)
        self._n_fired = 0
        if any(ev.engine is not engine for ev in self.events):
            raise ValueError("all events must belong to the same engine")
        if not self.events:
            self.succeed(())
            return
        for ev in self.events:
            if ev.processed:
                self._on_fire(ev)
            else:
                ev.callbacks.append(self._on_fire)

    def _on_fire(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> tuple:
        return tuple(ev.value for ev in self.events if ev.processed and ev.ok)


class AllOf(_Condition):
    """Fires when *all* of the given events have fired.

    Fails as soon as any constituent fails.
    """

    __slots__ = ()

    def _on_fire(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._n_fired += 1
        if self._n_fired == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires when *any one* of the given events fires."""

    __slots__ = ()

    def _on_fire(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self.succeed(event.value)


# Resolve the forward reference for type checkers without importing at
# module load time (engine imports events).
from typing import TYPE_CHECKING  # noqa: E402

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
