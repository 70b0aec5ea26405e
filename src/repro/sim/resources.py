"""Shared resources: mutex-like Resources and message Stores.

These are the queueing primitives the network models are built from:

* :class:`Resource` — N interchangeable capacity units with a FIFO wait
  queue.  A link, a PCI bus, or a daemon's single service thread is a
  ``Resource(engine, capacity=1)``.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``.
  Socket receive queues and library unexpected-message queues are Stores.
* :class:`PriorityStore` — a Store that yields the smallest item first.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional

from repro.sim.engine import Engine
from repro.sim.events import PENDING, Event


class Request(Event):
    """Pending acquisition of resource capacity.  Fires when granted."""

    __slots__ = ("resource", "amount")

    def __init__(self, resource: "Resource", amount: int):
        # Event.__init__ inlined: one Request per port acquisition.
        self.engine = resource.engine
        self.callbacks = []
        self._value = None
        self._state = PENDING
        self._ok = True
        self.resource = resource
        self.amount = amount


class Resource:
    """``capacity`` interchangeable units with FIFO granting.

    Usage from a process::

        req = bus.request()
        yield req
        try:
            yield eng.timeout(transfer_time)
        finally:
            bus.release(req)
    """

    def __init__(self, engine: Engine, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.in_use = 0
        self._queue: deque[Request] = deque()
        # Accounting for utilisation reports.
        self._busy_time = 0.0
        self._last_change = 0.0

    def request(self, amount: int = 1) -> Request:
        """Ask for ``amount`` units; the returned event fires when granted."""
        if amount < 1 or amount > self.capacity:
            raise ValueError(
                f"request amount {amount} out of range 1..{self.capacity}"
            )
        req = Request(self, amount)
        self._queue.append(req)
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return the units granted to ``request``."""
        if request.resource is not self:
            raise ValueError("request belongs to a different resource")
        self._account()
        self.in_use -= request.amount
        if self.in_use < 0:
            raise RuntimeError("resource released more than acquired")
        self._grant()

    def utilisation(self) -> float:
        """Fraction of elapsed simulated time at least one unit was busy."""
        self._account()
        return self._busy_time / self.engine.now if self.engine.now > 0 else 0.0

    # -- internal ------------------------------------------------------------
    def _account(self) -> None:
        now = self.engine._now
        if self.in_use > 0:
            self._busy_time += now - self._last_change
        self._last_change = now

    def _grant(self) -> None:
        queue = self._queue
        while queue and self.in_use + queue[0].amount <= self.capacity:
            req = queue.popleft()
            self._account()
            self.in_use += req.amount
            req.succeed(req)


class Get(Event):
    """Pending retrieval from a Store.  Fires with the item."""

    __slots__ = ("filter",)

    def __init__(self, engine: Engine, filter: Optional[Callable[[Any], bool]]):
        super().__init__(engine)
        self.filter = filter


class Store:
    """Unbounded FIFO of items with blocking, optionally filtered, ``get``.

    ``put`` never blocks (the paper's socket-buffer backpressure is
    modelled in the transports, where the sizes matter, not here).
    A filter lets a receiver wait for a message matching (source, tag)
    while unrelated messages queue up — exactly MPI unexpected-message
    semantics.
    """

    def __init__(self, engine: Engine):
        self.engine = engine
        self._items: deque[Any] = deque()
        self._getters: deque[Get] = deque()

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the first matching waiting getter."""
        self._items.append(item)
        self._match()

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> Get:
        """Event that fires with the first item satisfying ``filter``."""
        ev = Get(self.engine, filter)
        self._getters.append(ev)
        self._match()
        return ev

    def __len__(self) -> int:
        return len(self._items)

    def peek_all(self) -> tuple:
        """Snapshot of queued items (for diagnostics/tests)."""
        return tuple(self._items)

    # -- internal ------------------------------------------------------------
    def _match(self) -> None:
        # Pair waiting getters with queued items, respecting FIFO order on
        # both sides but honouring filters.  Matches are removed by
        # position, so the getter receives exactly the queued object its
        # filter accepted (never a value-equal twin) and no item is
        # compared by value.
        items, getters = self._items, self._getters
        while getters and items:
            for g, getter in enumerate(getters):
                accept = getter.filter
                if accept is None:
                    i = 0
                    break
                for i, item in enumerate(items):
                    if accept(item):
                        break
                else:
                    continue
                break
            else:
                return
            item = items[i]
            del items[i]
            del getters[g]
            getter.succeed(item)


class PriorityStore(Store):
    """A Store that always hands out the smallest item first.

    Items must be mutually orderable; ``(priority, seq, payload)`` tuples
    are the usual shape.
    """

    def __init__(self, engine: Engine):
        super().__init__(engine)
        self._heap: list[Any] = []

    def put(self, item: Any) -> None:
        heapq.heappush(self._heap, item)
        self._match()

    def __len__(self) -> int:
        return len(self._heap)

    def peek_all(self) -> tuple:
        return tuple(sorted(self._heap))

    def _match(self) -> None:
        while self._getters and self._heap:
            getter = self._getters.popleft()
            if getter.filter is not None:
                raise ValueError("PriorityStore does not support filtered get")
            getter.succeed(heapq.heappop(self._heap))
