"""Deterministic discrete-event simulation engine.

This is the clock that every simulated transport and message-passing
library in :mod:`repro` runs on.  It is a small, dependency-free engine
in the style of SimPy: simulated activities are Python generators that
``yield`` events (timeouts, resource requests, store gets...) and are
resumed by the engine when those events fire.

Design constraints that shaped it:

* **Determinism** — same inputs, same event order, same results.  Ties in
  the event heap are broken by a monotonically increasing sequence
  number, never by object identity.
* **Speed** — a sweep is almost all per-event engine work, so that work
  is kept small: ``Engine.run`` fires events inline, processes resume
  without a closure per resume, and stores match by position.  A cold
  figure 1-5 pass (29,366 events) takes about 0.09 s of CPU, ~3 us per
  event with the network and library layers included, on a 2-core x86
  host with Python 3.11 (docs/PERFORMANCE.md, "Simulation kernel").
* **Introspectability** — the engine counts events and exposes ``now`` so
  measurement code can bracket activities precisely.
"""

from repro.sim.engine import Engine, SimError, Interrupt
from repro.sim.events import Event, Timeout, AllOf, AnyOf
from repro.sim.process import Process
from repro.sim.resources import Resource, Store, PriorityStore

__all__ = [
    "Engine",
    "SimError",
    "Interrupt",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Process",
    "Resource",
    "Store",
    "PriorityStore",
]
