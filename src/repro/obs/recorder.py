"""The span/counter recorder at the heart of :mod:`repro.obs`.

A :class:`Recorder` collects three kinds of observations:

* **spans** — named intervals with a category and a track (a rank, a
  node, an executor lane), timed on whatever clock the *caller* reads —
  in the simulation packages that is always ``engine.now``, never the
  wall clock, so a trace is as deterministic as the curve it explains;
* **counters** — monotonically accumulated named totals
  (``sim.scheduled``, ``net.messages``, ``exec.cache.hit``);
* **histograms** — running summaries (count/total/min/max) of a named
  value stream (``net.bytes``).

The off switch is :data:`NULL_RECORDER`, a module-level
:class:`NullRecorder` whose ``enabled`` is a class attribute ``False``
and whose methods do nothing.  Every instrumentation hook in the hot
paths is written as::

    obs = self.obs            # bound once, at construction
    if obs.enabled:           # one attribute check when tracing is off
        obs.record(...)

so a sweep that nobody is watching pays one predictable branch per
hook site and allocates nothing (see
``benchmarks/test_bench_obs_overhead.py`` for the enforced <2% budget).

Recorders are plain picklable data (the optional ``clock`` callable is
dropped on pickling), so a worker process can trace a sweep and ship
the spans back across the :mod:`repro.exec` process pool.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Optional


class Span:
    """One named interval: ``[t0, t1]`` on one track.

    ``name`` says what happened (``mplib.rendezvous``, ``net.send``),
    ``cat`` which overhead bucket it belongs to (``handshake``,
    ``copy``, ``wire``, ``daemon``...), ``track`` who did it (rank or
    node index), and ``attrs`` carries free-form details (sizes, tags,
    roles).  A point event is a zero-length span (``t0 == t1``).
    """

    __slots__ = ("name", "cat", "t0", "t1", "track", "attrs")

    def __init__(
        self,
        name: str,
        cat: str = "",
        t0: float = 0.0,
        t1: float = 0.0,
        track: int = 0,
        attrs: Optional[Mapping[str, Any]] = None,
    ):
        if t1 < t0:
            raise ValueError(f"span ends before it starts ({t0!r} -> {t1!r})")
        self.name = name
        self.cat = cat
        self.t0 = t0
        self.t1 = t1
        self.track = track
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}

    @property
    def duration(self) -> float:
        """Length of the interval in simulated seconds."""
        return self.t1 - self.t0

    @property
    def is_point(self) -> bool:
        """True for instantaneous events (``t0 == t1``)."""
        return self.t1 == self.t0

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form used by the JSONL exporter."""
        out: dict[str, Any] = {
            "name": self.name,
            "cat": self.cat,
            "t0": self.t0,
            "t1": self.t1,
            "track": self.track,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, cat={self.cat!r}, t0={self.t0!r}, "
            f"t1={self.t1!r}, track={self.track!r}, attrs={self.attrs!r})"
        )


class Histogram:
    """Running summary of one observed value stream."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def add(self, value: float) -> None:
        """Fold one observation into the summary."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, float]:
        """Plain-dict form used by the exporters."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, total={self.total!r})"


class _NullSpanContext:
    """The no-op context manager :meth:`NullRecorder.span` returns."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullRecorder:
    """The off switch: same interface as :class:`Recorder`, all no-ops.

    ``enabled`` is a *class* attribute, so the hot-path hook —
    ``if obs.enabled:`` — is a single attribute check that the
    interpreter resolves without touching instance state.
    """

    __slots__ = ()

    #: Hooks guard on this; False means every other method is dead code.
    enabled = False

    def record(self, name: str, cat: str = "", t0: float = 0.0,
               t1: float = 0.0, track: int = 0, **attrs: Any) -> None:
        """Discard a span."""

    def point(self, name: str, cat: str = "", t: float = 0.0,
              track: int = 0, **attrs: Any) -> None:
        """Discard a point event."""

    def count(self, name: str, n: float = 1) -> None:
        """Discard a counter increment."""

    def observe(self, name: str, value: float) -> None:
        """Discard a histogram observation."""

    def span(self, name: str, cat: str = "", track: int = 0,
             **attrs: Any) -> _NullSpanContext:
        """A reusable no-op context manager."""
        return _NULL_SPAN_CONTEXT


#: The module-level null recorder every engine starts with.
NULL_RECORDER = NullRecorder()


class _SpanContext:
    """Context manager produced by :meth:`Recorder.span`."""

    __slots__ = ("_recorder", "_name", "_cat", "_track", "_attrs", "_t0")

    def __init__(self, recorder: "Recorder", name: str, cat: str,
                 track: int, attrs: dict[str, Any]):
        self._recorder = recorder
        self._name = name
        self._cat = cat
        self._track = track
        self._attrs = attrs
        self._t0 = 0.0

    def __enter__(self) -> "_SpanContext":
        self._t0 = self._recorder.now()
        return self

    def __exit__(self, *exc: object) -> None:
        self._recorder.record(
            self._name, cat=self._cat, t0=self._t0,
            t1=self._recorder.now(), track=self._track, **self._attrs,
        )


class Recorder:
    """Collects spans, counters and histograms for one run.

    :param clock: optional zero-arg callable supplying the current time
        for :meth:`span`/:meth:`point` when no explicit time is given.
        The simulation engine installs ``engine.now`` here; leaving it
        ``None`` (the executor's wall-clock-free event log does) pins
        implicit times at 0.0.
    :param meta: free-form identification of the run (sweep label,
        library, config) carried into the exporters.
    """

    #: Hooks guard on this; True means record/count/observe are live.
    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        meta: Optional[Mapping[str, Any]] = None,
    ):
        self.clock = clock
        self.meta: dict[str, Any] = dict(meta) if meta else {}
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- recording ----------------------------------------------------------
    def now(self) -> float:
        """The recorder's idea of the current time (0.0 without a clock)."""
        return self.clock() if self.clock is not None else 0.0

    def record(self, name: str, cat: str = "", t0: float = 0.0,
               t1: float = 0.0, track: int = 0, **attrs: Any) -> Span:
        """Append a finished span with explicit times (the generator-safe
        form every simulation hook uses)."""
        span = Span(name, cat=cat, t0=t0, t1=t1, track=track,
                    attrs=attrs or None)
        self.spans.append(span)
        return span

    def point(self, name: str, cat: str = "", t: Optional[float] = None,
              track: int = 0, **attrs: Any) -> Span:
        """Append an instantaneous event (``t`` defaults to the clock)."""
        when = self.now() if t is None else t
        return self.record(name, cat=cat, t0=when, t1=when, track=track,
                           **attrs)

    def count(self, name: str, n: float = 1) -> None:
        """Accumulate ``n`` onto the named counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into the named histogram."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.add(value)

    def span(self, name: str, cat: str = "", track: int = 0,
             **attrs: Any) -> _SpanContext:
        """Context manager timing a block on the recorder's clock."""
        return _SpanContext(self, name, cat, track, attrs)

    # -- queries ------------------------------------------------------------
    def spans_by_cat(self, cat: str) -> list[Span]:
        """All spans in one category, in recording order."""
        return [s for s in self.spans if s.cat == cat]

    def time_span(self) -> tuple[float, float]:
        """(earliest start, latest end) across all spans; (0, 0) if empty."""
        if not self.spans:
            return (0.0, 0.0)
        return (
            min(s.t0 for s in self.spans),
            max(s.t1 for s in self.spans),
        )

    def merge(self, other: "Recorder") -> None:
        """Fold another recorder's observations into this one."""
        self.spans.extend(other.spans)
        for name, n in other.counters.items():
            self.count(name, n)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram()
            mine.count += hist.count
            mine.total += hist.total
            mine.min = min(mine.min, hist.min)
            mine.max = max(mine.max, hist.max)

    # -- pickling -----------------------------------------------------------
    def __getstate__(self) -> dict[str, Any]:
        """Drop the clock: a bound ``engine.now`` cannot (and need not)
        cross the process-pool boundary — spans carry explicit times."""
        state = self.__dict__.copy()
        state["clock"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Recorder {len(self.spans)} spans, "
            f"{len(self.counters)} counters, meta={self.meta!r}>"
        )


def merged(recorders: Iterable[Recorder],
           meta: Optional[Mapping[str, Any]] = None) -> Recorder:
    """One recorder holding every span/counter of ``recorders``."""
    out = Recorder(meta=meta)
    for rec in recorders:
        out.merge(rec)
    return out
