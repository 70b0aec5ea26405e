"""Measurement plumbing shared by the four workloads.

Nothing here imports :mod:`repro` at module level: ``run.py`` times the
first import of the program as part of set-up, so the harness must not
do it early.

* :class:`Tracer` keeps spans in memory (name, start, end, parent,
  request id) and patches the program's public entry points with
  span-recording wrappers for the traced run only; :meth:`Tracer.restore`
  puts every original back.
* :func:`package_self_times` groups a cProfile pass by ``repro.<package>``
  for the layers that run inside ``Engine.run``'s event loop and have no
  call boundary that can be timed from outside.
* :class:`HostSpeed` times a fixed reference loop inside every
  repetition of a workload, and :func:`e2e_figures` turns the
  repetitions into the end-to-end figures, read as on an uncontended
  host.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import hashlib
import math
import os
import pstats
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

#: Layers whose self time comes from the cProfile pass, by package.
PROFILED_PACKAGES = (
    "sim", "net", "mplib", "hw", "core", "fabric", "apps", "collectives",
    "scenario",
)

#: Store namespaces reported per layer (``store.<ns>.*``).
STORE_NAMESPACES = ("sweep", "scenario", "verdict", "ast", "summary")

#: Per-layer metrics only one workload's own code can measure; the
#: others never reach these layers and report 0 (no work, no time).
WORKLOAD_LAYER_NAMES = (
    "serve.hot_ratio", "serve.disk_ratio", "serve.computed",
    "serve.coalesced", "serve.shed", "serve.queue_ms", "serve.compute_ms",
    "serve.encode_us", "serve.speculation.warmed",
    "serve.speculation.useful_ratio", "loadgen.late_p99_ms",
    "loadgen.offered_rps", "loadgen.achieved_rps",
    "check.load_cold_s", "check.load_s", "check.analyze_s", "check.ast_hits",
    "check.summaries_reused", "verify.universe_s", "verify.cache_hits",
)


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    if len(data) == 1:
        return data[0]
    rank = (len(data) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


#: The reference loop's time on the host this benchmark was defined on
#: (2-vCPU x86 VM, Python 3.11) when that host was not contended.  It
#: only sets the unit of the normalised figures.
REFERENCE_S = 0.0019

#: Fixed source text the reference loop parses (stdlib work, like the
#: analyzer's).
_REFERENCE_SOURCE = "\n".join(
    f"def f{i}(a, b=1, *c, **d):\n"
    f"    x = [a * b + j for j in range({i})]\n"
    f"    return {{'k{i}': x, 'y': (a, b, c, d)}}\n"
    for i in range(10)
)


class _Event:
    __slots__ = ("t", "key", "value")

    def __init__(self, t: float, key: int, value: int) -> None:
        self.t, self.key, self.value = t, key, value


def _reference_loop() -> None:
    """A fixed mix of pure-Python and stdlib work shaped like the
    workloads: a heap of timed events with small objects and dict
    updates (the simulator), a JSON round trip (serving and the stores),
    and parsing plus pickling a module (the analyzer).  It runs no
    program code, so no change to the program can move it."""
    import ast
    import heapq
    import json
    import pickle

    heap = [(i * 0.5, i, _Event(i * 0.5, i, i)) for i in range(200)]
    heapq.heapify(heap)
    acc: dict[int, float] = {}
    for _ in range(1500):
        t, key, ev = heapq.heappop(heap)
        acc[key % 97] = acc.get(key % 97, 0.0) + ev.t * 1.0001
        heapq.heappush(heap, (t + 1.7, key + 200,
                              _Event(t + 1.7, key + 200, ev.value)))
    doc = {"points": [{"size": 2 ** (i % 24), "t": i * 1.1e-6, "mbps": i / 3}
                      for i in range(100)]}
    json.loads(json.dumps(doc))
    pickle.loads(pickle.dumps(ast.parse(_REFERENCE_SOURCE)))


class HostSpeed:
    """How fast this CPU runs right now, from a fixed reference loop.

    Each of the shared host's two vCPUs switches, on its own, between a
    fast state and a contended one that runs everything 1.3-2.7x
    slower, and stays in either for tens of seconds to minutes (process
    CPU time rises with wall time, so it is the CPU, not the scheduler).
    A whole run can fall in the contended state, so no statistic over
    the run's own timings removes it.  So each repetition of a workload
    is a *window*: :meth:`open` starts it, :meth:`tick` (called between
    the window's operations) times :func:`_reference_loop` every
    :attr:`interval` seconds, and :meth:`close` returns the window's
    slowness, the loop's median time in the window over
    :data:`REFERENCE_S`.  The workloads divide by it with exponent 1;
    across runs on that host their raw figures followed it with slopes
    of 0.64-1.0, so heavy contention is overcorrected by up to ~10%.
    """

    def __init__(self, interval: float = 0.3) -> None:
        self.interval = interval
        self.window: list[float] = []
        self._last = 0.0
        _reference_loop()  # first-call costs are not host speed

    def sample(self, n: int = 1) -> None:
        """Record ``n`` samples, each the fastest of three loops: the
        first loop after a program operation runs on caches the program
        left cold, by an amount that depends on the operation."""
        enabled = gc.isenabled()
        gc.disable()  # the program's heap must not slow the loop
        try:
            for _ in range(n):
                best = math.inf
                for _ in range(3):
                    t0 = time.perf_counter()
                    _reference_loop()
                    best = min(best, time.perf_counter() - t0)
                self.window.append(best)
        finally:
            if enabled:
                gc.enable()
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Sample if :attr:`interval` seconds passed since the last one."""
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    def open(self) -> None:
        self.window = []
        self.sample(2)

    def close(self) -> float:
        self.sample(2)
        return statistics.median(self.window) / REFERENCE_S


def e2e_figures(windows: list[dict], normalise: bool) -> dict[str, float]:
    """The end-to-end figures of a workload's repetitions.

    Every workload repeats one unit of work; each repetition is a
    window (see :class:`HostSpeed`) that records ``times`` (the unit's
    timed operations, the same sequence every time), ``cold`` and
    ``warm`` (its cold and warm passes, in seconds) and ``slowness``.
    With ``normalise`` each window's times are divided by its slowness.
    Each figure is then the median over the windows; the latency
    percentiles take each operation's median first.
    """
    def scale(w: dict) -> float:
        return w["slowness"] if normalise else 1.0

    ops = min(len(w["times"]) for w in windows)
    each = [median(w["times"][i] / scale(w) for w in windows)
            for i in range(ops)]
    return {
        "throughput_per_s": ops / median(sum(w["times"]) / scale(w)
                                         for w in windows),
        "p50_ms": percentile(each, 50) * 1e3,
        "p99_ms": percentile(each, 99) * 1e3,
        "cold_s": median(w["cold"] / scale(w) for w in windows),
        "warm_s": median(w["warm"] / scale(w) for w in windows),
    }


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_bytes(root: Path, suffix: str = "") -> int:
    """Total size of the files under ``root`` named ``*suffix``."""
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if not name.endswith(suffix):
                continue
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


def digest_of(parts: Iterable[str]) -> str:
    """SHA-256 over an ordered sequence of canonical strings."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None = None


_current_span: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
_current_request: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_request", default=None
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.thread_profiles: list = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _open(self, name: str) -> tuple[int, contextvars.Token]:
        index = len(self.spans)
        self.spans.append(Span(
            name, time.perf_counter(), 0.0, _current_span.get(),
            _current_request.get(),
        ))
        return index, _current_span.set(index)

    def _close(self, index: int, token: contextvars.Token) -> Span:
        _current_span.reset(token)
        span = self.spans[index]
        span.end = time.perf_counter()
        return span

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; returns its result."""
        index, token = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index, token)

    async def acall(self, name: str, request: int, coro_fn: Callable, *args):
        """Await ``coro_fn(*args)`` as the root span of one request."""
        req_token = _current_request.set(request)
        index, token = self._open(name)
        try:
            return await coro_fn(*args)
        finally:
            self._close(index, token)
            _current_request.reset(req_token)

    # -- patching -----------------------------------------------------------
    def patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner: Any, attr: str, name: str | Callable,
             after: Callable[[Any, tuple], None] | None = None) -> None:
        """Replace ``owner.attr`` (a function or method) by a wrapper that
        records a span around each call.

        ``name`` may be a function of the call's arguments;
        ``after(result, args)`` runs once the call returns, for counters
        that depend on the answer (hits, misses, events).
        """
        fn = owner.__dict__[attr]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index, token = tracer._open(name if isinstance(name, str)
                                        else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, token)
            if after is not None:
                after(result, args)
            return result

        self.patch(owner, attr, wrapper)

    def count_property(self, owner: type, attr: str, name: str) -> None:
        """Count every read of a property (no span: it is too small)."""
        prop = owner.__dict__[attr]
        tracer = self

        def fget(obj):
            tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return prop.fget(obj)

        self.patch(owner, attr, property(fget, doc=prop.__doc__))

    def profile_in_threads(self, owner: Any, attr: str) -> None:
        """Profile calls of ``owner.attr`` that run off the main thread.

        cProfile follows one thread; work the serving core hands to
        ``asyncio.to_thread`` gets a profiler of its own per call, and
        :attr:`thread_profiles` collects them for
        :func:`package_self_times`.
        """
        import cProfile
        import threading

        original = owner.__dict__[attr]
        local = threading.local()
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if (threading.current_thread() is threading.main_thread()
                    or getattr(local, "active", False)):
                return original(*args, **kwargs)
            profile = cProfile.Profile()
            local.active = True
            profile.enable()
            try:
                return original(*args, **kwargs)
            finally:
                profile.disable()
                local.active = False
                tracer.thread_profiles.append(profile)

        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------
    def engine_events(self) -> int:
        """Engine events simulated so far (sweeps and scenarios)."""
        return (self.counts.get("sim.events.sweep", 0)
                + self.counts.get("sim.events.scenario", 0))

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.by_name(name)]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def write_jsonl(self, path: Path) -> None:
        """Write every span, one JSON object per line (run end only)."""
        import json

        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "request": s.request,
                }) + "\n")

    def has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False


def instrument_program(tracer: Tracer) -> None:
    """Patch the public entry points and stores every workload goes through.

    Called only for the traced run; the untraced run executes the
    program exactly as shipped.
    """
    import repro.analytic as analytic
    import repro.exec as rexec
    import repro.exec.scheduler as scheduler
    import repro.scenario.runner as runner
    import repro.serve.core as serve_core
    from repro.check.dataflow import SummaryCache
    from repro.check.project import AstCache
    from repro.exec.cache import SweepCache
    from repro.hw.cluster import ClusterConfig
    from repro.scenario.runner import ScenarioStore
    from repro.verify.cache import VerdictCache

    def count_hit(ns: str | Callable) -> Callable:
        def after(result, args) -> None:
            space = ns if isinstance(ns, str) else ns(args)
            outcome = "misses" if result is None else "hits"
            tracer.count(f"store.{space}.{outcome}")
        return after

    # SweepCache.get/put serve both the sweep and the scenario store
    # (ScenarioStore subclasses it and overrides only put).
    def sweep_ns(args) -> str:
        return "scenario" if isinstance(args[0], ScenarioStore) else "sweep"

    tracer.wrap(SweepCache, "get", lambda a: f"store.{sweep_ns(a)}.get",
                after=count_hit(sweep_ns))
    tracer.wrap(SweepCache, "put", "store.sweep.put")
    tracer.wrap(ScenarioStore, "put", "store.scenario.put")
    for cls, ns in ((VerdictCache, "verdict"), (AstCache, "ast"),
                    (SummaryCache, "summary")):
        tracer.wrap(cls, "get", f"store.{ns}.get", after=count_hit(ns))
        tracer.wrap(cls, "put", f"store.{ns}.put")

    # Every caller reaches the executor through a module attribute: the
    # benchmark through repro.exec, execute_sweeps through the scheduler
    # module, the serving core through its own import.
    for module in (rexec, scheduler, serve_core):
        tracer.wrap(module, "execute_with_policy", "exec.dispatch",
                    after=lambda out, _a: tracer.count(
                        "sim.events.sweep", out[1].events_processed))
    tracer.wrap(scheduler.SweepRequest, "fingerprint", "exec.fingerprint")
    for module in (scheduler, serve_core):
        tracer.wrap(module, "plan_tiers", "exec.plan_tiers")
    tracer.wrap(analytic, "predict_sweep", "analytic.predict")
    tracer.wrap(runner, "compose_run", "scenario.compose",
                after=lambda run, _a: tracer.count("sim.events.scenario",
                                                   run.events_processed))
    # run_scenario recurses through the module global for the quiet
    # twin, so the nested call lands in this wrapper too.
    tracer.wrap(runner, "run_scenario", "scenario.run")
    tracer.count_property(ClusterConfig, "pci_bandwidth",
                          "hw.pci_bandwidth_calls")


def package_self_times(profiles: list) -> dict[str, float]:
    """cProfile self (``tottime``) seconds grouped by ``repro.<package>``.

    Everything outside ``repro`` (stdlib, numpy, json, builtins, this
    harness) lands in ``other``; ``repro`` modules outside the listed
    layers land under their own package name and are ignored by callers
    that do not ask for them.
    """
    stats = pstats.Stats(profiles[0])
    for profile in profiles[1:]:
        stats.add(profile)
    out: dict[str, float] = {}
    marker = os.sep + "repro" + os.sep
    for (filename, _line, _func), row in stats.stats.items():
        tottime = row[2]
        key = "other"
        idx = filename.rfind(marker)
        if idx >= 0 and os.sep + "src" + os.sep in filename:
            rest = filename[idx + len(marker):]
            key = rest.split(os.sep, 1)[0]
            if key.endswith(".py"):
                key = "repro"
        out[key] = out.get(key, 0.0) + tottime
    return out


def layer_metrics(tracer: Tracer, self_times: dict[str, float]) -> dict:
    """The per-layer metrics every workload reports from a traced run.

    Layers the workload never reaches read 0 (no work, no time).
    """
    m: dict[str, float] = dict.fromkeys(WORKLOAD_LAYER_NAMES, 0.0)
    m["host.nproc"] = os.cpu_count() or 1
    for pkg in PROFILED_PACKAGES:
        m[f"{pkg}.self_s"] = self_times.get(pkg, 0.0)
    m["other.self_s"] = self_times.get("other", 0.0)

    m["sim.events"] = tracer.engine_events()
    m["scenario.events"] = tracer.counts.get("sim.events.scenario", 0)
    m["scenario.compose_s"] = tracer.total("scenario.compose")
    m["scenario.quiet_twin_s"] = sum(
        s.end - s.start for s in tracer.by_name("scenario.run")
        if tracer.has_ancestor(s, "scenario.run")
    )
    m["hw.pci_bandwidth_calls"] = tracer.counts.get(
        "hw.pci_bandwidth_calls", 0)

    m["exec.dispatch_s"] = self_times.get("exec", 0.0)
    fps = tracer.durations("exec.fingerprint")
    m["exec.fingerprint_calls"] = len(fps)
    m["exec.fingerprint_us"] = percentile(fps, 50) * 1e6 if fps else 0.0
    plans = tracer.durations("exec.plan_tiers")
    m["exec.plan_tiers_us"] = percentile(plans, 50) * 1e6 if plans else 0.0

    predicts = tracer.durations("analytic.predict")
    m["analytic.calls"] = len(predicts)
    m["analytic.predict_us"] = (
        percentile(predicts, 50) * 1e6 if predicts else 0.0
    )

    for ns in STORE_NAMESPACES:
        gets = tracer.durations(f"store.{ns}.get")
        puts = tracer.durations(f"store.{ns}.put")
        m[f"store.{ns}.get_ms"] = percentile(gets, 50) * 1e3 if gets else 0.0
        m[f"store.{ns}.put_ms"] = percentile(puts, 50) * 1e3 if puts else 0.0
        m[f"store.{ns}.hits"] = tracer.counts.get(f"store.{ns}.hits", 0)
        m[f"store.{ns}.misses"] = tracer.counts.get(f"store.{ns}.misses", 0)
        m[f"store.{ns}.bytes"] = 0
    return m


@dataclass
class Outcome:
    """What one timed phase produced, before it is turned into metrics.

    ``cpu_s`` is the process CPU time of the timed phase (all threads),
    which ``obs.trace_overhead_frac`` compares between the untraced and
    traced passes; wall time would hide the cost on the open loop, whose
    duration is fixed by its schedule.  ``windows`` holds the timed
    repetitions :func:`e2e_figures` reads (``run.py`` measures
    ``setup_s`` and ``peak_rss_mb`` itself); ``engine_s`` is the host
    time of the timed operations that drive the engine and ``events``
    the engine events those operations simulated (counted in the traced
    pass only), whose ratio is ``sim.us_per_event``; ``layer`` holds
    per-layer values only the workload can see; ``cache_roots`` maps a
    store namespace to the directory whose size is ``store.<ns>.bytes``.
    """

    attempted: int
    failed: int
    cpu_s: float
    engine_s: float = 0.0
    events: int = 0
    windows: list[dict] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    cache_roots: dict[str, Path] = field(default_factory=dict)


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}
