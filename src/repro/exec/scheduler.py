"""Parallel sweep executor: fan independent sweeps across cores.

Every curve of every figure is an independent simulation — each sweep
builds its own fresh :class:`~repro.sim.Engine` — so a multi-curve
experiment is embarrassingly parallel.  ``execute_sweeps`` takes a list
of :class:`SweepRequest` and returns the results **in request order**
regardless of completion order, optionally consulting a
:class:`~repro.exec.cache.SweepCache` first so repeated sweeps perform
zero simulation.

Two entry points share one execution core:

* :func:`execute_sweeps` — the historical batch call.  Each knob
  (``max_workers``, ``timeout``, ``retries``, ``backoff``, ``tier``)
  defaults to its ``$REPRO_EXEC_*`` environment variable
  (:mod:`repro.exec.knobs`); with everything unset the batch runs
  serially in-process on the sim tier, which is the right call for the
  small sweeps in the test suite.
* :func:`execute_with_policy` — the same core driven by a pre-resolved
  :class:`~repro.exec.ExecPolicy`.  Long-lived callers — the
  :mod:`repro.serve` query front end above all — resolve their policy
  once at startup and reuse it for every request batch.

Anything with ``max_workers > 1`` spins up a ``concurrent.futures``
process pool.  Parallel results are bit-identical to serial ones
because the engine never consults the wall clock.

The executor is hardened against misbehaving workers — the transport
lesson of the paper (and of the MPICH2/RDMA and NIC-barrier follow-on
work) applied to our own harness: degrade predictably, never silently.

* **per-sweep timeout** — ``timeout=`` / ``$REPRO_EXEC_TIMEOUT``; in
  pool mode a sweep past its deadline is abandoned and resubmitted, in
  serial mode the overrun is detected after the fact and the attempt
  discarded and retried.
* **bounded retry** — any failed attempt (exception, timeout, result
  failing validation) is retried up to ``retries=`` /
  ``$REPRO_EXEC_RETRIES`` times with exponential backoff.
* **pool-break recovery** — a crashed worker breaks the whole
  ``ProcessPoolExecutor``; the scheduler catches that and re-runs every
  unfinished sweep serially in-process (graceful degradation), flagged
  in the report as ``degraded_to_serial``.
* **result validation** — every simulated curve is sanity-checked
  (sizes match the schedule, times positive and finite) before it is
  returned or cached, so a corrupted worker result can never poison
  the content-addressed cache.
* **cache-write tolerance** — a full disk or permission error while
  storing a curve is downgraded to a warning plus a report event; the
  results of the run are unaffected.

Failures are observable: :class:`RunReport` carries per-sweep
``attempts``/``timed_out`` and a list of :class:`ExecEvent`, all shown
by :meth:`RunReport.render`.  Deterministic fault *injection* for
exercising these paths lives in :mod:`repro.faults` and enters through
the ``fault_plan=`` hook — a single ``is not None`` check when unused.

Since the analytic fast tier (:mod:`repro.analytic`) landed, the
executor also routes between **tiers** (the routing itself lives in
:mod:`repro.exec.tiers`): ``tier="sim"`` (the default) always runs the
event engine; ``tier="auto"`` answers every request whose (library ×
config) pair has an engine-validated tolerance band with the
closed-form model — microseconds instead of milliseconds — and falls
back to simulation for everything out of band; ``tier="analytic"``
demands the fast path and raises :class:`SweepExecutionError` for any
unvalidated request.  Analytic results are validated like simulated
ones and cached under their own fingerprint salt
(:func:`repro.analytic.analytic_cache_salt`), so the two tiers can
never poison each other's cache entries.

Environment knobs: ``$REPRO_EXEC_WORKERS`` (worker count),
``$REPRO_EXEC_TIMEOUT`` (seconds per sweep attempt),
``$REPRO_EXEC_RETRIES`` (extra attempts per sweep),
``$REPRO_EXEC_TIER`` (default tier), and ``$REPRO_SWEEP_CACHE``
(default cache directory, see :mod:`repro.exec.cache`).
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from math import isfinite
from typing import TYPE_CHECKING, Sequence

from repro.core.pingpong import measure_sweep
from repro.core.results import NetPipePoint, NetPipeResult
from repro.core.sizes import netpipe_sizes
from repro.exec.cache import SweepCache
from repro.exec.errors import SweepExecutionError
from repro.exec.fingerprint import sweep_fingerprint
from repro.exec.knobs import (
    DEFAULT_BACKOFF,
    DEFAULT_RETRIES,
    RETRIES_ENV,
    TIER_ENV,
    TIMEOUT_ENV,
    VALID_TIERS,
    WORKERS_ENV,
    default_retries,
    default_tier,
    default_timeout,
    default_workers,
)
from repro.exec.policy import ExecPolicy
from repro.exec.tiers import plan_tiers
from repro.hw.cluster import ClusterConfig
from repro.mplib.base import MPLibrary
from repro.obs.recorder import Recorder
from repro.sim import Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analytic.bands import BandStore
    from repro.faults.plan import FaultPlan

__all__ = [
    "DEFAULT_BACKOFF",
    "DEFAULT_RETRIES",
    "EXEC_EVENT_CAT",
    "ExecEvent",
    "RETRIES_ENV",
    "RunReport",
    "SweepExecutionError",
    "SweepRequest",
    "SweepStats",
    "TIER_ENV",
    "TIMEOUT_ENV",
    "VALID_TIERS",
    "WORKERS_ENV",
    "default_retries",
    "default_tier",
    "default_timeout",
    "default_workers",
    "execute_sweeps",
    "execute_with_policy",
]


@dataclass(frozen=True)
class SweepRequest:
    """One sweep to execute: a labelled (library, config) pair.

    ``sizes=None`` means the default NetPIPE schedule.  Requests are
    plain picklable data so they can cross the process-pool boundary.
    """

    label: str
    library: MPLibrary
    config: ClusterConfig
    sizes: tuple[int, ...] | None = None
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.sizes is not None and not isinstance(self.sizes, tuple):
            object.__setattr__(self, "sizes", tuple(self.sizes))

    def fingerprint(self, salt: str = "") -> str:
        """Content hash of everything that determines this sweep's curve."""
        return sweep_fingerprint(
            self.library, self.config, self.sizes, self.repeats, salt=salt
        )


@dataclass(frozen=True)
class SweepStats:
    """Where one sweep's result came from and what it cost."""

    label: str
    fingerprint: str  # "" when no cache was consulted (hash not computed)
    cached: bool
    elapsed: float  # wall seconds of the winning attempt (0.0 for cache hits)
    events_processed: int  # engine events (0 for cache hits)
    attempts: int = 1  # total attempts, including abandoned/failed ones
    timed_out: bool = False  # True if any attempt blew the deadline
    tier: str = "sim"  # which tier answered: "sim" or "analytic"


@dataclass(frozen=True)
class ExecEvent:
    """One notable executor incident (failure, timeout, degradation).

    Since the executor moved onto :mod:`repro.obs`, this is a *view*:
    incidents are stored as point spans (``cat="exec-event"``) on
    :attr:`RunReport.obs` and materialised back into ``ExecEvent``
    objects by :attr:`RunReport.events`, so existing callers (and the
    rendered report) are unchanged.
    """

    label: str  # sweep label, or "<pool>" for pool-wide incidents
    attempt: int
    kind: str  # "fault" | "timeout" | "corrupt-result" | "pool-broken" | "cache-write-failed"
    detail: str

    def render(self) -> str:
        """One human-readable log line."""
        return f"[{self.kind}] {self.label} attempt {self.attempt}: {self.detail}"


#: Span category the executor files its incident events under.
EXEC_EVENT_CAT = "exec-event"

#: Detail of a ``cache-write-failed`` event (the store warns once).
_CACHE_WRITE_FAILED = "cache write failed; see the store's warning"


@dataclass
class RunReport:
    """Per-sweep provenance and totals for one executor invocation.

    The report carries a wall-domain :class:`~repro.obs.Recorder`
    (``obs``): incidents are point spans in category
    ``exec-event``, cache traffic shows up as ``exec.cache.*``
    counters, and — when ``execute_sweeps(trace=True)`` — the
    per-sweep simulation recorders land in :attr:`traces`, keyed by
    sweep label, ready for :func:`repro.obs.to_chrome_trace`.
    """

    workers: int
    stats: list[SweepStats] = field(default_factory=list)
    obs: Recorder = field(
        default_factory=lambda: Recorder(meta={"domain": "exec"})
    )
    traces: dict[str, Recorder] = field(default_factory=dict)
    degraded_to_serial: bool = False

    def record_event(self, label: str, attempt: int, kind: str,
                     detail: str) -> None:
        """File one executor incident on the report's recorder."""
        self.obs.point(
            f"exec.{kind}", cat=EXEC_EVENT_CAT,
            label=label, attempt=attempt, kind=kind, detail=detail,
        )

    @property
    def events(self) -> list[ExecEvent]:
        """Incident events, materialised from the obs recorder."""
        return [
            ExecEvent(
                label=s.attrs.get("label", "?"),
                attempt=int(s.attrs.get("attempt", 0)),
                kind=s.attrs.get("kind", s.name),
                detail=s.attrs.get("detail", ""),
            )
            for s in self.obs.spans_by_cat(EXEC_EVENT_CAT)
        ]

    @property
    def sweeps_simulated(self) -> int:
        """How many sweeps actually ran the engine (0 on a warm cache)."""
        return sum(1 for s in self.stats if not s.cached and s.tier == "sim")

    @property
    def sweeps_analytic(self) -> int:
        """How many sweeps the closed-form tier computed (cache hits of
        previously computed analytic curves count as cached, not here)."""
        return sum(
            1 for s in self.stats if not s.cached and s.tier == "analytic"
        )

    @property
    def cache_hits(self) -> int:
        """How many sweeps were answered from the cache (either tier)."""
        return sum(1 for s in self.stats if s.cached)

    @property
    def events_processed(self) -> int:
        """Total engine events across all simulated sweeps."""
        return sum(s.events_processed for s in self.stats)

    @property
    def sim_seconds(self) -> float:
        """Summed per-sweep wall time (CPU-seconds of simulation)."""
        return sum(s.elapsed for s in self.stats)

    @property
    def retries_performed(self) -> int:
        """Total extra attempts beyond the first, across all sweeps."""
        return sum(s.attempts - 1 for s in self.stats)

    @property
    def timeouts(self) -> int:
        """How many sweeps had at least one attempt blow the deadline."""
        return sum(1 for s in self.stats if s.timed_out)

    def render(self) -> str:
        """Multi-line human-readable report (one line per sweep/event)."""
        lines = [
            f"executor report: {len(self.stats)} sweeps, "
            f"{self.sweeps_simulated} simulated, "
            f"{self.sweeps_analytic} analytic, {self.cache_hits} cached, "
            f"{self.workers} worker(s)",
        ]
        for s in self.stats:
            if s.cached:
                source = "cache"
            elif s.tier == "analytic":
                source = "analytic"
            else:
                source = f"{s.elapsed * 1e3:8.1f} ms"
            flags = ""
            if s.attempts > 1:
                flags += f"  x{s.attempts} attempts"
            if s.timed_out:
                flags += "  TIMEOUT"
            lines.append(
                f"  {s.label:28s} {source:>10s}  "
                f"{s.events_processed:>9d} events  {s.fingerprint[:12]}{flags}"
            )
        lines.append(
            f"  total: {self.events_processed} events in "
            f"{self.sim_seconds * 1e3:.1f} ms of simulation"
        )
        if self.degraded_to_serial:
            lines.append(
                "  process pool broke; unfinished sweeps re-run serially"
            )
        for event in self.events:
            lines.append(f"  {event.render()}")
        return "\n".join(lines)


def _run_sweep(
    request: SweepRequest,
    attempt: int = 0,
    plan: "FaultPlan | None" = None,
    allow_crash: bool = False,
    trace: bool = False,
) -> tuple[NetPipeResult, int, float, Recorder | None]:
    """Execute one sweep on a fresh engine (also the pool worker).

    ``attempt`` numbers retries of the same request; together with the
    optional fault ``plan`` it makes injected failures deterministic
    (see :mod:`repro.faults`).  With ``plan=None`` — every production
    call — the fault hook is a single comparison.

    ``trace=True`` attaches a fresh :class:`~repro.obs.Recorder` to
    the engine so every protocol hook fires; the recorder rides back
    across the process-pool boundary with the result (its
    ``engine.now`` clock is dropped on pickling).

    Returns ``(result, events_processed, elapsed_wall_seconds,
    recorder_or_None)``.
    """
    t0 = time.perf_counter()
    spec = plan.action_for(request.label, attempt) if plan is not None else None
    if spec is not None:
        # Injected hangs must count against the attempt's wall time,
        # or the serial after-the-fact timeout check could never fire.
        from repro.faults.inject import apply_pre_fault

        apply_pre_fault(spec, allow_crash)
    sizes = request.sizes if request.sizes is not None else netpipe_sizes()
    recorder = (
        Recorder(meta={
            "label": request.label,
            "library": request.library.display_name,
            "config": request.config.describe(),
        })
        if trace
        else None
    )
    engine = Engine(obs=recorder)
    a, b = request.library.build(engine, request.config)
    samples = measure_sweep(engine, a, b, sizes, repeats=request.repeats)
    elapsed = time.perf_counter() - t0
    result = NetPipeResult(
        library=request.library.display_name,
        config=request.config.describe(),
        points=[NetPipePoint(size=s, oneway_time=t) for s, t in samples],
    )
    if spec is not None:
        from repro.faults.inject import apply_post_fault

        result = apply_post_fault(spec, result)
    return result, engine.events_processed, elapsed, recorder


def _validate_result(request: SweepRequest, result: NetPipeResult) -> str | None:
    """Why ``result`` cannot be the curve for ``request`` (None if it can).

    The checks are necessary conditions any genuine sweep satisfies —
    one point per scheduled size, in schedule order, with positive
    finite times — so a corrupted or truncated worker result is caught
    here instead of being returned to the caller or written into the
    content-addressed cache.  They run over the curve's columns, so an
    analytic curve is checked before its points exist.
    """
    point_sizes, times = result.columns()
    sizes = request.sizes if request.sizes is not None else netpipe_sizes()
    if len(point_sizes) != len(sizes):
        return (
            f"expected {len(sizes)} points for the size schedule, "
            f"got {len(point_sizes)}"
        )
    # Bulk-compare first (C-level list equality, min and sum), walk for
    # the message only on failure: this runs on every sweep of every
    # run, including the microsecond-scale analytic tier.
    if list(point_sizes) != list(sizes):
        for point_size, size in zip(point_sizes, sizes):
            if point_size != size:
                return (
                    f"point size {point_size} does not match "
                    f"schedule size {size}"
                )
    # A positive minimum and a finite sum clear every point at once (a
    # NaN or infinity poisons the sum); anything else takes the walk.
    if times and not (min(times) > 0 and isfinite(sum(times))):
        for size, oneway_time in zip(point_sizes, times):
            if not (isfinite(oneway_time) and oneway_time > 0):
                return (
                    f"non-physical one-way time {oneway_time!r} "
                    f"at size {size}"
                )
    return None


#: One successful sweep:
#: (result, engine events, elapsed, attempts, timed_out, recorder|None).
_Outcome = tuple[NetPipeResult, int, float, int, bool, "Recorder | None"]


def _run_with_retries(
    request: SweepRequest,
    plan: "FaultPlan | None",
    timeout: float | None,
    retries: int,
    backoff: float,
    report: RunReport,
    first_attempt: int = 0,
    trace: bool = False,
) -> _Outcome:
    """Serial in-process execution of one sweep with the retry policy.

    Used for ``max_workers=1`` and for the serial-degradation path
    after a pool break (``first_attempt`` then continues the pool's
    attempt numbering, so a deterministic fault plan is not replayed).
    A timeout cannot preempt an in-process attempt; an overrun is
    detected afterwards, the attempt discarded, and the sweep retried.
    """
    attempt = first_attempt
    timed_out = False
    while True:
        cause: Exception | None = None
        try:
            result, events, elapsed, recorder = _run_sweep(
                request, attempt, plan, allow_crash=False, trace=trace
            )
        except Exception as exc:
            cause = exc
            kind, detail = "fault", f"{type(exc).__name__}: {exc}"
        else:
            problem = _validate_result(request, result)
            if problem is None and (timeout is None or elapsed <= timeout):
                return result, events, elapsed, attempt + 1, timed_out, recorder
            if problem is not None:
                kind, detail = "corrupt-result", problem
            else:
                timed_out = True
                kind, detail = (
                    "timeout",
                    f"attempt ran {elapsed:.3f}s, past the {timeout:.3g}s deadline",
                )
        report.record_event(request.label, attempt, kind, detail)
        if attempt - first_attempt >= retries:
            raise SweepExecutionError(
                f"sweep {request.label!r} failed after {attempt + 1} "
                f"attempt(s): {detail}"
            ) from cause
        time.sleep(backoff * (2 ** (attempt - first_attempt)))
        attempt += 1


def _execute_pool(
    requests: Sequence[SweepRequest],
    pending: Sequence[int],
    plan: "FaultPlan | None",
    timeout: float | None,
    retries: int,
    backoff: float,
    max_workers: int,
    report: RunReport,
    trace: bool = False,
) -> dict[int, _Outcome]:
    """Run the pending sweeps on a process pool with the retry policy.

    Timed-out attempts are abandoned (their future is dropped; the
    worker finishes or dies on its own) and resubmitted.  A broken
    pool — a worker crashed hard — aborts parallel execution and every
    unfinished sweep is re-run serially in-process, which is slower
    but cannot be killed by a bad worker.
    """
    outcomes: dict[int, _Outcome] = {}
    attempts_started = {i: 0 for i in pending}
    timed_out_flags = {i: False for i in pending}

    def fail_attempt(index: int, attempt: int, kind: str, detail: str,
                     cause: Exception | None) -> bool:
        """Record a failed attempt; True if the sweep may be retried."""
        report.record_event(requests[index].label, attempt, kind, detail)
        if attempts_started[index] >= retries + 1:
            raise SweepExecutionError(
                f"sweep {requests[index].label!r} failed after "
                f"{attempts_started[index]} attempt(s): {detail}"
            ) from cause
        time.sleep(backoff * (2 ** (attempts_started[index] - 1)))
        return True

    try:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            active: dict[Future, tuple[int, int, float]] = {}

            def submit(index: int) -> None:
                attempt = attempts_started[index]
                attempts_started[index] += 1
                future = pool.submit(
                    _run_sweep, requests[index], attempt, plan, True, trace
                )
                active[future] = (index, attempt, time.monotonic())

            for i in pending:
                submit(i)
            while active:
                wait_for = None
                if timeout is not None:
                    now = time.monotonic()
                    wait_for = max(
                        0.0,
                        min(started + timeout for (_, _, started)
                            in active.values()) - now,
                    )
                done, _ = wait(
                    set(active), timeout=wait_for,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    index, attempt, _started = active.pop(future)
                    try:
                        result, events, elapsed, recorder = future.result()
                    except BrokenProcessPool:
                        raise
                    except Exception as exc:
                        if fail_attempt(index, attempt, "fault",
                                        f"{type(exc).__name__}: {exc}", exc):
                            submit(index)
                        continue
                    problem = _validate_result(requests[index], result)
                    if problem is not None:
                        if fail_attempt(index, attempt, "corrupt-result",
                                        problem, None):
                            submit(index)
                        continue
                    outcomes[index] = (
                        result, events, elapsed,
                        attempts_started[index], timed_out_flags[index],
                        recorder,
                    )
                if timeout is not None:
                    now = time.monotonic()
                    for future, (index, attempt, started) in list(active.items()):
                        if now - started <= timeout or future.done():
                            continue
                        # Abandon the attempt: a queued future is
                        # cancelled outright, a running worker is left
                        # to finish into the void.
                        del active[future]
                        future.cancel()
                        timed_out_flags[index] = True
                        if fail_attempt(
                            index, attempt, "timeout",
                            f"no result within the {timeout:.3g}s deadline",
                            None,
                        ):
                            submit(index)
    except BrokenProcessPool as exc:
        report.degraded_to_serial = True
        unfinished = [i for i in pending if i not in outcomes]
        report.record_event(
            "<pool>", 0, "pool-broken",
            f"{type(exc).__name__}: a worker died; re-running "
            f"{len(unfinished)} unfinished sweep(s) serially",
        )
        for i in unfinished:
            (result, events, elapsed, attempts, timed_out,
             recorder) = _run_with_retries(
                requests[i], plan, timeout, retries, backoff, report,
                first_attempt=attempts_started[i], trace=trace,
            )
            outcomes[i] = (
                result, events, elapsed, attempts,
                timed_out or timed_out_flags[i], recorder,
            )
    return outcomes


def execute_sweeps(
    requests: Sequence[SweepRequest],
    max_workers: int | None = None,
    cache: SweepCache | None = None,
    salt: str = "",
    timeout: float | None = None,
    retries: int | None = None,
    backoff: float | None = None,
    fault_plan: "FaultPlan | None" = None,
    trace: bool = False,
    tier: str | None = None,
    bands: "BandStore | None" = None,
) -> tuple[list[NetPipeResult], RunReport]:
    """Run many sweeps, parallel across processes, cache-aware, fault-hard.

    :param requests: sweeps to run; results come back in this order.
    :param max_workers: process count; ``None`` reads
        ``$REPRO_EXEC_WORKERS`` (default 1 = serial in-process).
    :param cache: optional sweep cache; ``None`` falls back to
        ``$REPRO_SWEEP_CACHE`` when that is set.
    :param salt: extra fingerprint salt (study-specific invalidation).
    :param timeout: seconds one sweep attempt may take; ``None`` reads
        ``$REPRO_EXEC_TIMEOUT`` (unset = unlimited).
    :param retries: extra attempts per sweep after a failure/timeout;
        ``None`` reads ``$REPRO_EXEC_RETRIES`` (default 2).
    :param backoff: first retry delay in seconds, doubling per retry
        (default ``DEFAULT_BACKOFF``).
    :param fault_plan: deterministic failure injection for tests (see
        :mod:`repro.faults`); ``None`` — the production value — makes
        every fault hook a single comparison.
    :param trace: attach a :class:`~repro.obs.Recorder` to every
        simulated sweep and collect them into ``report.traces`` (keyed
        by label).  Tracing bypasses the cache entirely — a cache hit
        has no trace to give — so every sweep actually simulates.
    :param tier: ``"sim"`` (always simulate), ``"analytic"`` (demand
        the closed form; unvalidated requests raise), or ``"auto"``
        (closed form where an engine-validated band exists, simulation
        otherwise).  ``None`` reads ``$REPRO_EXEC_TIER`` (default
        ``sim``).  Analytic answers are computed inline — no pool, no
        engine — validated like simulated curves, and cached under
        their own fingerprint salt so the two tiers never share cache
        entries.  The fault plan applies to simulated attempts only:
        the closed form has no worker, timeout, or retry machinery to
        exercise.
    :param bands: tolerance-band store consulted for tier routing;
        ``None`` loads the pinned default
        (:func:`repro.analytic.default_band_store`).

    :raises SweepExecutionError: when a sweep still fails after its
        whole retry budget (never for a mere worker crash, which
        degrades to serial execution instead), or — with
        ``tier="analytic"`` — when a request has no validated band.
    """
    policy = ExecPolicy.resolve(
        max_workers=max_workers, timeout=timeout, retries=retries,
        backoff=backoff, tier=tier, salt=salt,
    )
    return execute_with_policy(
        requests, policy, cache=cache, fault_plan=fault_plan, trace=trace,
        bands=bands,
    )


def execute_with_policy(
    requests: Sequence[SweepRequest],
    policy: ExecPolicy,
    cache: SweepCache | None = None,
    fault_plan: "FaultPlan | None" = None,
    trace: bool = False,
    bands: "BandStore | None" = None,
) -> tuple[list[NetPipeResult], RunReport]:
    """The execution core: run one batch under a pre-resolved policy.

    Same semantics as :func:`execute_sweeps` (which delegates here
    after resolving its per-call knobs against the environment), minus
    any environment reads for the policy knobs themselves — a service
    resolves its :class:`~repro.exec.ExecPolicy` once and replays it
    for every batch.  ``cache=None`` still falls back to
    ``$REPRO_SWEEP_CACHE`` so both entry points address the same store.
    """
    tier = policy.tier
    if cache is None:
        cache = SweepCache.from_env()
    if trace:
        if tier == "analytic":
            raise ValueError(
                "trace=True needs the event engine — the closed form has "
                "no protocol events to record; use tier='sim' or 'auto'"
            )
        tier = "sim"
        # No cache reads or writes while tracing: a hit would return a
        # curve with no trace behind it, and traced runs should never
        # shadow (or be shadowed by) the cached untraced ones.
        cache = None

    requests = list(requests)
    report = RunReport(workers=policy.max_workers)
    results: list[NetPipeResult | None] = [None] * len(requests)
    stats: list[SweepStats | None] = [None] * len(requests)
    pending: list[int] = []  # indices the cache could not answer

    # Tier routing (repro.exec.tiers).  The sim-only path short-circuits
    # inside plan_tiers — no band-store load, no band fingerprints — so
    # tier="sim" costs nothing.
    plan = plan_tiers(
        requests, tier, salt=policy.salt, bands=bands,
        on_fallback=lambda _req, _why: report.obs.count("exec.tier.fallback"),
    )
    tiers = plan.tiers

    # Fingerprints are only worth computing when there is a cache to
    # address with them; the cache-less path stays zero-overhead.
    # Analytic entries are addressed under their own salt so the two
    # tiers can never answer (or overwrite) each other's entries.
    if cache is not None:
        fingerprints = [
            plan.fingerprint(r, i) for i, r in enumerate(requests)
        ]
    else:
        fingerprints = [""] * len(requests)
    for i, request in enumerate(requests):
        hit = cache.get(fingerprints[i]) if cache is not None else None
        if hit is not None:
            report.obs.count("exec.cache.hit")
            results[i] = hit
            stats[i] = SweepStats(
                label=request.label,
                fingerprint=fingerprints[i],
                cached=True,
                elapsed=0.0,
                events_processed=0,
                tier=tiers[i],
            )
        else:
            if cache is not None:
                report.obs.count("exec.cache.miss")
            pending.append(i)

    analytic_pending = [i for i in pending if tiers[i] == "analytic"]
    if analytic_pending:
        # Through the package attribute, so a wrapper (a profiler's, a
        # test's) sees every analytic sweep.
        import repro.analytic as analytic

        obs = report.obs
        for i in analytic_pending:
            request = requests[i]
            t0 = time.perf_counter()
            result = analytic.predict_sweep(
                request.library, request.config,
                sizes=request.sizes, repeats=request.repeats, obs=obs,
            )
            elapsed = time.perf_counter() - t0
            # The curve's points are built lazily: check its columns
            # before anything is cached or returned.
            problem = _validate_result(request, result)
            if problem is not None:
                report.record_event(
                    request.label, 0, "corrupt-result", problem
                )
                raise SweepExecutionError(
                    f"analytic sweep {request.label!r} produced an "
                    f"invalid curve: {problem}"
                )
            obs.record(
                "analytic.sweep", cat="analytic", t0=0.0, t1=elapsed,
                label=request.label,
            )
            results[i] = result
            stats[i] = SweepStats(
                label=request.label,
                fingerprint=fingerprints[i],
                cached=False,
                elapsed=elapsed,
                events_processed=0,
                tier="analytic",
            )
            if cache is not None and cache.put(fingerprints[i], result) is None:
                report.record_event(request.label, 0, "cache-write-failed",
                                    _CACHE_WRITE_FAILED)
        obs.count("exec.tier.analytic", len(analytic_pending))

    pending = [i for i in pending if tiers[i] == "sim"]
    if pending:
        if policy.max_workers == 1 or len(pending) == 1:
            outcomes = {
                i: _run_with_retries(
                    requests[i], fault_plan, policy.timeout, policy.retries,
                    policy.backoff, report, trace=trace,
                )
                for i in pending
            }
        else:
            outcomes = _execute_pool(
                requests, pending, fault_plan, policy.timeout,
                policy.retries, policy.backoff, policy.max_workers, report,
                trace=trace,
            )
        for i in pending:
            result, events, elapsed, attempts, timed_out, recorder = outcomes[i]
            if recorder is not None:
                report.traces[requests[i].label] = recorder
            results[i] = result
            stats[i] = SweepStats(
                label=requests[i].label,
                fingerprint=fingerprints[i],
                cached=False,
                elapsed=elapsed,
                events_processed=events,
                attempts=attempts,
                timed_out=timed_out,
            )
            if cache is not None and cache.put(fingerprints[i], result) is None:
                report.record_event(requests[i].label, attempts - 1,
                                    "cache-write-failed", _CACHE_WRITE_FAILED)

    report.stats = [s for s in stats if s is not None]
    return [r for r in results if r is not None], report
