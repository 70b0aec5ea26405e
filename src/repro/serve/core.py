"""The serving core: coalescing, tiered answering, bounded admission.

:class:`ServeCore` answers :class:`~repro.serve.api.ServeQuery`
objects from the cheapest tier that has the curve:

1. **hot** — an in-memory :class:`~repro.serve.hotcache.HotCurveLRU`
   keyed by the same salted fingerprints the disk cache is addressed
   by, holding each curve with its headline metrics: one dict lookup,
   no event loop yield.
2. **coalesced** — a request whose fingerprint is already being
   computed joins the in-flight future instead of starting another
   simulation: a thundering herd of identical questions performs
   exactly one sweep, and every caller receives the identical curve.
3. **disk** — the fingerprint-sharded
   :class:`~repro.exec.SweepCache`, consulted by the execution core.
4. **computed** — :func:`~repro.exec.execute_with_policy` on a worker
   thread (``asyncio.to_thread``), with the executor's full hardening:
   retries, timeouts, pool-break degradation, result validation.

Before any tier is probed, :meth:`ServeCore._route` turns the query
into its routed request — resolved library and config, execution tier,
salted fingerprint — once per distinct question, and remembers it (see
:class:`Route`).  A repeated question, the common case, is therefore a
route lookup plus a hot lookup: no resolving, no canonicalizing, no
hashing, no rescanning of the curve.

Admission is bounded: at most ``max_pending`` *leaders* (requests that
actually compute) are in flight at once; past that the core sheds load
with a typed :class:`~repro.serve.api.OverloadedError` instead of
queueing unboundedly.  Joining an in-flight future is always admitted
— coalescing adds no load.

After answering a cold query, the core optionally *speculates*: the
query's neighbors (:mod:`repro.serve.speculate`) go onto a bounded
background queue, so the follow-up question ("and with jumbo frames?")
is a hot hit.  A worker task computes them through the same admission
gate and compute threads as foreground queries, not at a lower
priority, so speculation competes with foreground compute.

Everything is observable: each answer files ``serve.queue`` /
``serve.compute`` spans and per-source counters on a
:class:`~repro.obs.Recorder`, surfaced by :meth:`ServeCore.stats` —
the JSON document behind ``repro serve``'s stats endpoint.

The core is single-event-loop code (create it and call it from one
loop); only the compute step leaves the loop thread, and it touches no
core state.
"""

from __future__ import annotations

# The serving layer is the one package that *is* I/O: the event loop
# below multiplexes network clients over the pure simulation core.
# repro: allow[pure-socket] asyncio is the serving substrate, not a
# side channel into the simulation; sweeps still run via repro.exec.
import asyncio
import time
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple

from repro.exec.cache import SweepCache
from repro.exec.errors import SweepExecutionError
from repro.exec.policy import ExecPolicy
from repro.exec.scheduler import RunReport, execute_with_policy
from repro.exec.tiers import plan_tiers
from repro.obs.recorder import Recorder
from repro.serve.api import (
    BadRequestError,
    OverloadedError,
    ServeQuery,
    ServeResponse,
    cost_block,
    curve_metrics,
)
from repro.serve.hotcache import HotCurveLRU
from repro.serve.speculate import neighbor_queries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analytic.bands import BandStore
    from repro.core.results import NetPipeResult
    from repro.exec.scheduler import SweepRequest
    from repro.faults.plan import FaultPlan
    from repro.scenario.runner import ScenarioStore

#: Span category the serving layer files its request spans under.
SERVE_SPAN_CAT = "serve"


def _wall_now() -> float:
    """The serving layer's wall clock (queue-wait and compute spans).

    The one sanctioned clock read in :mod:`repro.serve`: service
    latency *is* wall time.  It times spans and stats only — no curve
    content ever depends on it (the executor validates curves and the
    coalescing tests assert bit-identity).
    """
    return time.monotonic()  # repro: allow[det-wallclock] service latency is wall time by definition; never flows into curve content


class Route(NamedTuple):
    """One distinct question, resolved and routed.

    ``sweep`` is the executor request the query describes,
    ``requested_tier`` the tier asked for (the query's override or the
    policy's),
    ``fingerprint`` the salted cache key of the routed request, and
    ``demoted`` whether ``auto`` routing sent it to the engine for want
    of a band.  Library models are stateless (``build`` makes fresh
    endpoints per engine), so one resolved request serves every repeat.
    """

    sweep: "SweepRequest"
    requested_tier: str
    fingerprint: str
    demoted: bool


def route_key(query: ServeQuery) -> str:
    """The route memo key: every query field that determines the curve.

    ``compare_with`` and ``nodes`` are left out — they shape the
    response, not the curve.  The key is the ``repr`` of the fields, so
    it is as type-exact as the fingerprint's canonical form: ``mtu``
    9000 and 9000.0, ``tuned`` True and 1, ``-0.0`` and ``0.0`` compare
    equal but name different curves, and never share an entry.
    """
    return repr((query.library, query.config, query.mtu, query.tuned,
                 query.sizes, query.repeats, query.tier))


class ServeCore:
    """Answer what-if queries through the tiered, coalescing pipeline.

    :param cache: disk tier; ``None`` falls back to
        ``$REPRO_SWEEP_CACHE`` (and to no disk tier when unset).
    :param policy: pre-resolved :class:`~repro.exec.ExecPolicy` for the
        compute tier; ``None`` resolves one from the environment at
        construction — never per request.
    :param hot_size: hot-tier LRU capacity (0 disables the hot tier).
    :param max_pending: admission limit on concurrently *computing*
        requests; past it, :class:`~repro.serve.api.OverloadedError`.
    :param speculate: warm neighbor queries in the background.
    :param speculate_depth: neighbors enqueued per computed answer.
    :param speculate_queue: background queue bound; overflow neighbors
        are dropped (counted), never block the foreground.
    :param fault_plan: deterministic fault injection handed to the
        executor (chaos tests); ``None`` in production.
    :param bands: tolerance-band store for tier routing; ``None`` loads
        the pinned default lazily.
    """

    def __init__(
        self,
        cache: SweepCache | None = None,
        policy: ExecPolicy | None = None,
        hot_size: int = 128,
        max_pending: int = 8,
        speculate: bool = False,
        speculate_depth: int = 3,
        speculate_queue: int = 16,
        fault_plan: "FaultPlan | None" = None,
        bands: "BandStore | None" = None,
        scenario_cache: "ScenarioStore | None" = None,
    ):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.policy = policy if policy is not None else ExecPolicy.resolve()
        self.cache = cache if cache is not None else SweepCache.from_env()
        if scenario_cache is not None:
            self.scenario_store = scenario_cache
        else:
            from repro.scenario.runner import ScenarioStore

            self.scenario_store = ScenarioStore.from_env()
        self.scenario_hot = HotCurveLRU(hot_size)
        self._scenario_inflight: dict[str, asyncio.Future] = {}
        # Curve payloads are (result, tier, metrics); routes are keyed by
        # route_key.  One capacity bounds both.
        self.hot = HotCurveLRU(hot_size)
        self.routes = HotCurveLRU(hot_size)
        self.max_pending = max_pending
        self.speculate = speculate
        self.speculate_depth = speculate_depth
        self.obs = Recorder(meta={"domain": "serve"})
        self._fault_plan = fault_plan
        self._bands = bands
        self._inflight: dict[str, asyncio.Future] = {}
        self._computing = 0  # leaders currently past admission
        self._degraded = 0  # compute batches that lost their pool
        self._spec_queue: "asyncio.Queue[ServeQuery]" = asyncio.Queue(
            maxsize=speculate_queue
        )
        self._spec_task: asyncio.Task | None = None

    # -- the public query path ----------------------------------------------
    async def query(self, query: ServeQuery) -> ServeResponse:
        """Answer one query; raises the typed serve errors on failure.

        :raises BadRequestError: unknown names, invalid tunables, or a
            per-query ``tier="analytic"`` demand without a validated
            band.
        :raises OverloadedError: admission limit reached (load shed).
        :raises SweepExecutionError: the sweep itself failed after the
            executor's whole retry budget.
        """
        self.obs.count("serve.requests")
        route = self._route(query)
        result, tier, source, timing, metrics = await self._answer(
            query, route
        )
        crossover = None
        if query.compare_with is not None:
            other_query = query.companion(query.compare_with)
            other, _, _, _, other_metrics = await self._answer(
                other_query, self._route(other_query)
            )
            crossover = self._crossover_block(
                query, result, other, other_metrics
            )
        return ServeResponse(
            query=query,
            result=result,
            fingerprint=route.fingerprint,
            tier=tier,
            source=source,
            metrics=metrics,
            crossover=crossover,
            cost=cost_block(route.sweep.config, metrics["max_mbps"],
                            query.nodes),
            timing=timing,
        )

    @staticmethod
    def _crossover_block(query: ServeQuery, mine: "NetPipeResult",
                         other: "NetPipeResult",
                         other_metrics: Mapping[str, Any]) -> dict[str, Any]:
        """Who overtakes whom, at which measured size."""
        from repro.analysis.compare import crossover_size

        return {
            "versus": query.compare_with,
            "overtakes_at": crossover_size(mine, other),
            "overtaken_at": crossover_size(other, mine),
            "versus_max_mbps": other_metrics["max_mbps"],
            "versus_latency_us": other.latency_us,
        }

    def _route(self, query: ServeQuery) -> Route:
        """Resolve, tier-route and fingerprint ``query``, once per
        distinct question.

        The foreground query, its ``compare_with`` companion and every
        speculation neighbor come through here.  A failure —
        :class:`BadRequestError` from resolving or routing — is raised
        and never remembered, so a bad question fails on every repeat.
        A request ``auto`` demotes counts ``serve.tier.fallback`` every
        time it is asked, remembered or not.
        """
        key = route_key(query)
        route = self.routes.get(key)
        if route is None:
            sweep = query.resolve()
            tier_wanted = (
                query.tier if query.tier is not None else self.policy.tier
            )
            demotions: list[str] = []
            try:
                plan = plan_tiers(
                    [sweep], tier_wanted, salt=self.policy.salt,
                    bands=self._bands,
                    on_fallback=lambda _r, why: demotions.append(why),
                )
            except (SweepExecutionError, ValueError) as exc:
                # A routing demand that cannot be met is the *query's*
                # problem (bad tier name, analytic without a band), not
                # an execution failure.
                raise BadRequestError(str(exc))
            route = Route(sweep, tier_wanted, plan.fingerprint(sweep, 0),
                          bool(demotions))
            self.routes.put(key, route)
        if route.demoted:
            self.obs.count("serve.tier.fallback")
        return route

    async def _answer(
        self, query: ServeQuery, route: Route
    ) -> tuple["NetPipeResult", str, str, dict[str, float], Mapping[str, Any]]:
        """One routed curve through the tiers:
        (result, tier, source, timing, metrics).

        The hot probe, the in-flight probe, and leader registration all
        happen synchronously between awaits, so concurrent tasks on the
        one event loop can never both become leader for a fingerprint.
        The headline metrics are computed once, when the curve enters
        the hot tier, and travel with it — to hot hits and, through the
        in-flight future, to coalesced followers.
        """
        fingerprint = route.fingerprint
        hot = self.hot.get(fingerprint)
        if hot is not None:
            self.obs.count("serve.hot")
            result, tier, metrics = hot
            return (
                result, tier, "hot",
                {"queue_s": 0.0, "compute_s": 0.0}, metrics,
            )

        inflight = self._inflight.get(fingerprint)
        if inflight is not None:
            self.obs.count("serve.coalesced")
            result, tier, metrics = await inflight
            return (
                result, tier, "coalesced",
                {"queue_s": 0.0, "compute_s": 0.0}, metrics,
            )

        if self._computing >= self.max_pending:
            self.obs.count("serve.shed")
            raise OverloadedError(self._computing, self.max_pending)

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[fingerprint] = future
        self._computing += 1
        t_submitted = _wall_now()
        policy = (
            self.policy if route.requested_tier == self.policy.tier
            else self.policy.with_tier(route.requested_tier)
        )
        try:
            t_started, result, report = await asyncio.to_thread(
                self._compute, route.sweep, policy
            )
        except BaseException as exc:
            future.set_exception(exc)
            future.exception()  # mark retrieved even with no followers
            raise
        finally:
            self._computing -= 1
            del self._inflight[fingerprint]
        t_done = _wall_now()

        self._absorb(report)
        stat = report.stats[0]
        tier = stat.tier
        source = "disk" if stat.cached else "computed"
        self.obs.record(
            "serve.queue", cat=SERVE_SPAN_CAT,
            t0=t_submitted, t1=t_started, fingerprint=fingerprint,
        )
        self.obs.record(
            "serve.compute", cat=SERVE_SPAN_CAT,
            t0=t_started, t1=t_done, fingerprint=fingerprint,
            tier=tier, source=source,
        )
        self.obs.count(f"serve.{source}")
        # Read-only: every later answer for this curve shares the dict.
        metrics = MappingProxyType(curve_metrics(result))
        self.hot.put(fingerprint, (result, tier, metrics))
        future.set_result((result, tier, metrics))
        if source == "computed":
            self._enqueue_speculation(query)
        return (
            result, tier, source,
            {"queue_s": t_started - t_submitted, "compute_s": t_done - t_started},
            metrics,
        )

    # -- the scenario path ---------------------------------------------------
    async def scenario(self, spec_data: Any) -> dict[str, Any]:
        """Answer one declarative-scenario question (the ``scenario`` op).

        ``spec_data`` is the JSON shape of a
        :class:`~repro.scenario.spec.ScenarioSpec`.  The same tiering
        discipline as curves: a hot LRU keyed by the scenario
        fingerprint, in-flight coalescing, bounded admission shared
        with the query path, then
        :func:`~repro.scenario.runner.run_scenario` on a worker thread
        (which itself consults the on-disk scenario store).

        :raises BadRequestError: the spec fails validation (the detail
            carries the offending field path).
        :raises OverloadedError: admission limit reached (load shed).
        :raises ScenarioExecutionError: the scenario exhausted its
            retry budget.
        """
        from repro.scenario.spec import ScenarioSpec, SpecError

        self.obs.count("serve.scenario.requests")
        try:
            spec = ScenarioSpec.from_jsonable(spec_data)
        except SpecError as exc:
            raise BadRequestError(str(exc))
        fingerprint = spec.fingerprint()

        hot = self.scenario_hot.get(fingerprint)
        if hot is not None:
            self.obs.count("serve.scenario.hot")
            return {**hot, "source": "hot"}

        inflight = self._scenario_inflight.get(fingerprint)
        if inflight is not None:
            self.obs.count("serve.scenario.coalesced")
            document = await inflight
            return {**document, "source": "coalesced"}

        if self._computing >= self.max_pending:
            self.obs.count("serve.shed")
            raise OverloadedError(self._computing, self.max_pending)

        from repro.scenario.runner import run_scenario

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._scenario_inflight[fingerprint] = future
        self._computing += 1
        t_submitted = _wall_now()
        try:
            result, report = await asyncio.to_thread(
                run_scenario, spec, self.scenario_store
            )
        except BaseException as exc:
            future.set_exception(exc)
            future.exception()  # mark retrieved even with no followers
            raise
        finally:
            self._computing -= 1
            del self._scenario_inflight[fingerprint]
        t_done = _wall_now()

        source = "store" if report.cached else "computed"
        document = {
            "scenario": result.to_jsonable(),
            "fingerprint": fingerprint,
            "attempts": report.attempts,
        }
        self.obs.record(
            "serve.scenario.compute", cat=SERVE_SPAN_CAT,
            t0=t_submitted, t1=t_done, fingerprint=fingerprint,
            source=source,
        )
        self.obs.count(f"serve.scenario.{source}")
        self.scenario_hot.put(fingerprint, document)
        future.set_result(document)
        return {**document, "source": source}

    def _compute(self, sweep: Any, policy: ExecPolicy):
        """The worker-thread half: run one sweep through the executor.

        Touches no core state — everything it needs rides in, and the
        report rides out to be absorbed on the loop thread.
        """
        t_started = _wall_now()
        results, report = execute_with_policy(
            [sweep], policy, cache=self.cache,
            fault_plan=self._fault_plan, bands=self._bands,
        )
        return t_started, results[0], report

    def _absorb(self, report: RunReport) -> None:
        """Fold one executor report into the service-lifetime counters."""
        self.obs.count("serve.exec.simulated", report.sweeps_simulated)
        self.obs.count("serve.exec.analytic", report.sweeps_analytic)
        self.obs.count("serve.exec.retries", report.retries_performed)
        if report.degraded_to_serial:
            self._degraded += 1
            self.obs.count("serve.exec.degraded")
        self.obs.merge(report.obs)

    # -- speculation ---------------------------------------------------------
    def _enqueue_speculation(self, query: ServeQuery) -> None:
        """Queue the neighbors of a freshly computed answer (bounded)."""
        if not self.speculate:
            return
        if self._spec_task is None or self._spec_task.done():
            self._spec_task = asyncio.get_running_loop().create_task(
                self._speculation_worker()
            )
        for neighbor in neighbor_queries(query, self.speculate_depth):
            try:
                self._spec_queue.put_nowait(neighbor)
                self.obs.count("serve.speculate.enqueued")
            except asyncio.QueueFull:
                self.obs.count("serve.speculate.dropped")

    async def _speculation_worker(self) -> None:
        """Drain the speculation queue forever, at whatever-is-left
        priority: a shed or failed neighbor is counted and forgotten —
        speculation must never surface an error for a question nobody
        asked."""
        while True:
            neighbor = await self._spec_queue.get()
            try:
                await self._answer(neighbor, self._route(neighbor))
                self.obs.count("serve.speculate.warmed")
            except OverloadedError:
                self.obs.count("serve.speculate.shed")
            except asyncio.CancelledError:
                raise
            except Exception:
                self.obs.count("serve.speculate.failed")
            finally:
                self._spec_queue.task_done()

    async def drain_speculation(self) -> None:
        """Block until every queued neighbor has been attempted (tests)."""
        if self._spec_task is not None and not self._spec_task.done():
            await self._spec_queue.join()

    # -- lifecycle and stats -------------------------------------------------
    async def aclose(self) -> None:
        """Cancel the background speculation worker, if running."""
        if self._spec_task is not None:
            self._spec_task.cancel()
            try:
                await self._spec_task
            except asyncio.CancelledError:
                pass
            self._spec_task = None

    def stats(self) -> dict[str, Any]:
        """The service-lifetime counters, as one JSON-ready document."""
        counters = self.obs.counters
        return {
            "requests": int(counters.get("serve.requests", 0)),
            "sources": {
                "hot": int(counters.get("serve.hot", 0)),
                "coalesced": int(counters.get("serve.coalesced", 0)),
                "disk": int(counters.get("serve.disk", 0)),
                "computed": int(counters.get("serve.computed", 0)),
            },
            "shed": int(counters.get("serve.shed", 0)),
            "inflight": len(self._inflight),
            "computing": self._computing,
            "max_pending": self.max_pending,
            "hot": {**self.hot.snapshot(),
                    "recent_evictions": self.hot.recent_evictions()},
            "disk": self.cache.stats() if self.cache is not None else None,
            "exec": {
                "simulated": int(counters.get("serve.exec.simulated", 0)),
                "analytic": int(counters.get("serve.exec.analytic", 0)),
                "retries": int(counters.get("serve.exec.retries", 0)),
                "tier_fallbacks": int(
                    counters.get("serve.tier.fallback", 0)
                ),
                "degraded": self._degraded,
            },
            "scenario": {
                "requests": int(
                    counters.get("serve.scenario.requests", 0)
                ),
                "hot": int(counters.get("serve.scenario.hot", 0)),
                "coalesced": int(
                    counters.get("serve.scenario.coalesced", 0)
                ),
                "store": int(counters.get("serve.scenario.store", 0)),
                "computed": int(
                    counters.get("serve.scenario.computed", 0)
                ),
                "store_root": (
                    str(self.scenario_store.root)
                    if self.scenario_store is not None else None
                ),
            },
            "speculation": {
                "enabled": self.speculate,
                "queued": self._spec_queue.qsize(),
                "enqueued": int(
                    counters.get("serve.speculate.enqueued", 0)
                ),
                "warmed": int(counters.get("serve.speculate.warmed", 0)),
                "dropped": int(counters.get("serve.speculate.dropped", 0)),
                "shed": int(counters.get("serve.speculate.shed", 0)),
                "failed": int(counters.get("serve.speculate.failed", 0)),
            },
            "policy": {
                "tier": self.policy.tier,
                "max_workers": self.policy.max_workers,
                "timeout": self.policy.timeout,
                "retries": self.policy.retries,
            },
        }
