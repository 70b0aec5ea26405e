"""``serve-openloop``: Poisson arrivals of JSON lines into one ServeCore.

The generator is one asyncio task in the benchmark's process, with no
sockets: each request line goes through ``handle_line`` and its reply is
JSON-encoded as the TCP front end would.  The core runs the ``serve``
CLI defaults (hot 128, ``max_pending`` 8, speculation on) with
``tier="auto"`` over a disk tier pre-filled with a seeded ~90% of the
(pair x tuned) keyspace.  Latency is timed from each request's due time,
so a stall is charged to every request it delays.

The timed phase is a fixed-rate open-loop run at :data:`NOMINAL_RPS`
(its latencies, timed from due times with failed or shed requests as
misses, go to the ``run`` line and the traced run), then rounds of a
closed loop on the warm core, each over the same request lines: their
rate is ``throughput_per_s`` and their latencies ``p50_ms`` and
``p99_ms``.  Before every round, a fresh core answers three keys of
every library cold and then hot (``cold_s``, ``warm_s``).
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import shutil
import time

import inputs
from harness import Outcome, digest_of, median, percentile


#: The latency limit on p99; a failed or shed request misses it.
LATENCY_LIMIT_MS = 50.0

#: Offered rate of the measured phase.  The open-loop tail on a shared
#: host is steady only well below saturation (the warm core answers
#: ~1000-1500 requests/s back to back on a 2-core x86 host with Python
#: 3.11); near saturation one stalled second decides the p99.
NOMINAL_RPS = 80.0

#: A fixed-rate run is valid only while the generator keeps to its
#: schedule.  Stalls of the shared event loop delay the generator and the
#: requests alike and are charged to the requests (they are timed from
#: their due times); a generator whose *median* lateness passes this has
#: fallen behind the schedule itself, and the run is marked invalid.
LATE_LIMIT_MS = 5.0

#: Shares of the run: an unmeasured warm-up at the nominal rate (the
#: service has been up a while: popular keys are hot), the measured
#: nominal phase, and the rest for the closed-loop rounds.
WARMUP_SHARE, NOMINAL_SHARE = 0.1, 0.4

#: Request lines in one closed-loop round (about: they are drawn like
#: the open loop's, over ROUND_REQUESTS / NOMINAL_RPS seconds), and
#: seconds one round with its cold and warm batches takes on a 2-core
#: x86 host with Python 3.11.  A round's p99 is its ~10th slowest
#: request, so it does not hinge on the few costliest kinds of request
#: one seed happens to draw.
ROUND_REQUESTS = 1000
ROUND_SECONDS = 2.0

#: Keys of every library in the cold batch, and hot repetitions of it.
BATCH_KEYS = 3
WARM_REPS = 10

#: Served curves re-checked against a fresh executor answer.
VERIFY_SAMPLE = 24

#: Share of the (pair x tuned) keyspace on disk before the run, and the
#: share of nominal-phase requests that are new questions about the rest.
#: Each new question runs the simulator and sets off speculation.
PREFILL_SHARE = 0.9
COLD_SHARE = 0.025


class State:
    pass


def setup(seed: int, seconds: int, workdir, root) -> State:
    from repro.exec import ExecPolicy, SweepCache, execute_with_policy
    from repro.serve.api import ServeQuery

    st = State()
    st.seed = seed
    st.workdir = workdir
    st.policy = ExecPolicy(max_workers=1, tier="auto")
    universe = inputs.sweep_universe()
    st.keys = inputs.serve_keyspace(universe)
    st.pool = inputs.serve_scenario_pool(seed)
    st.prefill_root = workdir / "prefill"
    st.warm_keys, cold_keys = inputs.serve_split(seed, st.keys,
                                                 PREFILL_SHARE)
    execute_with_policy(
        [ServeQuery.from_jsonable(k).resolve() for k in st.warm_keys],
        st.policy, cache=SweepCache(st.prefill_root),
    )
    _warm_imports()
    st.warmup = inputs.serve_arrivals(
        seed, st.warm_keys, [], 0.0, NOMINAL_RPS, seconds * WARMUP_SHARE,
        "warmup", st.pool
    )
    st.arrivals = inputs.serve_arrivals(
        seed, st.warm_keys, cold_keys, COLD_SHARE, NOMINAL_RPS,
        seconds * NOMINAL_SHARE, "nominal", st.pool
    )
    st.cold_lines = {json.dumps({"op": "query", "query": k})
                     for k in cold_keys}
    st.rounds = max(2, round(
        seconds * (1 - WARMUP_SHARE - NOMINAL_SHARE) / ROUND_SECONDS))
    st.round_lines = [a.line for a in inputs.serve_arrivals(
        seed, st.warm_keys, [], 0.0, NOMINAL_RPS,
        ROUND_REQUESTS / NOMINAL_RPS, "closed", st.pool
    )]
    # The same probe for every seed, like sweep-cold's figure curves: a
    # cold answer's cost depends on the key (library, config), and a
    # seeded probe of 84 keys still spread 0.1 of its median over seeds.
    st.batch = [
        json.dumps({"op": "query", "query": k})
        for k in inputs.per_library_sample(0, st.keys, BATCH_KEYS)
    ]
    st.passes = 0
    return st


def _warm_imports() -> None:
    """Finish the program's lazy imports before timing: the first
    scenario op or crossover otherwise pays them inside a request."""
    import repro.analysis.compare  # noqa: F401
    import repro.analysis.cost  # noqa: F401
    import repro.scenario.compose  # noqa: F401
    import repro.serve.frontend  # noqa: F401


def _core(st: State, prefilled: bool):
    """A fresh core over a private copy of the pre-filled disk tier."""
    from repro.exec import SweepCache
    from repro.scenario.runner import ScenarioStore
    from repro.serve import ServeCore

    st.passes += 1
    root = st.workdir / f"core-{st.passes}"
    if prefilled:
        shutil.copytree(st.prefill_root, root / "sweeps")
    return ServeCore(
        cache=SweepCache(root / "sweeps"), policy=st.policy, hot_size=128,
        max_pending=8, speculate=True,
        scenario_cache=ScenarioStore(root / "scenarios"),
    )


class Phase:
    """One open-loop run: per-request outcomes in arrival order.

    Replies are kept as the encoded lines, which the collector does not
    track: a thousand parsed curves held here would lengthen every
    collection in the serving process and charge the harness's memory
    to the service's tail latency.
    """

    def __init__(self, arrivals: list) -> None:
        self.arrivals = arrivals
        self.latency = [math.inf] * len(arrivals)
        self.late = [0.0] * len(arrivals)
        self.ok = [False] * len(arrivals)
        self.source: list[str | None] = [None] * len(arrivals)
        self.encoded: list[str | None] = [None] * len(arrivals)
        self.duration = 0.0

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def p(self, q: float) -> float:
        """Latency percentile in ms; failed requests count as misses."""
        return percentile(self.latency, q) * 1e3


async def _open_loop(core, arrivals: list, tracer) -> Phase:
    from repro.serve.frontend import handle_line

    phase = Phase(arrivals)
    loop = asyncio.get_running_loop()
    t0 = loop.time()

    async def one(i: int, due: float) -> None:
        phase.late[i] = loop.time() - due
        line = arrivals[i].line
        if tracer is not None:
            doc = await tracer.acall("serve.request", i, handle_line,
                                     core, line)
            encoded = tracer.call("serve.encode", json.dumps, doc)
        else:
            doc = await handle_line(core, line)
            encoded = json.dumps(doc)
        phase.latency[i] = loop.time() - due
        phase.ok[i] = doc["ok"]
        phase.source[i] = doc.get("response", doc).get("source")
        phase.encoded[i] = encoded

    tasks = []
    for i, arrival in enumerate(arrivals):
        due = t0 + arrival.due
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(one(i, due)))
    await asyncio.gather(*tasks)
    phase.duration = loop.time() - t0
    return phase


async def _batch(core, lines: list[str], speed) -> list[float]:
    """Answer ``lines`` one after another: each one's seconds."""
    from repro.serve.frontend import handle_line

    times = []
    for line in lines:
        speed.tick()
        t0 = time.perf_counter()
        reply = await handle_line(core, line)
        json.dumps(reply)
        times.append(time.perf_counter() - t0)
        if not reply["ok"]:
            raise RuntimeError(f"batch query failed: {reply['error']}")
    return times


async def _round(st: State, core) -> dict:
    """The batch on a core with empty caches, then hot on the same core;
    then the closed loop on the serving core: one window."""
    st.speed.open()
    fresh = _core(st, prefilled=False)
    try:
        cold = sum(await _batch(fresh, st.batch, st.speed))
        warm = [sum(await _batch(fresh, st.batch, st.speed))
                for _ in range(WARM_REPS)]
    finally:
        await fresh.aclose()
    times = await _batch(core, st.round_lines, st.speed)
    return {"cold": cold, "warm": median(warm), "times": times,
            "slowness": st.speed.close()}


async def _run(st: State, tracer, e2e: bool) -> Outcome:
    windows: list[dict] = []
    core = _core(st, prefilled=True)
    try:
        await _open_loop(core, st.warmup, None)
        await core.drain_speculation()
        before = core.stats()
        t_phase = time.monotonic()  # the serving core's span clock
        c_start = time.process_time()
        phase = await _open_loop(core, st.arrivals, tracer)
        cpu = time.process_time() - c_start
        stats = _delta(core.stats(), before)
        spans = [s for s in core.obs.spans_by_cat("serve")
                 if s.t0 >= t_phase]
        compute_spans = [
            s for s in spans
            if s.name in ("serve.compute", "serve.scenario.compute")
        ]
        queue = [s.duration for s in spans if s.name == "serve.queue"]
        served_root = core.cache.root
        if e2e:
            await core.drain_speculation()
            for _ in range(st.rounds):
                windows.append(await _round(st, core))
    finally:
        await core.aclose()

    batches = len(st.round_lines) + len(st.batch) * (1 + WARM_REPS)
    oc = Outcome(attempted=len(phase.arrivals) + len(windows) * batches,
                 failed=phase.failed,
                 cpu_s=cpu,
                 engine_s=sum(s.duration for s in compute_spans),
                 events=tracer.engine_events() if tracer else 0,
                 windows=windows)
    late_p99 = percentile(phase.late, 99) * 1e3
    achieved = (len(phase.ok) - phase.failed) / phase.duration
    oc.info.update(offered_rps=NOMINAL_RPS, achieved_rps=achieved,
                   late_p99_ms=late_p99, open_loop_p50_ms=phase.p(50),
                   open_loop_p99_ms=phase.p(99),
                   p99_within_limit=phase.p(99) <= LATENCY_LIMIT_MS)
    late_p50 = percentile(phase.late, 50) * 1e3
    oc.info["late_p50_ms"] = late_p50
    # The traced pass runs the service several times slower under the
    # profiler and reports no latencies, so only untraced runs are judged.
    if tracer is None and late_p50 > LATE_LIMIT_MS:
        oc.problems.append(
            f"invalid run: load generator fell behind (median lateness "
            f"{late_p50:.1f} ms > {LATE_LIMIT_MS} ms); latencies not valid"
        )
    st.phase = phase


    answered = max(1, sum(stats["sources"].values()))
    warmed = stats["speculation"]["warmed"]
    # A new question answered from the hot tier was warmed by
    # speculation: nobody had asked it before.
    useful = sum(
        1 for arrival, source in zip(phase.arrivals, phase.source)
        if arrival.line in st.cold_lines and source == "hot"
    )
    oc.layer.update({
        "serve.hot_ratio": stats["sources"]["hot"] / answered,
        "serve.disk_ratio": stats["sources"]["disk"] / answered,
        "serve.computed": stats["sources"]["computed"],
        "serve.coalesced": stats["sources"]["coalesced"],
        "serve.shed": stats["shed"],
        "serve.queue_ms": percentile(queue, 99) * 1e3 if queue else 0.0,
        "serve.compute_ms": percentile(
            [s.duration for s in compute_spans], 99) * 1e3
        if compute_spans else 0.0,
        "serve.encode_us": (
            percentile(tracer.durations("serve.encode"), 50) * 1e6
            if tracer is not None else 0.0
        ),
        "serve.speculation.warmed": warmed,
        "serve.speculation.useful_ratio": useful / warmed if warmed else 0.0,
        "loadgen.late_p99_ms": late_p99,
        "loadgen.offered_rps": NOMINAL_RPS,
        "loadgen.achieved_rps": achieved,
    })
    oc.cache_roots = {"sweep": served_root}
    return oc


def check(st: State, oc: Outcome) -> None:
    """A seeded sample of the requested lines: each served answer equals
    a fresh computation.

    The sample and the digest come from the seeded request lines and
    the fresh answers only, so they do not depend on which requests the
    run happened to shed; a sampled line that never got an answer is
    already a failed request.
    """
    from repro.core.io import result_to_dict
    from repro.exec import execute_with_policy
    from repro.scenario.runner import run_scenario
    from repro.scenario.spec import ScenarioSpec
    from repro.serve.api import ServeQuery

    answered = {}
    for arrival, ok, encoded in zip(st.phase.arrivals, st.phase.ok,
                                    st.phase.encoded):
        if ok:
            answered.setdefault(arrival.line, encoded)
    lines = sorted({arrival.line for arrival in st.arrivals})
    rng = random.Random(f"serve-verify:{st.seed}")
    parts = []
    for line in rng.sample(lines, min(VERIFY_SAMPLE, len(lines))):
        request = json.loads(line)
        if request["op"] == "scenario":
            result, _ = run_scenario(
                ScenarioSpec.from_jsonable(request["spec"]))
            want = json.loads(json.dumps(result.to_jsonable()))
        else:
            query = ServeQuery.from_jsonable(request["query"])
            fresh, _ = execute_with_policy([query.resolve()], st.policy)
            want = json.loads(json.dumps(result_to_dict(fresh[0])))
        parts.append(json.dumps(want, sort_keys=True))
        if line not in answered:
            continue
        reply = json.loads(answered[line])
        got = (reply["scenario"] if request["op"] == "scenario"
               else reply["response"]["curve"])
        if got != want:
            oc.problems.append(f"served answer differs from a fresh "
                               f"computation: {line[:120]}")
    oc.digest = digest_of(parts)


def _delta(after: dict, before: dict) -> dict:
    """The stats counters accumulated between two ``core.stats()``."""
    return {
        "sources": {k: v - before["sources"][k]
                    for k, v in after["sources"].items()},
        "shed": after["shed"] - before["shed"],
        "speculation": {"warmed": after["speculation"]["warmed"]
                        - before["speculation"]["warmed"]},
    }


def run(st: State, tracer, e2e: bool = True) -> Outcome:
    return asyncio.run(_run(st, tracer, e2e))


def instrument(tracer) -> None:
    """Give the serving core's worker threads their own profilers."""
    import repro.scenario.runner as runner
    from repro.serve.core import ServeCore

    tracer.profile_in_threads(ServeCore, "_compute")
    tracer.profile_in_threads(runner, "run_scenario")
