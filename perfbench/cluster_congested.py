"""``cluster-congested``: many-rank two-tier scenarios under contention.

A seeded round of 32-128-rank ``two-tier`` specs (halo, all-to-all,
cross-leaf ping-pong) with constant, on/off or all-to-all background
traffic and CPU hogs, each through ``run_scenario`` with its quiet twin.
The round runs again and again for the length of the run.
"""

from __future__ import annotations

import json
import time

import inputs
from harness import Outcome, digest_of, median


#: Seconds one pass (the round cold, then its warm rerun) takes on a
#: 2-core x86 host with Python 3.11, quiet twins included; sizes the run.
PASS_SECONDS = 5.0


class State:
    pass


def setup(seed: int, seconds: int, workdir, root) -> State:
    from repro.scenario.spec import ScenarioSpec

    st = State()
    st.workdir = workdir
    st.passes = max(2, round(seconds / PASS_SECONDS))
    st.specs = [
        ScenarioSpec.from_jsonable(d)
        for d in inputs.scenario_specs(seed, 1)
    ]
    return st


def _document(result) -> str:
    return json.dumps(result.to_jsonable(), sort_keys=True)


def run(st: State, tracer, e2e: bool = True) -> Outcome:
    """The round, once per pass, each pass into a fresh ``ScenarioStore``.

    A pass runs every spec cold (its quiet twin too, both written to the
    store), then reruns the round with the congested results dropped
    from the store but the quiet twins kept: the rerun a user makes
    after changing the traffic, with every slowdown baseline stored.
    The traced run makes one pass.
    """
    # run_scenario is looked up on the module per call, so the traced
    # pass goes through its span wrapper.
    import repro.scenario.runner as runner

    passes = st.passes if e2e else 1
    cpu = []
    st.outputs = []
    oc = Outcome(attempted=passes * len(st.specs), failed=0, cpu_s=0.0)
    for p in range(passes):
        store = runner.ScenarioStore(st.workdir / f"scenarios-{p}")
        times, documents = [], []
        st.speed.open()
        c0 = time.process_time()
        for spec in st.specs:
            st.speed.tick()
            t0 = time.perf_counter()
            try:
                result, _ = runner.run_scenario(spec, cache=store)
            except runner.ScenarioExecutionError:
                oc.failed += 1
                documents.append("failed")
                continue
            times.append(time.perf_counter() - t0)
            documents.append(_document(result))
            if result.slowdown < 1.0 - 1e-9:
                oc.problems.append(
                    f"{spec.name}: congested run faster than its quiet "
                    f"twin (slowdown {result.slowdown:.4f})")
        cpu.append(time.process_time() - c0)
        for spec in st.specs:
            store.invalidate(spec.fingerprint())
        rerun = []
        t0 = time.perf_counter()
        for spec in st.specs:
            st.speed.tick()
            rerun.append(runner.run_scenario(spec, cache=store)[0])
        warm = time.perf_counter() - t0
        if [_document(r) for r in rerun] != documents:
            oc.problems.append("warm rerun differs from the cold run")
        oc.windows.append({"cold": sum(times), "times": times, "warm": warm,
                           "slowness": st.speed.close()})
        st.outputs.append(documents)
    oc.cpu_s = median(cpu)
    oc.engine_s = median(w["cold"] for w in oc.windows)
    oc.events = tracer.engine_events() if tracer else 0
    oc.cache_roots = {"scenario": store.root}
    return oc


def check(st: State, oc: Outcome) -> None:
    """Congestion never helps (checked as the run goes); warm reruns
    equal the cold run; every pass equals the first."""
    if any(documents != st.outputs[0] for documents in st.outputs):
        oc.problems.append("scenario results differ between passes")
    oc.digest = digest_of(st.outputs[0])
