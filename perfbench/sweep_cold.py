"""``sweep-cold``: serial cold NetPIPE sweeps on the simulator tier.

The paper's own work: a seeded block of two-node sweeps over the
runnable library x config x tuned x MTU universe, always including every
figure 1-5 curve, run by ``execute_with_policy`` into a fresh
``SweepCache`` (so store writes happen here).  The block runs again and
again for the length of the run.
"""

from __future__ import annotations

import time

import inputs
from harness import Outcome, digest_of, median


#: Universe sweeps per library in the block; with the 30 figure curves
#: a block is ~142 cold sweeps, ~1.8 s on a 2-core x86 host with
#: Python 3.11 (70-90 cold sweeps/s).
PER_LIBRARY = 4

#: Seconds one block (figure pass, sample sweeps, warm replay) takes on
#: that host; sizes the run.
BLOCK_SECONDS = 2.0


class State:
    pass


def setup(seed: int, seconds: int, workdir, root) -> State:
    from repro.exec import ExecPolicy
    from repro.serve.api import ServeQuery

    st = State()
    st.workdir = workdir
    st.root = root
    st.figs = inputs.figure_requests()
    # Universe queries that ask for a figure curve again would be cache
    # hits, not cold sweeps.
    figure_fps = {r.fingerprint() for r in st.figs}
    universe = [
        q for q in inputs.sweep_universe()
        if ServeQuery.from_jsonable(q).resolve().fingerprint()
        not in figure_fps
    ]
    # Stratified by library: a sweep's cost depends mostly on its
    # library, so every seed's block costs about the same.
    st.sample = [
        ServeQuery.from_jsonable(q).resolve()
        for q in inputs.per_library_sample(seed, universe, PER_LIBRARY)
    ]
    st.blocks = max(2, round(seconds / BLOCK_SECONDS))
    st.policy = ExecPolicy(max_workers=1, tier="sim")
    st.passes = 0
    return st


def run(st: State, tracer, e2e: bool = True) -> Outcome:
    """The block, once per pass, each pass into a fresh ``SweepCache``.

    A block is the cold figure pass (all 30 figure 1-5 curves in one
    ``execute_with_policy`` call, as a user runs them), the sample's
    sweeps one call each, and a warm replay of both from the cache the
    block filled.  The traced run makes one pass.
    """
    # The executor is looked up on the package per call, so the traced
    # pass goes through its span wrapper.
    import repro.exec as rexec
    from repro.exec import SweepCache, SweepExecutionError, canonicalize

    blocks = st.blocks if e2e else 1
    cpu = []
    st.outputs = []
    oc = Outcome(attempted=blocks * (len(st.figs) + len(st.sample)),
                 failed=0, cpu_s=0.0)
    for _ in range(blocks):
        st.passes += 1
        cache = SweepCache(st.workdir / f"sweep-{st.passes}")
        st.speed.open()
        c0 = time.process_time()
        t0 = time.perf_counter()
        figs, _ = rexec.execute_with_policy(st.figs, st.policy, cache=cache)
        cold = time.perf_counter() - t0
        results: list = list(figs)
        times = []
        for request in st.sample:
            st.speed.tick()
            t0 = time.perf_counter()
            try:
                out, _ = rexec.execute_with_policy([request], st.policy,
                                                   cache=cache)
            except SweepExecutionError:
                oc.failed += 1
                results.append(None)
                continue
            times.append(time.perf_counter() - t0)
            results.append(out[0])
        cpu.append(time.process_time() - c0)
        replayed = st.figs + st.sample
        t0 = time.perf_counter()
        _, report = rexec.execute_with_policy(replayed, st.policy,
                                              cache=cache)
        warm = time.perf_counter() - t0
        if report.cache_hits != len(replayed):
            oc.problems.append(f"warm replay simulated "
                               f"{report.sweeps_simulated} curves")
        oc.windows.append({"cold": cold, "times": times, "warm": warm,
                           "slowness": st.speed.close()})
        st.outputs.append(results)
    oc.cpu_s = median(cpu)
    oc.engine_s = median(w["cold"] + sum(w["times"]) for w in oc.windows)
    oc.events = tracer.engine_events() if tracer else 0
    oc.cache_roots = {"sweep": cache.root}
    st.digests = [
        digest_of(canonicalize(r) if r is not None else "failed"
                  for r in results)
        for results in st.outputs
    ]
    return oc


def check(st: State, oc: Outcome) -> None:
    """Golden digests, the 46 anchors, and every pass equal to the first."""
    if len(set(st.digests)) != 1:
        oc.problems.append("sweep results differ between passes")
    _check_figures(st, st.outputs[0], oc)
    oc.digest = st.digests[0]


def _check_figures(st: State, results: list, oc: Outcome) -> None:
    """Figure curves equal their pinned golden digests; 46 anchors pass."""
    import hashlib
    import json

    from repro.exec import canonicalize
    from repro.experiments import ALL_FIGURES

    golden = json.loads(
        (st.root / "tests" / "golden_curves.json").read_text()
    )["digests"]
    by_fig: dict[str, dict] = {}
    i = 0
    for fig in ALL_FIGURES:
        curves = {}
        for label in fig.labels():
            curves[label] = results[i]
            i += 1
        by_fig[fig.id] = curves
        for label, result in curves.items():
            if result is None:
                oc.problems.append(f"{fig.id}/{label}: sweep failed")
                continue
            got = hashlib.sha256(canonicalize(result).encode()).hexdigest()
            if got != golden.get(fig.id, {}).get(label):
                oc.problems.append(f"{fig.id}/{label}: golden digest differs")
    rows = audit_rows(by_fig)
    if len(rows) != 46:
        oc.problems.append(f"audited {len(rows)} anchors, expected 46")
    for row in rows:
        if not row.ok:
            oc.problems.append(f"anchor {row.anchor.id} out of tolerance")
    oc.layer["sim.anchor_err_max"] = _err_max(rows)


def audit_rows(by_fig: dict[str, dict]) -> list:
    """The 46 paper anchors: figures 1-5 from ``by_fig``, table 3 fresh."""
    from repro.experiments import ALL_FIGURES
    from repro.experiments.tables import audit_table_t3

    rows = []
    for fig in ALL_FIGURES:
        if all(r is not None for r in by_fig[fig.id].values()):
            rows.extend(fig.audit(by_fig[fig.id]))
    rows.extend(audit_table_t3())
    return rows


def _err_max(rows: list) -> float:
    return max(
        abs(row.measured - row.anchor.expected) / abs(row.anchor.expected)
        for row in rows
    )


def anchor_err_max() -> float:
    """Largest relative anchor error from a fresh figures 1-5 run."""
    from repro.experiments import ALL_FIGURES

    return _err_max(audit_rows({fig.id: fig.run() for fig in ALL_FIGURES}))
