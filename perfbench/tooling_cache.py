"""``tooling-cache``: static analysis and verification, cold then warm.

Each cycle runs ``repro check`` over ``src`` (``Project.from_paths`` +
``analyze_project``) and ``verify_universe``, first on empty AST,
summary and verdict caches, then again on the caches that pass filled.
Between cycles the workload replays a seeded sample of sweeps from a
filled ``SweepCache`` and congested-cluster specs from a filled
``ScenarioStore``: one replay is one operation for ``throughput_per_s``,
``p50_ms`` and ``p99_ms``.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import inputs
from harness import Outcome, digest_of, median, tree_bytes


#: Seconds one cold+warm check/verify cycle takes on a 2-core x86 host
#: with Python 3.11; sizes the run.
CYCLE_SECONDS = 5.0

#: Replay rounds after each cycle (each replays every stored sweep and
#: scenario once).
REPLAY_ROUNDS = 10


class State:
    pass


def setup(seed: int, seconds: int, workdir, root) -> State:
    import repro.check.rules  # noqa: F401  (rule registry import)
    import repro.verify.universe  # noqa: F401
    from repro.exec import ExecPolicy, SweepCache, execute_with_policy
    from repro.scenario.runner import ScenarioStore, run_scenario
    from repro.scenario.spec import ScenarioSpec
    from repro.serve.api import ServeQuery

    st = State()
    st.workdir = workdir
    # Relative to the repository root (run.py runs from it), as
    # ``repro check src`` is typed there: the analyzer skips a file if
    # any part of its path starts with ".", so absolute paths of a
    # checkout under a hidden directory would find no sources at all.
    st.src = Path("src")
    st.cycles = max(2, round(seconds / CYCLE_SECONDS))
    st.policy = ExecPolicy(max_workers=1, tier="sim")
    universe = inputs.sweep_universe()
    st.sweeps = [
        ServeQuery.from_jsonable(q).resolve()
        for q in inputs.per_library_sample(seed, universe, 2)
    ]
    # The cheaper kinds of one congested-cluster round (the 64- and
    # 128-rank halos would dominate set-up for the same replay work).
    st.specs = [
        ScenarioSpec.from_jsonable(d)
        for d in inputs.scenario_specs(seed, 1, tag="tc")
        if not (d["workload"]["kind"] == "halo" and d["nranks"] >= 64)
    ]
    st.sweep_root = workdir / "sweeps"
    st.scenario_root = workdir / "scenarios"
    execute_with_policy(st.sweeps, st.policy,
                        cache=SweepCache(st.sweep_root))
    store = ScenarioStore(st.scenario_root)
    for spec in st.specs:
        run_scenario(spec, cache=store)
    st.passes = 0
    return st


def _check_and_verify(st: State, tracer, ast_root, verify_root) -> dict:
    """One ``check src`` + ``verify_universe`` pass over given caches."""
    from repro.check.analyzer import analyze_project
    from repro.check.project import AstCache, Project

    def call(name, fn, *args, **kwargs):
        if tracer is None:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, *args, **kwargs)

    gc.collect()  # each pass starts from the same collector state
    t0 = time.perf_counter()
    project = call("check.load", Project.from_paths, [st.src],
                   cache=AstCache(ast_root))
    t1 = time.perf_counter()
    findings = call("check.analyze", analyze_project, project)
    t2 = time.perf_counter()
    report = call("verify.universe", _verify_universe, st, verify_root)
    t3 = time.perf_counter()
    return {
        "seconds": t3 - t0, "load_s": t1 - t0, "analyze_s": t2 - t1,
        "universe_s": t3 - t2,
        "findings": [f.to_dict() for f in findings],
        "verdicts": [v.to_dict() for v in report.verdicts],
        "counterexamples": len(report.counterexamples),
        "ast_hits": project.stats.cache_hits,
        "summaries_reused": project.stats.summaries_reused,
        "verify_hits": report.cache_hits,
    }


def _verify_universe(st: State, verify_root):
    """``verify_universe`` over endpoint models compiled from the
    relative ``src`` path (its default is the package's absolute path;
    see :func:`setup`)."""
    from repro.verify.universe import build_models, verify_universe

    models = build_models([st.src / "repro" / "mplib"])
    return verify_universe(cache_dir=verify_root, models=models)


def _replay(st: State, outputs: list[str], problems: list[str]) -> list:
    """Every stored sweep and scenario once: each replay's seconds."""
    from repro.core.io import result_to_dict
    from repro.exec import SweepCache, execute_with_policy
    from repro.scenario.runner import ScenarioStore, run_scenario

    latencies = []
    sweep_cache = SweepCache(st.sweep_root)
    for request in st.sweeps:
        st.speed.tick()
        t0 = time.perf_counter()
        results, report = execute_with_policy([request], st.policy,
                                              cache=sweep_cache)
        latencies.append(time.perf_counter() - t0)
        if report.cache_hits != 1:
            problems.append(f"sweep replay of {request.label} simulated")
        outputs.append(json.dumps(result_to_dict(results[0])))
    store = ScenarioStore(st.scenario_root)
    for spec in st.specs:
        st.speed.tick()
        t0 = time.perf_counter()
        result, report = run_scenario(spec, cache=store)
        latencies.append(time.perf_counter() - t0)
        if not report.cached:
            problems.append(f"scenario replay of {spec.name} simulated")
        outputs.append(json.dumps(result.to_jsonable(), sort_keys=True))
    return latencies


def run(st: State, tracer, e2e: bool = True) -> Outcome:
    problems: list[str] = []
    cold, warm = [], []
    outputs: list[str] = []
    cycles = st.cycles if e2e else 1
    windows = []
    c_start = time.process_time()
    for _ in range(cycles):
        st.passes += 1
        ast_root = st.workdir / f"ast-{st.passes}"
        verify_root = st.workdir / f"verify-{st.passes}"
        st.speed.open()
        for passes in (cold, warm):
            passes.append(_check_and_verify(st, tracer, ast_root,
                                            verify_root))
            st.speed.sample(2)
        times = []
        for _ in range(REPLAY_ROUNDS):
            gc.collect()  # leave the check passes' garbage behind
            times += _replay(st, outputs, problems)
        windows.append({"cold": cold[-1]["seconds"],
                        "warm": warm[-1]["seconds"], "times": times,
                        "slowness": st.speed.close()})
    cpu = time.process_time() - c_start
    st.passes_run = (cold, warm, outputs)

    ops = len(st.sweeps) + len(st.specs)
    oc = Outcome(attempted=cycles * 2 + ops * REPLAY_ROUNDS * cycles,
                 failed=0, cpu_s=cpu, problems=problems, windows=windows)
    oc.layer = {
        "check.load_cold_s": median(p["load_s"] for p in cold),
        "check.load_s": median(p["load_s"] for p in warm),
        "check.analyze_s": median(p["analyze_s"] for p in warm),
        "check.ast_hits": warm[0]["ast_hits"],
        "check.summaries_reused": warm[0]["summaries_reused"],
        "verify.universe_s": median(p["universe_s"] for p in warm),
        "verify.cache_hits": warm[0]["verify_hits"],
    }
    # AST pickles and function summaries share one generation directory.
    ast_root = st.workdir / f"ast-{st.passes}"
    oc.layer["store.ast.bytes"] = tree_bytes(ast_root, ".ast")
    oc.layer["store.summary.bytes"] = tree_bytes(ast_root, ".sum.json")
    oc.cache_roots = {
        "sweep": st.sweep_root, "scenario": st.scenario_root,
        "verdict": st.workdir / f"verify-{st.passes}",
    }
    return oc


def check(st: State, oc: Outcome) -> None:
    """0 findings, 0 counterexamples; warm equals cold; replays repeat."""
    cold, warm, outputs = st.passes_run
    first = cold[0]
    for p in cold + warm:
        if p["findings"]:
            oc.problems.append(f"check reported {len(p['findings'])} "
                               "findings on src")
        if p["counterexamples"]:
            oc.problems.append(f"verify found {p['counterexamples']} "
                               "counterexamples")
        if (p["findings"], p["verdicts"]) != (first["findings"],
                                              first["verdicts"]):
            oc.problems.append("warm findings or verdicts differ from cold")
    ops = len(st.sweeps) + len(st.specs)
    if any(outputs[i:i + ops] != outputs[:ops]
           for i in range(ops, len(outputs), ops)):
        oc.problems.append("replayed answers changed between rounds")
    oc.digest = digest_of(
        [json.dumps(first["verdicts"], sort_keys=True)] + outputs[:ops]
    )
