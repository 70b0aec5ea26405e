"""The repository benchmark: one seeded workload, measured end to end.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program exactly
as shipped.  ``--trace 1`` runs the timed phase once untraced, then
again with span wrappers around the layers' public entry points and a
cProfile pass, and reports the per-layer metrics.  Metric names, units
and the workload list are read from ``BENCHMARK.json`` at the root, and
a run that would emit a different set of names fails.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it carry the
run's output digest and host facts.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

# Set-up time starts here: everything below, including the first import
# of the program, is work a user pays before the timed phase.
T_START = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent

WORKLOADS = {
    "sweep-cold": "sweep_cold",
    "cluster-congested": "cluster_congested",
    "serve-openloop": "serve_openloop",
    "tooling-cache": "tooling_cache",
}

#: Set-ups measured per run (this process plus fresh interpreters);
#: ``setup_s`` is the median of their times over the host's slowness
#: right after each (see harness.HostSpeed).
SETUP_SAMPLES = 3

#: Environment variables that would point the program's stores or
#: executor somewhere other than the run's own work directory.
PROGRAM_ENV = (
    "REPRO_SWEEP_CACHE", "REPRO_SCENARIO_CACHE", "REPRO_VERIFY_CACHE",
    "REPRO_EXEC_WORKERS", "REPRO_EXEC_TIER", "REPRO_EXEC_TIMEOUT",
    "REPRO_EXEC_RETRIES",
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a fresh interpreter that only sets up and reports.
    p.add_argument("--setup-only", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def load_catalog(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {
        "e2e": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def setup_slowness() -> float:
    """The host's slowness right after a set-up (see harness.HostSpeed).

    Set-up is the one figure that gets no window of its own, so this
    one is long: with ten samples, a lull in the host's contention just
    after a set-up sometimes read the host up to 1.5x faster than it
    was, and in one set of ten runs four reported a set-up 30-50% too
    long.
    """
    from harness import HostSpeed

    speed = HostSpeed()
    speed.open()
    speed.sample(24)
    return speed.close()


def child_setup(args: argparse.Namespace, workdir: Path) -> tuple:
    """(set-up seconds, slowness) measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-only", str(workdir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["setup_s"], doc["slowness"]


def traced_pass(module, args, root: Path, workdir: Path, trace_path: Path):
    """One timed phase under span wrappers and cProfile."""
    from harness import (
        HostSpeed, Tracer, instrument_program, layer_metrics,
        package_self_times, tree_bytes,
    )

    state = module.setup(args.seed, args.seconds, workdir, root)
    state.speed = HostSpeed()
    tracer = Tracer()
    instrument_program(tracer)
    if hasattr(module, "instrument"):
        module.instrument(tracer)
    gc.collect()
    profile = cProfile.Profile()
    profile.enable()
    try:
        outcome = module.run(state, tracer, e2e=False)
    finally:
        profile.disable()
        tracer.restore()
    module.check(state, outcome)
    tracer.write_jsonl(trace_path)
    layer = layer_metrics(
        tracer, package_self_times([profile, *tracer.thread_profiles])
    )
    layer.update(outcome.layer)
    for ns, path in outcome.cache_roots.items():
        layer[f"store.{ns}.bytes"] = tree_bytes(path)
    return outcome, layer


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found under the current directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    for name in PROGRAM_ENV:
        os.environ.pop(name, None)
    # One vCPU for the whole run, child interpreters included: the
    # reference loop then times the CPU the program runs on, threads
    # too (see harness.HostSpeed).  The workloads are serial.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    module = importlib.import_module(WORKLOADS[args.workload])

    if args.setup_only is not None:
        module.setup(args.seed, args.seconds, Path(args.setup_only), root)
        setup_s = time.perf_counter() - T_START
        print(json.dumps({"setup_s": setup_s,
                          "slowness": setup_slowness()}))
        return 0

    catalog = load_catalog(root)
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, module, catalog, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def measure(args, module, catalog: dict, root: Path, workdir: Path) -> int:
    from harness import HostSpeed, e2e_figures, metric, peak_rss_mb

    state = module.setup(args.seed, args.seconds, workdir / "main", root)
    setups = [(time.perf_counter() - T_START, setup_slowness())]
    if not args.trace:  # setup_s is an end-to-end metric
        for i in range(SETUP_SAMPLES - 1):
            setups.append(child_setup(args, workdir / f"setup-{i}"))

    state.speed = HostSpeed()
    gc.collect()  # the timed phase starts from the same collector state
    outcome = module.run(state, None, e2e=not args.trace)
    module.check(state, outcome)
    problems = list(outcome.problems)
    if args.trace:
        trace_path = (root / ".perfbench_trace"
                      / f"{args.workload}-seed{args.seed}.jsonl")
        traced, layer = traced_pass(module, args, root, workdir / "traced",
                                    trace_path)
        problems += [f"traced: {p}" for p in traced.problems]
        if traced.digest != outcome.digest:
            problems.append("traced and untraced outputs differ")
        layer["sim.us_per_event"] = (
            outcome.engine_s / traced.events * 1e6 if traced.events else 0.0
        )
        layer["obs.trace_overhead_frac"] = (
            traced.cpu_s - outcome.cpu_s
        ) / outcome.cpu_s
        if "sim.anchor_err_max" not in layer:
            import sweep_cold

            layer["sim.anchor_err_max"] = sweep_cold.anchor_err_max()
        values, units = layer, catalog["layer"]
    else:
        units = catalog["e2e"]
        # Times and rates as on the uncontended host (HostSpeed); the raw
        # figures go to the run line.
        values = e2e_figures(outcome.windows, normalise=True)
        values["setup_s"] = statistics.median(t / s for t, s in setups)
        values["peak_rss_mb"] = peak_rss_mb()
        outcome.info["raw_e2e"] = {
            **e2e_figures(outcome.windows, normalise=False),
            "setup_s": statistics.median(t for t, _ in setups),
        }

    emitted, declared = set(values), set(units)
    if emitted != declared:
        print(f"perfbench: metric names differ from BENCHMARK.json: "
              f"undeclared {sorted(emitted - declared)}, "
              f"missing {sorted(declared - emitted)}", file=sys.stderr)
        return 3

    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "digest": outcome.digest,
        "setup_samples_s": [t for t, _ in setups],
        "host_slowness": [s for _, s in setups]
        + [w["slowness"] for w in outcome.windows],
        "nproc": os.cpu_count(), "cpus_used": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **outcome.info,
    }
    print("run " + json.dumps(info, sort_keys=True))
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": min(outcome.attempted, outcome.failed + len(problems)),
        "metrics": {
            name: metric(float(values[name]), units[name])
            for name in sorted(units)
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
