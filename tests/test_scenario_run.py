"""End-to-end scenario runs: bit-identity, determinism, store replay.

The acceptance bar for the scenario layer is that it adds nothing to
the physics: a quiet 2-rank spec must reproduce the existing two-node
sweep *bit for bit*, background traffic must slow the foreground down
deterministically, and a warm store replay must be byte-identical to
the run that filled it.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.exec import SweepRequest, execute_sweeps
from repro.experiments import configs
from repro.mplib import REGISTRY
from repro.scenario import (
    ScenarioSpec,
    ScenarioStore,
    TopologySpec,
    TrafficSpec,
    CpuSpec,
    WorkloadSpec,
    load_spec,
    run_scenario,
)
from repro.scenario.cli import main as scenario_main
from tests.markers import requires_toml

pytestmark = pytest.mark.scenario

SIZES = (64, 1024, 16384)
EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "scenarios"


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="t", library="mpich", config="pc_netgear_ga620",
        workload=WorkloadSpec(sizes=SIZES),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


# -- bit-identity with the existing executor ---------------------------------
def test_quiet_two_rank_matches_execute_sweeps_bit_for_bit():
    spec = _spec()
    result, report = run_scenario(spec)
    assert report.attempts == 1 and not report.cached

    requests = [SweepRequest(
        "t", REGISTRY["mpich"](), configs.pc_netgear_ga620(), sizes=SIZES,
    )]
    (expected,), _ = execute_sweeps(requests)

    assert result.curve is not None
    got = [(p.size, p.oneway_time) for p in result.curve.points]
    want = [(p.size, p.oneway_time) for p in expected.points]
    assert got == want  # exact float equality — same engine, same path
    assert result.quiet_completion_time is None
    assert result.slowdown == 1.0


@requires_toml
def test_example_fig1_is_the_figure_one_curve():
    spec = load_spec(EXAMPLES / "fig1_mpich_quiet.toml")
    assert spec.is_two_node_baseline()
    result, _ = run_scenario(spec)
    (expected,), _ = execute_sweeps([SweepRequest(
        "fig1", REGISTRY[spec.library](), configs.pc_netgear_ga620(),
    )])
    assert [(p.size, p.oneway_time) for p in result.curve.points] == \
        [(p.size, p.oneway_time) for p in expected.points]


@requires_toml
def test_fig3_example_degenerates_to_the_baseline_when_stripped():
    # Removing the congestion knobs from the 16-rank example must land
    # exactly on the plain two-node curve for its library/config.
    spec = load_spec(EXAMPLES / "fig3_background_alltoall.toml")
    stripped = dataclasses.replace(
        spec, nranks=2, traffic=(), topology=TopologySpec(),
        workload=dataclasses.replace(spec.workload, ranks=(0, 1)),
    )
    assert stripped.is_two_node_baseline()
    result, _ = run_scenario(stripped)
    (expected,), _ = execute_sweeps([SweepRequest(
        "fig3", REGISTRY[spec.library](),
        configs.ds20_syskonnect_jumbo(), sizes=spec.workload.sizes,
    )])
    assert [(p.size, p.oneway_time) for p in result.curve.points] == \
        [(p.size, p.oneway_time) for p in expected.points]


# -- congestion physics ------------------------------------------------------
def test_background_traffic_slows_the_foreground():
    noisy = _spec(
        nranks=4,
        traffic=(TrafficSpec(kind="alltoall", rate=0.3),),
    )
    result, _ = run_scenario(noisy)
    assert result.quiet_completion_time is not None
    assert result.slowdown > 1.0
    assert result.background_bytes > 0
    assert all(f.achieved_mbps > 0 for f in result.flows)


def test_noisy_run_is_deterministic():
    spec = _spec(nranks=4, traffic=(TrafficSpec(kind="onoff", rate=0.4),))
    first, _ = run_scenario(spec)
    second, _ = run_scenario(spec)
    assert first.to_jsonable() == second.to_jsonable()


def test_seed_changes_the_traffic_not_the_quiet_baseline():
    a, _ = run_scenario(_spec(nranks=4, seed=1,
                              traffic=(TrafficSpec(rate=0.5),)))
    b, _ = run_scenario(_spec(nranks=4, seed=2,
                              traffic=(TrafficSpec(rate=0.5),)))
    # Same physics, different phase: baselines agree, interference varies.
    assert a.quiet_completion_time == b.quiet_completion_time
    assert a.completion_time != b.completion_time


def test_two_tier_uplink_hurts_cross_leaf_traffic():
    def run(topology):
        spec = _spec(
            nranks=8, topology=topology,
            workload=WorkloadSpec(ranks=(0, 7), sizes=(16384,), repeats=2),
            traffic=(TrafficSpec(kind="alltoall", rate=0.3),),
        )
        return run_scenario(spec)[0].completion_time

    crossbar = run(TopologySpec())
    two_tier = run(TopologySpec(kind="two-tier", leaf_size=4,
                                uplink_capacity=1))
    assert two_tier > crossbar


def test_cpu_load_dilates_halo_compute():
    quiet = _spec(workload=WorkloadSpec(kind="halo", iterations=3),
                  nranks=4)
    loaded = dataclasses.replace(quiet, cpu=CpuSpec(load=0.5))
    q, _ = run_scenario(quiet)
    l, _ = run_scenario(loaded)
    assert l.completion_time > q.completion_time
    assert l.slowdown > 1.0
    assert l.quiet_completion_time == q.completion_time


# -- the store ---------------------------------------------------------------
def test_store_replay_is_byte_identical(tmp_path):
    store = ScenarioStore(tmp_path / "store")
    spec = _spec(nranks=4, traffic=(TrafficSpec(rate=0.25),))

    cold, cold_report = run_scenario(spec, cache=store)
    assert not cold_report.cached
    warm, warm_report = run_scenario(spec, cache=store)
    assert warm_report.cached and warm_report.attempts == 0
    assert warm_report.fingerprint == cold_report.fingerprint
    assert warm.to_jsonable() == cold.to_jsonable()

    # The quiet twin was cached under its own fingerprint on the way.
    twin_hit = store.get(spec.quiet().fingerprint())
    assert twin_hit is not None
    assert twin_hit.completion_time == cold.quiet_completion_time


def test_store_survives_corrupt_entries(tmp_path):
    store = ScenarioStore(tmp_path / "store")
    spec = _spec()
    result, report = run_scenario(spec, cache=store)
    path = store.path_for(report.fingerprint)
    path.write_text("{ not json")
    replayed, rerun = run_scenario(spec, cache=store)
    assert not rerun.cached  # corrupt entry reads as a miss, not a crash
    assert replayed.to_jsonable() == result.to_jsonable()


def test_trace_bypasses_the_store(tmp_path):
    store = ScenarioStore(tmp_path / "store")
    spec = _spec()
    run_scenario(spec, cache=store)
    result, report = run_scenario(spec, cache=store, trace=True)
    assert not report.cached
    assert report.trace is not None
    assert report.trace.spans  # the engine really was instrumented
    assert result.curve is not None


# -- examples and CLI --------------------------------------------------------
@requires_toml
def test_all_example_specs_validate():
    paths = sorted(EXAMPLES.glob("*.toml")) + sorted(EXAMPLES.glob("*.json"))
    assert len(paths) >= 3
    for path in paths:
        spec = load_spec(path)  # load_spec validates
        assert spec.name


@requires_toml
def test_cli_validate_and_list(capsys):
    assert scenario_main(["validate", str(EXAMPLES / "fig1_mpich_quiet.toml")]) == 0
    assert "ok" in capsys.readouterr().out
    assert scenario_main(["list", str(EXAMPLES)]) == 0
    out = capsys.readouterr().out
    assert "fig1-mpich-quiet" in out

    bad = EXAMPLES / "does_not_exist.toml"
    assert scenario_main(["validate", str(bad)]) == 2


def test_cli_run_uses_cache(tmp_path, capsys):
    spec_path = tmp_path / "s.json"
    spec_path.write_text(json.dumps(_spec().to_jsonable()))
    cache = tmp_path / "cache"

    assert scenario_main(["run", str(spec_path), "--cache", str(cache)]) == 0
    cold = capsys.readouterr().out
    assert "via simulated" in cold

    assert scenario_main(["run", str(spec_path), "--cache", str(cache)]) == 0
    warm = capsys.readouterr().out
    assert "via store" in warm


def test_cli_rejects_invalid_spec(tmp_path, capsys):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text('{"name": "x", "library": "openmpi"}')
    assert scenario_main(["run", str(spec_path)]) == 2
    err = capsys.readouterr().err
    assert "library" in err
