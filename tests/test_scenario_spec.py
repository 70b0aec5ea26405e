"""The scenario spec schema: parsing, path-addressed errors, round-trip.

The spec is the public contract of the scenario layer — TOML and JSON
files users write by hand — so errors must point at the exact field to
fix (``traffic[1].rate``), unknown fields must be rejected at every
level, and the wire form must round-trip losslessly.
"""

import json

import pytest

from repro.scenario import (
    CpuSpec,
    FaultEntry,
    ScenarioSpec,
    SpecError,
    TopologySpec,
    TrafficSpec,
    WorkloadSpec,
    load_spec,
    parse_spec,
)
from tests.markers import requires_toml

pytestmark = pytest.mark.scenario


def _spec(**overrides) -> ScenarioSpec:
    base = dict(name="t", library="mpich", config="pc_netgear_ga620")
    base.update(overrides)
    return ScenarioSpec(**base)


# -- parsing and shape errors -------------------------------------------------
def test_minimal_json_parses():
    spec = parse_spec('{"name": "a", "library": "mpich"}')
    assert spec.name == "a"
    assert spec.nranks == 2
    assert spec.config == "pc_netgear_ga620"
    assert spec.is_quiet() and spec.is_two_node_baseline()


@requires_toml
def test_minimal_toml_parses():
    spec = parse_spec('name = "a"\nlibrary = "mpich"\n', fmt="toml")
    assert spec.name == "a"


def test_toml_needs_tomllib(monkeypatch):
    # Python 3.10 has no tomllib: TOML is refused with a SpecError that
    # names the source, while JSON keeps working.
    import repro.scenario.spec as spec_module

    monkeypatch.setattr(spec_module, "tomllib", None)
    with pytest.raises(SpecError, match="Python 3.11") as err:
        parse_spec('name = "a"\nlibrary = "mpich"\n', fmt="toml",
                   source="a.toml")
    assert err.value.path == "a.toml"
    assert parse_spec('{"name": "a", "library": "mpich"}').name == "a"


def test_json_syntax_error_carries_source():
    with pytest.raises(SpecError) as err:
        parse_spec("{not json", source="bad.json")
    assert err.value.path == "bad.json"


def test_unknown_format_rejected():
    with pytest.raises(SpecError, match="unknown spec format"):
        parse_spec("{}", fmt="yaml")


def test_unknown_top_level_field_named():
    with pytest.raises(SpecError) as err:
        parse_spec('{"name": "a", "library": "mpich", "nodez": 4}')
    assert err.value.path == "nodez"


def test_nested_error_paths():
    cases = [
        ({"traffic": [{"kind": "constant"}, {"kind": "constant",
                      "rate": 2.0}]}, "traffic[1].rate"),
        ({"traffic": [{"kind": "nope"}]}, "traffic[0].kind"),
        ({"workload": {"kind": "pingpong", "ranks": [0]}},
         "workload.ranks"),
        ({"workload": {"repeats": 0}}, "workload.repeats"),
        ({"topology": {"kind": "fat-tree"}}, "topology.kind"),
        ({"cpu": {"load": 1.5}}, "cpu.load"),
        ({"faults": [{"kind": "hang"}]}, "faults[0].kind"),
        ({"nranks": 1}, "nranks"),
        ({"workload": {"ranks": [0, 9]}, "nranks": 4},
         "workload.ranks[1]"),
        ({"workload": {"ranks": [0, -1]}}, "workload.ranks[1]"),
        ({"workload": {"sizes": [64, "1k"]}}, "workload.sizes[1]"),
        ({"workload": {"sizes": []}}, "workload.sizes"),
        ({"traffic": [{}, {"rate": "high"}]}, "traffic[1].rate"),
        ({"traffic": {"kind": "constant"}}, "traffic"),
        ({"topology": {"kind": "two-tier", "leaf_sise": 4}},
         "topology.leaf_sise"),
        ({"topology": []}, "topology"),
        ({"cpu": {"ranks": [0, 5]}}, "cpu.ranks[1]"),
        # [0, 0] would run like [0] under a second fingerprint.
        ({"cpu": {"ranks": [0, 0]}}, "cpu.ranks"),
        ({"faults": [{"times": 1.5}]}, "faults[0].times"),
        ({"mtu": 1500.0}, "mtu"),
        ({"tuned": 1}, "tuned"),
        ({"config": None}, "config"),
    ]
    for extra, path in cases:
        data = {"name": "a", "library": "mpich", **extra}
        with pytest.raises(SpecError) as err:
            ScenarioSpec.from_jsonable(data)
        assert err.value.path == path, (extra, err.value.path)


def test_unknown_library_and_config_rejected():
    with pytest.raises(SpecError) as err:
        parse_spec('{"name": "a", "library": "openmpi"}')
    assert err.value.path == "library"
    with pytest.raises(SpecError) as err:
        parse_spec('{"name": "a", "library": "mpich", "config": "cray"}')
    assert err.value.path == "config"


def test_required_fields_named():
    for data, path in (({"library": "mpich"}, "name"),
                       ({"name": "a"}, "library")):
        with pytest.raises(SpecError, match="required") as err:
            ScenarioSpec.from_jsonable(data)
        assert err.value.path == path


def test_float_fields_accept_integers():
    spec = ScenarioSpec.from_jsonable({
        "name": "a", "library": "mpich", "nranks": 4,
        "traffic": [{"rate": 1}], "cpu": {"load": 0.5},
    })
    assert spec.traffic[0].rate == 1.0
    assert isinstance(spec.traffic[0].rate, float)


def test_bool_is_not_an_integer():
    with pytest.raises(SpecError) as err:
        parse_spec('{"name": "a", "library": "mpich", "nranks": true}')
    assert err.value.path == "nranks"


def test_alltoall_traffic_needs_two_participants():
    with pytest.raises(SpecError) as err:
        ScenarioSpec.from_jsonable({
            "name": "a", "library": "mpich", "nranks": 4,
            "traffic": [{"kind": "alltoall", "ranks": [2]}],
        })
    assert err.value.path == "traffic[0].ranks"


def test_spec_error_message_shape():
    err = SpecError("traffic[1].rate", "must be in (0, 1]")
    assert str(err) == "traffic[1].rate: must be in (0, 1]"
    assert err.path == "traffic[1].rate"


# -- derived views ------------------------------------------------------------
def test_quiet_twin_strips_interference_and_faults():
    spec = _spec(
        traffic=(TrafficSpec(),), cpu=CpuSpec(),
        faults=(FaultEntry(),),
    )
    assert not spec.is_quiet()
    twin = spec.quiet()
    assert twin.is_quiet() and not twin.faults
    assert twin.workload == spec.workload
    assert twin.fingerprint() != spec.fingerprint()


def test_faults_do_not_change_quietness():
    # Faults act on the harness, not the engine: a faulted 2-rank spec
    # must still take the exact two-node baseline path.
    spec = _spec(faults=(FaultEntry(kind="raise"),))
    assert spec.is_quiet()
    assert spec.is_two_node_baseline()


def test_two_node_baseline_detection():
    assert _spec().is_two_node_baseline()
    assert _spec(workload=WorkloadSpec(ranks=(0, 1))).is_two_node_baseline()
    assert not _spec(nranks=4).is_two_node_baseline()
    assert not _spec(traffic=(TrafficSpec(),)).is_two_node_baseline()
    assert not _spec(
        topology=TopologySpec(kind="two-tier")
    ).is_two_node_baseline()
    assert not _spec(
        workload=WorkloadSpec(kind="halo")
    ).is_two_node_baseline()


def test_cpu_dilation():
    assert CpuSpec(load=0.5).dilation() == pytest.approx(2.0)
    assert CpuSpec(load=0.75).dilation() == pytest.approx(4.0)


# -- round-trips --------------------------------------------------------------
FULL = ScenarioSpec(
    name="full",
    library="mpich",
    config="ds20_syskonnect_jumbo",
    description="everything at once",
    nranks=16,
    mtu=9000,
    tuned=True,
    seed=9,
    topology=TopologySpec(kind="two-tier", leaf_size=4,
                          uplink_capacity=2, uplink_latency=2e-6),
    workload=WorkloadSpec(kind="pingpong", ranks=(0, 15),
                          sizes=(64, 1024), repeats=2),
    traffic=(
        TrafficSpec(kind="alltoall", rate=0.3),
        TrafficSpec(kind="onoff", rate=0.2, ranks=(1, 2),
                    on_seconds=0.001, off_seconds=0.003),
    ),
    cpu=CpuSpec(load=0.25, ranks=(0,)),
    faults=(FaultEntry(kind="raise", times=2),),
)


def test_json_round_trip_lossless():
    data = json.loads(json.dumps(FULL.to_jsonable()))
    assert ScenarioSpec.from_jsonable(data) == FULL


def test_wire_form_keeps_fields_the_kind_does_not_use():
    # Fields another kind would use still round-trip: the wire form
    # elides defaults, never non-default values.
    spec = _spec(
        topology=TopologySpec(kind="crossbar", leaf_size=4),
        workload=WorkloadSpec(kind="pingpong", iterations=7, cells=8),
        traffic=(TrafficSpec(kind="constant", on_seconds=0.5),),
    )
    wire = spec.to_jsonable()
    assert wire["topology"] == {"leaf_size": 4}
    assert wire["workload"] == {"iterations": 7, "cells": 8}
    assert wire["traffic"] == [{"on_seconds": 0.5}]
    back = ScenarioSpec.from_jsonable(json.loads(json.dumps(wire)))
    assert back == spec and back.fingerprint() == spec.fingerprint()


def test_wire_form_elides_defaults():
    assert _spec().to_jsonable() == {"name": "t", "library": "mpich"}


#: :data:`FULL` written by hand as TOML.
FULL_TOML = """
name = "full"
library = "mpich"
config = "ds20_syskonnect_jumbo"
description = "everything at once"
nranks = 16
mtu = 9000
tuned = true
seed = 9

[topology]
kind = "two-tier"
leaf_size = 4
uplink_capacity = 2
uplink_latency = 2e-6

[workload]
ranks = [0, 15]
sizes = [64, 1024]
repeats = 2

[[traffic]]
kind = "alltoall"
rate = 0.3

[[traffic]]
kind = "onoff"
rate = 0.2
ranks = [1, 2]
on_seconds = 0.001
off_seconds = 0.003

[cpu]
load = 0.25
ranks = [0]

[[faults]]
times = 2
"""


@requires_toml
def test_load_spec_by_extension(tmp_path):
    toml_path = tmp_path / "s.toml"
    toml_path.write_text(FULL_TOML)
    json_path = tmp_path / "s.json"
    json_path.write_text(json.dumps(FULL.to_jsonable()))
    assert load_spec(toml_path) == FULL == load_spec(json_path)


def test_load_spec_rejects_bad_paths(tmp_path):
    with pytest.raises(SpecError, match="extension"):
        load_spec(tmp_path / "s.yaml")
    with pytest.raises(SpecError, match="cannot read"):
        load_spec(tmp_path / "missing.json")
