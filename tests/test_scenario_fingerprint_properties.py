"""Property-based tests (hypothesis) for the scenario-fingerprint contract.

The scenario store is content-addressed by spec fingerprint, so the
fingerprint must behave like a true content hash of the spec: a JSON
round trip lands on the same digest, and changing any field that
affects the run lands on a new one.  The strategy draws every field of
every block whatever its ``kind`` (a crossbar's ``leaf_size``, a
ping-pong's ``cells``), so the wire form cannot drop one.  A collision would serve one scenario's cached result for a
different scenario; a round-trip miss would make every file-loaded
spec a cache miss against its in-memory twin.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.scenario import (
    CpuSpec,
    FaultEntry,
    ScenarioSpec,
    TopologySpec,
    TrafficSpec,
    WorkloadSpec,
)

pytestmark = pytest.mark.scenario

LIBRARIES = ("mpich", "mplite", "pvm", "raw-tcp", "mpipro")
CONFIGS = ("pc_netgear_ga620", "ds20_syskonnect_jumbo", "pc_giganet")

sizes_strategy = st.lists(
    st.integers(min_value=1, max_value=1 << 18),
    min_size=1, max_size=4, unique=True,
).map(lambda xs: tuple(sorted(xs)))


def rank_tuples(ranks, min_size: int, max_size: int):
    return st.lists(ranks, min_size=min_size, max_size=max_size,
                    unique=True).map(lambda xs: tuple(sorted(xs)))


def seconds(low: float = 1e-6):
    return st.floats(min_value=low, max_value=0.01, allow_nan=False)


@st.composite
def specs(draw) -> ScenarioSpec:
    """A valid spec with every field of every block drawn."""
    nranks = draw(st.integers(min_value=2, max_value=8))
    ranks = st.integers(min_value=0, max_value=nranks - 1)
    traffic = draw(st.lists(st.builds(
        TrafficSpec,
        kind=st.sampled_from(("constant", "onoff", "alltoall")),
        rate=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
        message_bytes=st.integers(min_value=64, max_value=1 << 16),
        ranks=st.none() | rank_tuples(ranks, 2, nranks),
        on_seconds=seconds(),
        off_seconds=seconds(),
    ), max_size=2).map(tuple))
    workload_kind = draw(st.sampled_from(("pingpong", "halo", "alltoall")))
    workload = WorkloadSpec(
        kind=workload_kind,
        ranks=draw(st.none() | rank_tuples(
            ranks, 2, 2 if workload_kind == "pingpong" else nranks)),
        sizes=draw(st.none() | sizes_strategy),
        repeats=draw(st.integers(1, 3)),
        iterations=draw(st.integers(1, 9)),
        cells=draw(st.integers(1, 128)),
        message_bytes=draw(st.integers(1, 1 << 20)),
    )
    return ScenarioSpec(
        name=draw(st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12,
        )),
        library=draw(st.sampled_from(LIBRARIES)),
        config=draw(st.sampled_from(CONFIGS)),
        description=draw(st.text(max_size=12)),
        nranks=nranks,
        mtu=draw(st.none() | st.sampled_from((1500, 4000, 9000))),
        tuned=draw(st.none() | st.booleans()),
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        topology=draw(st.builds(
            TopologySpec,
            kind=st.sampled_from(("crossbar", "two-tier")),
            leaf_size=st.integers(1, 8),
            uplink_capacity=st.integers(1, 4),
            uplink_latency=seconds(0.0),
        )),
        workload=workload,
        traffic=traffic,
        cpu=draw(st.none() | st.builds(
            CpuSpec,
            load=st.floats(min_value=0.1, max_value=0.9, allow_nan=False),
            ranks=st.none() | rank_tuples(ranks, 1, nranks),
        )),
        faults=draw(st.lists(st.builds(
            FaultEntry,
            kind=st.sampled_from(("raise", "corrupt", "crash")),
            times=st.integers(1, 3),
        ), max_size=2).map(tuple)),
    )


@given(spec=specs())
@settings(max_examples=60, deadline=None)
def test_json_round_trip_preserves_fingerprint(spec):
    spec.validate()  # the strategy only draws runnable specs
    wire = json.loads(json.dumps(spec.to_jsonable()))
    back = ScenarioSpec.from_jsonable(wire)
    assert back == spec
    assert back.fingerprint() == spec.fingerprint()


@given(spec=specs())
@settings(max_examples=40, deadline=None)
def test_fingerprint_is_pure(spec):
    assert spec.fingerprint() == spec.fingerprint()


#: One mutation per spec field that must change the digest.  ``name``
#: is included deliberately: the fingerprint addresses the *scenario*,
#: and two differently-named scenarios are different documents even
#: when their physics agree (the fault plan matches on name).
MUTATIONS = [
    lambda s: dataclasses.replace(s, name=s.name + "-x"),
    lambda s: dataclasses.replace(
        s, library="mplite" if s.library != "mplite" else "mpich"),
    lambda s: dataclasses.replace(
        s, config="pc_giganet" if s.config != "pc_giganet"
        else "pc_netgear_ga620"),
    lambda s: dataclasses.replace(s, nranks=s.nranks + 1),
    lambda s: dataclasses.replace(s, seed=s.seed + 1),
    lambda s: dataclasses.replace(s, tuned=not s.tuned),
    lambda s: dataclasses.replace(
        s, traffic=s.traffic + (TrafficSpec(rate=0.11),)),
    lambda s: dataclasses.replace(
        s, cpu=CpuSpec(load=0.33) if s.cpu is None else None),
    lambda s: dataclasses.replace(
        s, faults=s.faults + (FaultEntry(kind="raise"),)),
]


@given(spec=specs(), which=st.integers(0, len(MUTATIONS) - 1))
@settings(max_examples=60, deadline=None)
def test_any_field_change_changes_fingerprint(spec, which):
    mutated = MUTATIONS[which](spec)
    assert mutated != spec
    assert mutated.fingerprint() != spec.fingerprint()


@given(spec=specs())
@settings(max_examples=30, deadline=None)
def test_quiet_twin_fingerprint_matches_explicit_construction(spec):
    # The runner's baseline lookup hinges on this: the quiet twin's
    # digest must be a function of the stripped spec alone, however
    # noisy the original was.
    twin = spec.quiet()
    rebuilt = dataclasses.replace(
        spec, traffic=(), cpu=None, faults=(),
    )
    assert twin.fingerprint() == rebuilt.fingerprint()
