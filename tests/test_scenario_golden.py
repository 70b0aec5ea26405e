"""Golden scenario documents: congested N-rank runs pinned by digest.

Every example spec under ``examples/scenarios`` and a small in-test set
of congested 32-rank two-tier runs — halo, all-to-all and cross-leaf
ping-pong under constant, on/off and all-to-all background traffic,
with CPU hogs — run cold, and each result document is hashed in
canonical form *without* two fields:

* ``fingerprint`` folds the source digest of the N-rank packages, so
  any edit to fabric, cluster or scenario moves it by design;
* ``events_processed`` counts heap events, which a kernel or fabric
  change may remove without moving any simulated time.

Everything else — completion time, the quiet twin's baseline, per-flow
counters, curve points — must stay bit-identical.  Event counts are
pinned on their own, so a change in how many events a run pushes shows
up in review apart from a change in what the run computes.

Intentional changes re-pin with:

    PYTHONPATH=src python tests/test_scenario_golden.py --regen

and the diff of ``golden_scenarios.json`` is the review artifact.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.scenario import ScenarioSpec, load_spec, run_scenario
from repro.scenario.spec import tomllib
from tests.markers import requires_toml

pytestmark = pytest.mark.scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_scenarios.json"
REGEN_HINT = (
    "If the change is intentional, re-pin with:\n"
    "    PYTHONPATH=src python tests/test_scenario_golden.py --regen\n"
    "and include the golden_scenarios.json diff in the review."
)

#: Fields a document may change without any simulated time moving.
UNPINNED_FIELDS = ("events_processed", "fingerprint")

_TWO_TIER = {"kind": "two-tier", "leaf_size": 8, "uplink_capacity": 1}

#: The in-test congested set: every workload kind crossed with a
#: different traffic shape, each on 32 ranks across four leaves.
CONGESTED_SPECS = (
    {
        "name": "golden-halo-constant",
        "library": "mpich",
        "config": "pc_netgear_ga620",
        "nranks": 32,
        "seed": 11,
        "topology": _TWO_TIER,
        "workload": {"kind": "halo", "iterations": 2, "cells": 32},
        "traffic": [{"kind": "constant", "rate": 0.3}],
        "cpu": {"load": 0.4, "ranks": [0, 9, 18, 27]},
    },
    {
        "name": "golden-alltoall-onoff",
        "library": "lam",
        "config": "pc_trendnet",
        "nranks": 32,
        "seed": 12,
        "topology": _TWO_TIER,
        "workload": {"kind": "alltoall", "iterations": 1,
                     "message_bytes": 4096},
        "traffic": [{"kind": "onoff", "rate": 0.25,
                     "on_seconds": 0.0005, "off_seconds": 0.0005}],
        "cpu": {"load": 0.3, "ranks": [3, 20]},
    },
    {
        "name": "golden-pingpong-alltoall",
        "library": "mpipro",
        "config": "pc_syskonnect",
        "nranks": 32,
        "seed": 13,
        "topology": _TWO_TIER,
        "workload": {"kind": "pingpong", "ranks": [2, 29],
                     "sizes": [64, 4096, 65536]},
        "traffic": [{"kind": "alltoall", "rate": 0.3,
                     "message_bytes": 32768}],
        "cpu": {"load": 0.5, "ranks": [2, 29]},
    },
)


def golden_specs() -> list:
    """Every example spec (file order), then the in-test congested set.

    Without ``tomllib`` (Python 3.10) the TOML examples are left out.
    """
    suffixes = (".toml", ".json") if tomllib is not None else (".json",)
    paths = sorted(
        p for p in (ROOT / "examples" / "scenarios").iterdir()
        if p.suffix in suffixes
    )
    return [load_spec(p) for p in paths] + [
        ScenarioSpec.from_jsonable(d) for d in CONGESTED_SPECS
    ]


def document_digest(document: dict) -> str:
    """SHA-256 of one result document minus :data:`UNPINNED_FIELDS`."""
    pinned = {k: v for k, v in document.items() if k not in UNPINNED_FIELDS}
    canonical = json.dumps(pinned, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def compute_golden() -> dict:
    """{"digests": {name: sha}, "events": {name: count}}, cold runs."""
    digests, events = {}, {}
    for spec in golden_specs():
        document = run_scenario(spec)[0].to_jsonable()
        digests[spec.name] = document_digest(document)
        events[spec.name] = document["events_processed"]
    return {"digests": digests, "events": events}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def computed() -> dict:
    return compute_golden()


@requires_toml
def test_golden_covers_every_spec(pinned):
    names = [spec.name for spec in golden_specs()]
    assert sorted(pinned["digests"]) == sorted(names)
    assert sorted(pinned["events"]) == sorted(names)


def test_scenario_documents_match_golden(pinned, computed):
    moved = sorted(
        name for name, digest in computed["digests"].items()
        if pinned["digests"].get(name) != digest
    )
    assert not moved, f"scenario documents moved: {moved}\n{REGEN_HINT}"


def test_scenario_event_counts_match_golden(pinned, computed):
    moved = {
        name: (pinned["events"].get(name), count)
        for name, count in computed["events"].items()
        if pinned["events"].get(name) != count
    }
    assert not moved, f"events_processed (pinned, now): {moved}\n{REGEN_HINT}"


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_scenario_golden.py --regen")
    GOLDEN_PATH.write_text(
        json.dumps(compute_golden(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
