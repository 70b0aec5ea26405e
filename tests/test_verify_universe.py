"""Verify tier: the acceptance sweep over every shipped library.

The headline claim of ``repro.verify``: the full REGISTRY+VARIANTS
universe — every library configuration the figures draw — model-checks
clean at probe sizes bracketing every eager/rendezvous threshold, and
a warm digest-cached pass re-explores nothing.
"""

import pytest

from repro.mplib.registry import REGISTRY, VARIANTS, get_library
from repro.verify import entry_key, sizes_for_spec, verify_universe
from repro.verify.universe import default_config_for

pytestmark = pytest.mark.verify


@pytest.fixture(scope="module")
def report():
    return verify_universe()


def test_full_universe_has_zero_counterexamples(report):
    assert report.ok, [c.describe() for c in report.counterexamples]
    assert len(report.verdicts) == len(REGISTRY) + len(VARIANTS) == 30


def test_every_verdict_explored_real_work(report):
    for verdict in report.verdicts:
        assert verdict.path_pairs > 0, verdict.library
        assert len(verdict.sizes) >= 3, verdict.library


def test_non_recovering_specs_yield_stuck_witnesses(report):
    # Dropping a handshake message must wedge protocols that do not
    # claim recovery — and every such wedge is kept as a witness.
    total = sum(v.expected_stuck for v in report.verdicts)
    assert total > 0
    for verdict in report.verdicts:
        # Witnesses are deduplicated; the raw stuck count bounds them.
        assert verdict.witnesses, verdict.library
        assert verdict.expected_stuck >= len(verdict.witnesses)


def test_sizes_bracket_the_threshold():
    spec = get_library("mpich").spec
    t = spec.eager_threshold
    sizes = sizes_for_spec(spec)
    assert {t - 1, t, t + 1} <= set(sizes)
    assert 1 in sizes and (1 << 20) in sizes


def test_thresholdless_specs_probe_the_base_sizes():
    spec = get_library("raw-tcp").spec
    assert spec.eager_threshold is None
    assert sizes_for_spec(spec) == (1, 1024, 1 << 20)


def test_default_config_resolves_special_interconnects():
    for name in ("raw-gm", "mvich", "mpich"):
        lib = get_library(name)
        config = default_config_for(lib)
        lib.build(__import__("repro.sim", fromlist=["Engine"]).Engine(),
                  config)  # accepted, not just returned


def test_cold_then_warm_cache_roundtrip(tmp_path):
    cold = verify_universe(
        names=["mpich", "mvich"], cache_dir=tmp_path / "v"
    )
    assert cold.cache_misses == 2 and cold.cache_hits == 0
    warm = verify_universe(
        names=["mpich", "mvich"], cache_dir=tmp_path / "v"
    )
    assert warm.cache_hits == 2 and warm.cache_misses == 0
    assert all(v.from_cache for v in warm.verdicts)
    # The cached verdict is the same verdict, not a degraded copy.
    for a, b in zip(cold.verdicts, warm.verdicts):
        assert a.to_dict() == b.to_dict()


def test_entry_key_tracks_every_exploration_input():
    spec = get_library("mpich").spec
    base = entry_key("mpich", spec, (1, 2), 32, True)
    assert entry_key("mpich", spec, (1, 2), 32, True) == base
    assert entry_key("lam", spec, (1, 2), 32, True) != base
    assert entry_key("mpich", spec, (1, 3), 32, True) != base
    assert entry_key("mpich", spec, (1, 2), 16, True) != base
    assert entry_key("mpich", spec, (1, 2), 32, False) != base
    # Replay confirmation shapes the stored verdict (engine traces on
    # counterexamples), so it is part of the key; the default matches
    # positional callers.
    assert entry_key("mpich", spec, (1, 2), 32, True, with_replay=True) == base
    assert entry_key("mpich", spec, (1, 2), 32, True, with_replay=False) != base
