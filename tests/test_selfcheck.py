"""The analyzer's verdict on our own source tree: zero findings.

This is the tier-1 teeth of repro.check — the determinism and
cache-safety invariants DESIGN.md claims are enforced here, on every
test run, with no baseline file to hide behind.
"""

from pathlib import Path

import pytest

from repro.check import DEFAULT_POLICY, SIM_PACKAGES, analyze_paths

pytestmark = pytest.mark.check

SRC = Path(__file__).resolve().parent.parent / "src"


def test_source_tree_is_clean():
    findings = analyze_paths([SRC])
    assert findings == [], "repro.check found violations:\n" + "\n".join(
        f.render() for f in findings
    )


def test_policy_covers_the_simulation_core():
    # The packages whose determinism the reproduction's claims rest on
    # must all be inside the determinism and purity scopes.
    for family in ("determinism", "purity", "cache-safety"):
        for pkg in SIM_PACKAGES:
            assert DEFAULT_POLICY.family_applies(family, pkg + ".engine"), (
                family,
                pkg,
            )
    # ... and the sanctioned escape hatches must stay open.
    assert not DEFAULT_POLICY.family_applies(
        "determinism", "repro.realnet.transport"
    )
    assert not DEFAULT_POLICY.family_applies(
        "determinism", "repro.exec.scheduler"
    )
    assert not DEFAULT_POLICY.rule_applies("pure-open", "repro.core.io")


def test_every_analyzed_source_module_resolves_a_name():
    # Path-derived module names are what scoping keys on; every file
    # under src/ must resolve so no module silently escapes policy.
    from repro.check import module_name_for_path
    from repro.check.analyzer import iter_python_files

    for path in iter_python_files([SRC]):
        module = module_name_for_path(path)
        assert module and module.startswith("repro"), path


def test_protocol_flow_scopes_to_mplib_only():
    # Endpoint state machines live in repro.mplib; model checking
    # handshakes anywhere else would only produce noise.
    assert DEFAULT_POLICY.family_applies("verify", "repro.mplib.tcp_base")
    for module in ("repro.net.tcp", "repro.sim.engine", "repro.analysis.fit"):
        assert not DEFAULT_POLICY.family_applies("verify", module)


def test_policy_names_only_registered_families():
    # family_applies reads a family missing from family_scopes as "run
    # everywhere", so a stale or renamed key would fail silently.
    from repro.check.rules import FAMILIES, PROJECT_FAMILIES
    from repro.check.sarif import _FAMILY_LEVELS

    families = {family.FAMILY for family in FAMILIES + PROJECT_FAMILIES}
    for table in (
        DEFAULT_POLICY.family_scopes,
        DEFAULT_POLICY.family_exemptions,
        _FAMILY_LEVELS,
    ):
        assert set(table) <= families | {"driver"}, table
    assert families <= set(DEFAULT_POLICY.family_scopes)


def test_dimension_scope_is_the_modelled_physics():
    # Dimension discipline matters where paper constants become model
    # arithmetic: the network, library, and hardware layers.
    for module in ("repro.net.tcp", "repro.mplib.mpich", "repro.hw.nic"):
        assert DEFAULT_POLICY.family_applies("dimension", module)
    # Analysis/reporting juggle display units (µs axes, Mbps labels)
    # on purpose and must stay out of scope.
    for module in ("repro.analysis.fit", "repro.reporting.figures"):
        assert not DEFAULT_POLICY.family_applies("dimension", module)
