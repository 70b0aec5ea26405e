"""Fixture-driven unit tests of every repro.check rule family.

Each rule has at least one known-bad fixture (must fire, at the right
file:line) and one known-good fixture (must stay silent).  Fixtures
declare their pretend package with a ``# repro: module=...`` directive,
which is how policy scoping is exercised from outside src/.
"""

from pathlib import Path

import pytest

from repro.check import analyze_file, analyze_source

pytestmark = pytest.mark.check

FIXTURES = Path(__file__).resolve().parent / "check_fixtures"


def rules_with_lines(name):
    findings = analyze_file(FIXTURES / name)
    return [(f.rule, f.line) for f in findings]


def rules(name):
    return [rule for rule, _ in rules_with_lines(name)]


def fixture_line(name, needle):
    text = (FIXTURES / name).read_text().splitlines()
    for lineno, line in enumerate(text, start=1):
        if needle in line:
            return lineno
    raise AssertionError(f"{needle!r} not found in {name}")


# -- determinism --------------------------------------------------------------

def test_determinism_bad_fixture_fires_every_rule():
    found = rules_with_lines("det_bad.py")
    assert ("det-wallclock", fixture_line("det_bad.py", "clock.time()")) in found
    assert ("det-wallclock", fixture_line("det_bad.py", "perf_counter()")) in found
    assert ("det-wallclock", fixture_line("det_bad.py", "datetime.now()")) in found
    assert ("det-random", fixture_line("det_bad.py", "random.random()")) in found
    assert ("det-entropy", fixture_line("det_bad.py", "uuid.uuid4()")) in found
    assert ("det-entropy", fixture_line("det_bad.py", "os.urandom(8)")) in found
    assert ("det-env", fixture_line("det_bad.py", "REPRO_SECRET_KNOB")) in found


def test_determinism_flags_use_sites_not_imports():
    # Seven uses, no findings on the import lines themselves.
    found = rules_with_lines("det_bad.py")
    assert len(found) == 7
    import_lines = {
        fixture_line("det_bad.py", "import os"),
        fixture_line("det_bad.py", "import time as clock"),
        fixture_line("det_bad.py", "from time import perf_counter"),
    }
    assert not import_lines & {line for _, line in found}


def test_determinism_good_fixture_is_clean():
    assert rules("det_good.py") == []


def test_environ_chain_is_flagged_once():
    # 'os.environ.get' must produce one finding, not one per link.
    source = (
        "# repro: module=repro.sim.chain\n"
        "import os\n"
        "x = os.environ.get('A', 'b')\n"
    )
    findings = analyze_source(source, path="chain.py")
    assert [f.rule for f in findings] == ["det-env"]


# -- purity -------------------------------------------------------------------

def test_purity_bad_fixture():
    found = rules_with_lines("purity_bad.py")
    assert ("pure-socket", fixture_line("purity_bad.py", "import socket")) in found
    assert (
        "pure-subprocess",
        fixture_line("purity_bad.py", "import subprocess"),
    ) in found
    assert ("pure-thread", fixture_line("purity_bad.py", "import threading")) in found
    assert ("pure-open", fixture_line("purity_bad.py", "with open(path)")) in found
    assert len(found) == 4


def test_purity_good_fixture_is_clean():
    # Docstrings and identifiers mentioning sockets must not trip an
    # AST-based rule (the reason grep was never good enough here).
    assert rules("purity_good.py") == []


def test_core_io_open_exemption():
    assert rules("purity_coreio.py") == []


# -- yield discipline ---------------------------------------------------------

def test_yield_bad_fixture_flags_all_three_shapes():
    found = rules_with_lines("yield_bad.py")
    assert [rule for rule, _ in found] == ["yield-discard"] * 3
    lines = {line for _, line in found}
    assert fixture_line("yield_bad.py", "sender(ep, size)  # yield-discard") in lines
    assert fixture_line("yield_bad.py", "self._drain()  # yield-discard") in lines
    assert fixture_line("yield_bad.py", "helper()  # yield-discard") in lines


def test_yield_good_fixture_is_clean():
    assert rules("yield_good.py") == []


def test_yield_rule_applies_outside_repro_packages():
    # yield_bad.py has no module directive and no repro/ in its path:
    # the rule is globally scoped and must still fire.
    assert rules("yield_bad.py") != []


# -- cache safety -------------------------------------------------------------

def test_cache_bad_fixture():
    found = rules_with_lines("cache_bad.py")
    assert ("cache-classvar", fixture_line("cache_bad.py", "ClassVar[int]")) in found
    assert ("cache-initvar", fixture_line("cache_bad.py", "InitVar[float]")) in found
    assert (
        "cache-classattr",
        fixture_line("cache_bad.py", "progress_stall = 0.000904"),
    ) in found
    assert len(found) == 3


def test_cache_good_fixture_is_clean():
    assert rules("cache_good.py") == []


# -- suppressions and policy exemptions ---------------------------------------

def test_inline_suppressions():
    found = rules_with_lines("suppressed.py")
    # Trailing and standalone allow comments silence their rule; an
    # allow[] naming a different rule does not — and, since it then
    # suppresses nothing, it is itself flagged by the hygiene rule.
    mismatched = fixture_line("suppressed.py", "allow[pure-socket]")
    assert found == [
        ("det-wallclock", mismatched),
        ("unused-suppression", mismatched),
    ]


def test_realnet_policy_exemption():
    assert rules("exempt_realnet.py") == []


def test_scheduler_policy_exemption():
    assert rules("exempt_scheduler.py") == []


def test_same_code_outside_exempt_package_fires():
    source = (FIXTURES / "exempt_realnet.py").read_text().replace(
        "# repro: module=repro.realnet.fixture",
        "# repro: module=repro.net.fixture",
    )
    findings = analyze_source(source, path="exempt_realnet.py")
    assert {f.rule for f in findings} == {"pure-socket", "det-wallclock"}


# -- driver -------------------------------------------------------------------

def test_parse_error_is_a_finding():
    findings = analyze_source("def broken(:\n", path="broken.py")
    assert [f.rule for f in findings] == ["parse-error"]
    assert findings[0].line >= 1


# -- protocol mutants (verify family) ------------------------------------------

@pytest.mark.verify
def test_proto_unmatched_fires_on_deleted_cts_leg():
    name = "proto_unmatched_bad.py"
    # The missing CTS reply leg leaves the sender blocked on it.
    assert rules_with_lines(name) == [
        ("verify-deadlock", fixture_line(name, "# verify-deadlock: no reply leg")),
    ]


@pytest.mark.verify
def test_proto_deadlock_fires_on_symmetric_blocking_recv():
    name = "proto_deadlock_bad.py"
    assert rules_with_lines(name) == [
        ("verify-deadlock", fixture_line(name, "# verify-deadlock: recv-first")),
    ]


@pytest.mark.verify
def test_proto_dead_branch_fires_on_unsatisfiable_spec_guard():
    name = "proto_deadbranch_bad.py"
    found = rules_with_lines(name)
    assert found == [
        ("verify-dead-branch",
         fixture_line(name, "# verify-dead-branch: never satisfiable")),
    ]


@pytest.mark.verify
def test_unreceived_send_fires_verify_progress_at_the_send():
    name = "proto_unreceived_bad.py"
    assert rules_with_lines(name) == [
        ("verify-progress",
         fixture_line(name, "# verify-progress: never received")),
    ]


@pytest.mark.verify
def test_paired_endpoint_with_reachable_branches_is_clean():
    assert rules("proto_good.py") == []


@pytest.mark.verify
def test_protocol_rules_scope_to_mplib_only():
    # The identical broken endpoint declared under repro.analysis is out
    # of the verify family's policy scope and must stay silent.
    source = (FIXTURES / "proto_unmatched_bad.py").read_text().replace(
        "# repro: module=repro.mplib.fixture_proto_unmatched_bad",
        "# repro: module=repro.analysis.fixture_proto_unmatched_bad",
    )
    findings = analyze_source(source, path="proto_unmatched_bad.py")
    assert findings == []


# -- dimension ----------------------------------------------------------------

def test_dim_unconverted_fires_on_raw_mbps_constant():
    name = "dim_mbps_bad.py"
    found = rules_with_lines(name)
    assert found == [
        ("dim-unconverted",
         fixture_line(name, "# dim-unconverted: raw paper Mbps constant")),
    ]


def test_dim_mixed_fires_on_seconds_plus_bytes():
    name = "dim_mixed_bad.py"
    found = rules_with_lines(name)
    assert found == [
        ("dim-mixed", fixture_line(name, "# dim-mixed: seconds + bytes")),
    ]


def test_converted_constants_and_consistent_algebra_are_clean():
    assert rules("dim_good.py") == []


def test_dimension_rules_scope_excludes_reporting():
    source = (FIXTURES / "dim_mbps_bad.py").read_text().replace(
        "# repro: module=repro.net.fixture_dim_mbps_bad",
        "# repro: module=repro.reporting.fixture_dim_mbps_bad",
    )
    findings = analyze_source(source, path="dim_mbps_bad.py")
    assert findings == []
