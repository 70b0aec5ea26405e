"""The ``python -m repro`` help surface stays honest.

The module docstring of :mod:`repro.__main__` carries a hand-written
command table; nothing stops it drifting from the argparse registry
except this audit.  Both directions are checked: every registered
subcommand appears in the table, and the table names no ghosts.
"""

import re

import pytest

import repro.__main__ as entry
from tests.markers import requires_toml

pytestmark = pytest.mark.scenario

#: ``figure <id>`` documents the same subcommand as ``figure``.
TABLE_ROW = re.compile(r"^``(\w+)(?: [^`]*)?``\s+\S", re.MULTILINE)


def _documented_commands() -> set[str]:
    assert entry.__doc__, "module docstring is the help surface"
    commands = set(TABLE_ROW.findall(entry.__doc__))
    assert commands, "docstring command table not found"
    return commands


def _registered_commands() -> set[str]:
    parser = entry.build_parser()
    subactions = [
        action for action in parser._actions
        if isinstance(action, entry.argparse._SubParsersAction)
    ]
    assert len(subactions) == 1
    return set(subactions[0].choices)


def test_every_registered_command_is_documented():
    missing = _registered_commands() - _documented_commands()
    assert not missing, f"undocumented subcommands: {sorted(missing)}"


def test_every_documented_command_is_registered():
    ghosts = _documented_commands() - _registered_commands()
    assert not ghosts, f"docstring names unknown subcommands: {sorted(ghosts)}"


@requires_toml
def test_scenario_command_is_wired():
    assert "scenario" in _registered_commands()
    # The forwarding path: `python -m repro scenario validate <spec>`.
    rc = entry.main([
        "scenario", "validate", "examples/scenarios/fig1_mpich_quiet.toml",
    ])
    assert rc == 0
