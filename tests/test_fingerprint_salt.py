"""The derived code salt: model edits must invalidate cached curves."""

from pathlib import Path

import pytest

from repro.exec import fingerprint
from repro.exec.fingerprint import (
    CODE_SALT,
    SALTED_PACKAGES,
    code_salt,
    source_digest,
    sweep_fingerprint,
)
from repro.experiments import configs
from repro.mplib import Mpich

pytestmark = pytest.mark.check


def make_tree(root: Path) -> None:
    (root / "sim").mkdir(parents=True)
    (root / "sim" / "engine.py").write_text("GAP = 1.0\n")
    (root / "net" / "sub").mkdir(parents=True)
    (root / "net" / "tcp.py").write_text("RATE = 125e6\n")
    (root / "net" / "sub" / "deep.py").write_text("X = 1\n")
    (root / "experiments").mkdir()
    (root / "experiments" / "figures.py").write_text("FIGS = 5\n")


def test_digest_changes_when_a_simulation_source_changes(tmp_path):
    make_tree(tmp_path)
    before = source_digest(tmp_path)
    (tmp_path / "sim" / "engine.py").write_text("GAP = 2.0\n")
    after = source_digest(tmp_path)
    assert before != after


def test_digest_sees_nested_modules_and_new_files(tmp_path):
    make_tree(tmp_path)
    before = source_digest(tmp_path)
    (tmp_path / "net" / "sub" / "deep.py").write_text("X = 2\n")
    changed = source_digest(tmp_path)
    assert changed != before
    (tmp_path / "mplib").mkdir()
    (tmp_path / "mplib" / "new_model.py").write_text("NEW = True\n")
    assert source_digest(tmp_path) != changed


def test_digest_ignores_non_simulation_packages(tmp_path):
    make_tree(tmp_path)
    before = source_digest(tmp_path)
    (tmp_path / "experiments" / "figures.py").write_text("FIGS = 6\n")
    assert source_digest(tmp_path) == before


def test_digest_is_stable_and_falls_back_when_empty(tmp_path):
    make_tree(tmp_path)
    assert source_digest(tmp_path) == source_digest(tmp_path)
    empty = tmp_path / "nothing_here"
    empty.mkdir()
    assert source_digest(empty) is None


def test_code_salt_derives_from_the_real_tree():
    salt = code_salt()
    assert salt.startswith(CODE_SALT + "+")
    digest = source_digest()
    assert digest is not None
    assert salt == f"{CODE_SALT}+{digest[:16]}"
    # The hashed packages are exactly the curve-determining ones.
    assert set(SALTED_PACKAGES) == {"sim", "net", "mplib", "hw", "core"}


def test_sweep_fingerprint_folds_in_the_derived_salt(monkeypatch):
    lib, cfg = Mpich.tuned(), configs.pc_netgear_ga620()
    base = sweep_fingerprint(lib, cfg, sizes=[1, 2, 4])
    monkeypatch.setattr(
        fingerprint, "code_salt", lambda: CODE_SALT + "+deadbeefdeadbeef"
    )
    assert sweep_fingerprint(lib, cfg, sizes=[1, 2, 4]) != base


def test_every_factory_a_spec_names_is_salted():
    # A scenario fingerprint hashes library and config *names*, so the
    # code each name runs must sit under one of the two salts: otherwise
    # editing a config factory would replay a stale stored result.
    from repro.mplib.registry import REGISTRY, VARIANTS
    from repro.scenario.spec import SCENARIO_SALT_PACKAGES

    salted = {*SALTED_PACKAGES, *SCENARIO_SALT_PACKAGES}
    config_factories = [
        value for value in vars(configs).values()
        if callable(value) and value.__module__ == configs.__name__
    ]
    assert config_factories
    for factory in [*config_factories, *REGISTRY.values(), *VARIANTS.values()]:
        package = factory.__module__.split(".")[1]
        assert package in salted, (factory, factory.__module__)
