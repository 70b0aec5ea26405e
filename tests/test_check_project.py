"""The project graph, its content-addressed AST cache and findings memo."""

import ast
import dataclasses
import pickle
import shutil
import sys
from pathlib import Path

import pytest

import repro
from repro.check.analyzer import analyze_project, analyze_paths
from repro.check.config import DEFAULT_POLICY
from repro.check.project import (
    AstCache,
    FindingsCache,
    Project,
    file_digest,
    findings_key,
)
from repro.exec.fingerprint import source_digest
from repro.verify.universe import build_models

pytestmark = pytest.mark.check

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).resolve().parent / "check_fixtures"


# -- module graph / cross-module resolution -----------------------------------

def test_project_indexes_modules_by_path_and_name():
    project = Project.from_paths([SRC / "repro" / "mplib"])
    path = str(SRC / "repro" / "mplib" / "tcp_base.py")
    assert project.module_for_path(path) == "repro.mplib.tcp_base"
    assert project.source_for_path(path).startswith('"""')


def test_resolve_crosses_modules():
    project = Project.from_paths([SRC / "repro" / "mplib"])
    resolved = project.resolve("repro.mplib.tcp_base.TcpLibSpec")
    assert resolved is not None
    assert isinstance(resolved.node, ast.ClassDef)
    assert resolved.node.name == "TcpLibSpec"
    assert resolved.rest == ()


def test_resolve_returns_trailing_attribute_components():
    project = Project.from_paths([SRC / "repro" / "mplib"])
    resolved = project.resolve("repro.mplib.tcp_base.Route.DAEMON")
    assert resolved is not None
    assert isinstance(resolved.node, ast.ClassDef)
    assert resolved.rest == ("DAEMON",)


def test_resolve_follows_reexports():
    # repro.mplib/__init__ re-exports registry names; resolving through
    # the package path must land on the defining module.
    project = Project.from_paths([SRC / "repro" / "mplib"])
    resolved = project.resolve("repro.mplib.REGISTRY")
    if resolved is None:
        pytest.skip("repro.mplib does not re-export REGISTRY")
    assert resolved.ctx.module == "repro.mplib.registry"


def test_base_class_resolution_across_files():
    project = Project.from_paths([SRC / "repro" / "mplib"])
    path = str(SRC / "repro" / "mplib" / "tcp_base.py")
    ctx = next(m for m in project.modules if m.path == path)
    classdef = next(
        s
        for s in ctx.tree.body
        if isinstance(s, ast.ClassDef) and s.name == "TcpLibEndpoint"
    )
    resolved = project.resolve_base_class(ctx, classdef.bases[0])
    assert resolved is not None
    assert resolved.node.name == "LibEndpoint"
    assert resolved.ctx.module == "repro.mplib.base"


def test_parse_error_becomes_finding(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    project = Project.from_paths([bad])
    findings = analyze_project(project)
    assert [f.rule for f in findings] == ["parse-error"]


# -- AST cache ----------------------------------------------------------------

def test_cold_then_warm_cache_parses_zero_files(tmp_path):
    cache = AstCache(tmp_path / "ast")
    cold = Project.from_paths([SRC / "repro" / "check"], cache=cache)
    assert cold.stats.parsed == cold.stats.files > 0
    assert cold.stats.cache_hits == 0

    warm = Project.from_paths([SRC / "repro" / "check"], cache=cache)
    assert warm.stats.parsed == 0
    assert warm.stats.cache_hits == warm.stats.files == cold.stats.files


def test_cached_and_fresh_analyses_agree(tmp_path):
    cache = AstCache(tmp_path / "ast")
    target = [SRC / "repro" / "mplib"]
    fresh = analyze_paths(target)
    analyze_paths(target, cache=cache)  # populate
    warm = analyze_paths(target, cache=cache)
    assert warm == fresh


def test_changed_content_misses_the_cache(tmp_path):
    source_a = "x = 1\n"
    source_b = "x = 2\n"
    f = tmp_path / "m.py"
    cache = AstCache(tmp_path / "ast")

    f.write_text(source_a)
    first = Project.from_paths([f], cache=cache)
    assert first.stats.parsed == 1

    f.write_text(source_b)
    second = Project.from_paths([f], cache=cache)
    assert second.stats.parsed == 1  # digest changed -> miss
    assert second.stats.cache_hits == 0


def test_corrupt_cache_entry_is_a_miss_not_an_error(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("value = 40 + 2\n")
    cache = AstCache(tmp_path / "ast")
    Project.from_paths([f], cache=cache)

    digest = file_digest(f.read_bytes())
    entry = cache.path_for(digest)
    assert entry.exists()
    entry.write_bytes(b"not a pickle")
    reread = Project.from_paths([f], cache=cache)
    assert reread.stats.parsed == 1
    assert reread.stats.cache_hits == 0

    # A pickle of the wrong type is equally a miss.
    entry.write_bytes(pickle.dumps({"not": "an ast"}))
    again = Project.from_paths([f], cache=cache)
    assert again.stats.parsed == 1


def test_cache_salt_names_python_version():
    salt = AstCache("unused").generation.name
    import sys

    assert f"py{sys.version_info[0]}.{sys.version_info[1]}" in salt


def test_readonly_cache_dir_degrades_to_parsing(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("x = 1\n")
    blocked = tmp_path / "file-not-dir"
    blocked.write_text("")
    cache = AstCache(blocked / "nested")  # parent is a file: mkdir fails
    project = Project.from_paths([f], cache=cache)
    assert project.stats.parsed == 1  # no crash, no hit


def test_tree_under_a_hidden_directory_is_still_found(tmp_path):
    # Only the parts below a given path count as hidden: a checkout
    # under a dot-directory must still be checked and model-compiled.
    mplib = tmp_path / ".hidden" / "checkout" / "repro" / "mplib"
    shutil.copytree(SRC / "repro" / "mplib", mplib,
                    ignore=shutil.ignore_patterns("__pycache__"))
    (mplib / ".scratch").mkdir()
    (mplib / ".scratch" / "skipped.py").write_text("x = 1\n")

    # The copy is found file for file; the dot-directory inside it is not.
    expected = sorted(p.name for p in (SRC / "repro" / "mplib").glob("*.py"))
    project = Project.from_paths([mplib])
    assert sorted(Path(p).name for p in project.digest_by_path) == expected
    assert analyze_paths([mplib]) == []
    assert set(build_models([mplib])) == set(build_models()) != set()


# -- findings memo ------------------------------------------------------------

def _run(paths, cache, **kwargs):
    project = Project.from_paths(paths, cache=cache)
    return analyze_project(project, **kwargs), project


def _tree(tmp_path):
    """A private two-file copy of the corpus: one known-bad, one with
    allow comments."""
    tree = tmp_path / "tree"
    tree.mkdir()
    for name in ("det_bad.py", "suppressed.py"):
        (tree / name).write_text((FIXTURES / name).read_text())
    return tree


def _assert_miss(paths, cache, **kwargs):
    """Analyze through the memo, which must miss, and check the result
    against a fresh analysis with no cache at all."""
    findings, project = _run(paths, cache, **kwargs)
    memo = project.findings_cache
    assert (memo.hits, memo.misses) == (0, 1)
    assert findings == analyze_project(Project.from_paths(paths), **kwargs)
    return findings


@pytest.mark.parametrize("target", [SRC, FIXTURES],
                         ids=["src", "check_fixtures"])
def test_memo_serves_what_a_fresh_analysis_finds(tmp_path, target):
    fresh = analyze_paths([target])
    # The corpus is the case that matters: its findings are non-empty.
    assert (fresh == []) == (target is SRC)
    cache = AstCache(tmp_path / "ast")
    cold, cold_project = _run([target], cache)
    warm, warm_project = _run([target], cache)
    assert cold == warm == fresh
    assert cold_project.findings_cache.misses == 1
    assert warm_project.findings_cache.hits == 1
    # A hit runs no family: no dataflow, so no summary is touched.
    assert warm_project._dataflow is None
    assert warm_project.stats.summaries_computed == 0
    assert warm_project.stats.summaries_reused == 0
    assert warm_project.stats.parsed == 0


def test_memo_misses_on_every_input_that_decides_findings(tmp_path):
    tree = _tree(tmp_path)
    cache = AstCache(tmp_path / "ast")
    base = _assert_miss([tree], cache)
    again, project = _run([tree], cache)
    assert again == base and project.findings_cache.hits == 1

    bad = tree / "det_bad.py"
    text = bad.read_text()
    # One byte: 'time' -> 'tame' retires a det-wallclock finding.
    edited = text.replace("clock.time()", "clock.tame()")
    assert len(edited) == len(text)
    bad.write_text(edited)
    assert _assert_miss([tree], cache) != base

    # An added allow comment retires the det-random finding.
    bad.write_text(edited.replace(
        "random.random()  # det-random",
        "random.random()  # repro: allow[det-random]"))
    allowed = _assert_miss([tree], cache)
    assert "det-random" not in {f.rule for f in allowed}

    _assert_miss([tree], cache, rules=frozenset({"det-env"}))
    _assert_miss([tree], cache,
                 only_paths=frozenset({str(tree / "suppressed.py")}))
    exempt = dataclasses.replace(DEFAULT_POLICY, rule_exemptions={
        **DEFAULT_POLICY.rule_exemptions, "det-env": ("repro.sim",)})
    assert _assert_miss([tree], cache, policy=exempt) != allowed

    # Same bytes at a new path: findings are anchored by path.
    bad.rename(tree / "moved_bad.py")
    moved = _assert_miss([tree], cache)
    assert str(tree / "moved_bad.py") in {f.path for f in moved}


def test_corrupt_memo_entry_is_a_counted_miss(tmp_path):
    tree = _tree(tmp_path)
    cache = AstCache(tmp_path / "ast")
    base, project = _run([tree], cache)
    key = findings_key(project, DEFAULT_POLICY, None, None)
    entry = project.findings_cache.path_for(key)
    entry.write_bytes(entry.read_bytes()[:20])

    again, project = _run([tree], cache)
    memo = project.findings_cache
    assert again == base
    assert (memo.hits, memo.misses, memo.corrupt) == (0, 1, 1)
    # The miss wrote the entry back whole.
    third, project = _run([tree], cache)
    assert third == base and project.findings_cache.hits == 1


def test_readonly_cache_dir_degrades_to_plain_analysis(tmp_path):
    tree = _tree(tmp_path)
    blocked = tmp_path / "file-not-dir"
    blocked.write_text("")
    with pytest.warns(RuntimeWarning):
        findings, project = _run([tree], AstCache(blocked / "nested"))
    assert findings == analyze_paths([tree]) != []
    memo = project.findings_cache
    assert (memo.hits, memo.misses, memo.write_errors) == (0, 1, 1)


def test_memo_salt_covers_every_repro_module_a_check_run_imports(tmp_path):
    _run([SRC], AstCache(tmp_path / "ast"))
    package = Path(repro.__file__).resolve().parent
    salted = [(package / pkg).resolve()
              for pkg in FindingsCache.salt_packages]
    uncovered = sorted(
        name for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and not any(Path(module.__file__).resolve().is_relative_to(root)
                    for root in salted)
    )
    assert uncovered == []


def test_memo_generation_moves_with_a_top_level_module(tmp_path):
    # repro/units.py sits in no sub-package, yet the dimension family
    # reads it: editing it must abandon every memoised run.
    copy = tmp_path / "repro"
    shutil.copytree(SRC / "repro", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    before = source_digest(copy, FindingsCache.salt_packages)
    units = copy / "units.py"
    units.write_text(units.read_text() + "\n")
    assert source_digest(copy, FindingsCache.salt_packages) != before
