"""The repro-check CLI: exit codes, report format, CLI wiring."""

import json
import re
from pathlib import Path

import pytest

from repro.__main__ import main as repro_main
from repro.check.cli import main as check_main

pytestmark = pytest.mark.check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = Path(__file__).resolve().parent / "check_fixtures"


def test_clean_tree_exits_zero(capsys):
    assert check_main([str(SRC)]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_each_known_bad_fixture_fails_with_file_line(capsys):
    for name in ("det_bad.py", "purity_bad.py", "yield_bad.py", "cache_bad.py"):
        path = FIXTURES / name
        assert check_main([str(path)]) == 1, name
        out = capsys.readouterr().out
        # file:line:col findings, one per line, then a summary.
        first = out.splitlines()[0]
        assert first.startswith(f"{path}:"), first
        prefix, _, _ = first.partition(" ")
        file_part, line_part, col_part = prefix.rsplit(":", 3)[:3]
        assert int(line_part) >= 1 and int(col_part.rstrip(":")) >= 1


def test_json_format(capsys):
    assert check_main([str(FIXTURES / "cache_bad.py"), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 3 == len(payload["findings"])
    assert {f["rule"] for f in payload["findings"]} == {
        "cache-classvar",
        "cache-initvar",
        "cache-classattr",
    }
    assert all(f["path"].endswith("cache_bad.py") for f in payload["findings"])


def test_list_rules(capsys):
    assert check_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "det-wallclock",
        "det-env",
        "pure-socket",
        "yield-discard",
        "cache-classvar",
    ):
        assert rule in out


def test_missing_path_exits_two(capsys):
    assert check_main(["no/such/dir"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_python_m_repro_check_wiring(capsys):
    # Both paths and --options must pass through ``python -m repro``.
    assert repro_main(["check", str(SRC)]) == 0
    capsys.readouterr()
    assert repro_main(["check", "--list-rules"]) == 0
    assert "yield-discard" in capsys.readouterr().out
    assert repro_main(["check", str(FIXTURES / "det_bad.py")]) == 1


# -- rule selection -----------------------------------------------------------

def test_rules_glob_selects_families(capsys):
    # det_bad.py only violates det-* rules; selecting cache-* silences it.
    path = FIXTURES / "det_bad.py"
    assert check_main([str(path), "--rules", "cache-*"]) == 0
    capsys.readouterr()
    assert check_main([str(path), "--rules", "det-*"]) == 1
    out = capsys.readouterr().out
    assert "det-wallclock" in out


def test_rules_exact_ids_compose(capsys):
    path = FIXTURES / "det_bad.py"
    assert check_main([str(path), "--rules", "det-random,det-entropy"]) == 1
    out = capsys.readouterr().out
    assert "det-wallclock" not in out
    assert "det-random" in out and "det-entropy" in out


def test_unknown_rule_pattern_exits_two(capsys):
    assert check_main([str(FIXTURES / "det_bad.py"), "--rules", "det-wallclok"]) == 2
    err = capsys.readouterr().err
    assert "det-wallclok" in err
    assert "--list-rules" in err


def test_empty_rule_selection_exits_two(capsys):
    assert check_main([str(FIXTURES / "det_bad.py"), "--rules", ","]) == 2
    assert "selected no rules" in capsys.readouterr().err


def test_parse_error_survives_rule_selection(capsys, tmp_path):
    # A file the analyzer cannot read must fail even when its rule
    # family was not selected: parse-error is never filtered out.
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    assert check_main([str(bad), "--rules", "dim-*"]) == 1
    assert "parse-error" in capsys.readouterr().out


# -- SARIF --------------------------------------------------------------------

def test_sarif_output_shape(capsys):
    assert check_main([str(FIXTURES / "cache_bad.py"), "--format", "sarif"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-check"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"verify-deadlock", "dim-mixed", "det-wallclock"} <= rule_ids
    results = run["results"]
    assert len(results) == 3
    for result in results:
        assert result["ruleId"].startswith("cache-")
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("cache_bad.py")
        assert loc["region"]["startLine"] >= 1


def test_sarif_clean_run_has_no_results(capsys):
    assert check_main([str(FIXTURES / "dim_good.py"), "--format", "sarif"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"][0]["results"] == []


# -- AST cache flags ----------------------------------------------------------

def test_cache_flag_and_stats(capsys, tmp_path):
    cache_dir = tmp_path / "ast-cache"
    target = str(SRC / "repro" / "check")
    assert check_main([target, "--cache", str(cache_dir), "--stats"]) == 0
    cold = capsys.readouterr().err
    assert "0 from AST cache" in cold

    assert check_main([target, "--cache", str(cache_dir), "--stats"]) == 0
    warm = capsys.readouterr().err
    # Warm run: every file served from cache, zero parsed.
    assert "0 parsed" in warm
    assert "0 from AST cache" not in warm


def test_stats_reports_summary_reuse_counts(capsys, tmp_path):
    cache_dir = tmp_path / "ast-cache"
    target = str(SRC / "repro" / "check")
    assert check_main([target, "--cache", str(cache_dir), "--stats"]) == 0
    cold = capsys.readouterr().err
    assert "0 reused" in cold and "summaries computed" in cold
    nfiles = int(re.search(r"repro-check: (\d+) files", cold).group(1))
    assert nfiles > 1

    # A different --rules selection misses the findings memo, so the
    # dataflow is rebuilt and every summary comes from the store.
    assert check_main([target, "--cache", str(cache_dir), "--stats",
                       "--rules", "async-*,fp-*"]) == 0
    warm = capsys.readouterr().err
    assert "findings analyzed" in warm
    assert "0 summaries computed" in warm
    assert f"{nfiles} reused" in warm
    assert f"summary store: {nfiles} hits, 0 misses" in warm


def test_stats_reports_the_findings_memo_and_store_counters(capsys, tmp_path):
    cache_dir = str(tmp_path / "ast-cache")
    target = str(FIXTURES / "det_bad.py")
    assert check_main([target, "--cache", cache_dir, "--stats"]) == 1
    cold = capsys.readouterr()
    assert "findings analyzed" in cold.err
    assert "findings store: 0 hits, 1 misses" in cold.err

    assert check_main([target, "--cache", cache_dir, "--stats"]) == 1
    warm = capsys.readouterr()
    assert warm.out == cold.out  # the memo replays the same report
    assert "findings from memo" in warm.err
    # Each store line is that store's own ContentStore.stats().
    assert "ast store: 1 hits, 0 misses, 0 corrupt, 0 write errors" in warm.err
    assert "summary store: 0 hits, 0 misses" in warm.err
    assert "findings store: 1 hits, 0 misses, 0 corrupt" in warm.err


# -- incremental analysis (--changed) -----------------------------------------

def test_changed_requires_cache(capsys):
    assert check_main([str(SRC), "--changed"]) == 2
    assert "--changed requires --cache" in capsys.readouterr().err


def test_changed_analyzes_only_edited_files(capsys, tmp_path):
    # A private copy of two fixtures, so edits don't touch the corpus.
    tree = tmp_path / "tree"
    tree.mkdir()
    clean = tree / "clean.py"
    clean.write_text((FIXTURES / "dim_good.py").read_text())
    bad = tree / "bad.py"
    bad.write_text((FIXTURES / "det_bad.py").read_text())
    cache_dir = str(tmp_path / "ast-cache")

    # Cold: everything is "changed", findings reported as usual.
    assert check_main(
        [str(tree), "--cache", cache_dir, "--changed", "--stats"]
    ) == 1
    captured = capsys.readouterr()
    assert "2 changed" in captured.err
    assert "det-wallclock" in captured.out

    # Warm, nothing edited: zero changed files, zero findings — the
    # known-bad file is skipped because it did not change.
    assert check_main(
        [str(tree), "--cache", cache_dir, "--changed", "--stats"]
    ) == 0
    captured = capsys.readouterr()
    assert "0 changed" in captured.err
    assert "0 findings" in captured.out

    # Edit only the clean file: exactly one file re-analyzed, and the
    # unchanged bad file's findings still do not resurface.
    clean.write_text(clean.read_text() + "\n# touched\n")
    assert check_main(
        [str(tree), "--cache", cache_dir, "--changed", "--stats"]
    ) == 0
    captured = capsys.readouterr()
    assert "1 changed" in captured.err
    assert "1 parsed" in captured.err

    # A full (non---changed) run over the same cache still sees the
    # bad file: --changed filters reports, it never hides state.
    assert check_main([str(tree), "--cache", cache_dir]) == 1
    assert "det-wallclock" in capsys.readouterr().out
