"""Bench: a warm whole-project check stays under 2s, memo hit or not.

The interprocedural layer doubled what a check run computes (per-file
parse + per-function dataflow summaries), so this guard pins the cost
contract that keeps ``repro check`` on the pre-commit inner loop.  Three
warm runs follow a cold one over the same cache:

* the same question again is served whole by the findings memo
  (:class:`repro.check.project.FindingsCache`): zero files parsed, zero
  summaries computed or read, no rule family run;
* the same question with the memo emptied runs every family, including
  async-* and fp-*, yet re-parses zero files and re-summarizes zero
  modules.  Only the interprocedural closure (indexing, call
  resolution, transitive blocking/env walks) is recomputed, and it must
  finish inside a 2-second budget;
* the pre-commit case, one file edited, misses the memo, re-parses and
  re-summarizes that one file, and must fit the same budget: the memo's
  own cost on a miss (key, one small write) rides inside it.

The runs analyze a private copy of ``src`` so the edit never touches
the checkout.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from conftest import report

from repro.check.analyzer import analyze_project
from repro.check.project import AstCache, Project

SRC = Path(__file__).resolve().parent.parent / "src"

WARM_BUDGET_S = 2.0


def _timed_run(tree: Path, cache: AstCache):
    """One check run: its stats, findings memo, findings and seconds.

    The project is dropped on return, so earlier runs' trees do not
    slow later runs' garbage collection.
    """
    start = time.perf_counter()
    project = Project.from_paths([tree], cache=cache)
    findings = analyze_project(project)
    elapsed = time.perf_counter() - start
    return project.stats, project.findings_cache, findings, elapsed


def test_warm_whole_project_run_stays_under_budget(tmp_path):
    tree = tmp_path / "src"
    shutil.copytree(SRC / "repro", tree / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cache = AstCache(tmp_path / "ast")

    cold, _, cold_findings, cold_s = _timed_run(tree, cache)
    assert cold_findings == []
    assert cold.summaries_computed == cold.files

    hit, memo, hit_findings, hit_s = _timed_run(tree, cache)
    assert hit_findings == []
    # The same question: served by the memo, nothing parsed or summarized.
    assert memo.hits == 1
    assert hit.parsed == 0
    assert hit.summaries_computed == 0
    assert hit.summaries_reused == 0

    assert memo.clear() == 1
    warm, memo, warm_findings, warm_s = _timed_run(tree, cache)
    assert warm_findings == []
    # An emptied memo misses; the per-file caches still serve.
    assert memo.misses == 1
    assert warm.parsed == 0
    assert warm.summaries_computed == 0
    assert warm.summaries_reused == warm.files

    units = tree / "repro" / "units.py"
    units.write_text(units.read_text() + "# edited\n")
    edit, memo, edit_findings, edit_s = _timed_run(tree, cache)
    assert edit_findings == []
    # One edited file: the memo misses, only that file is re-done.
    assert memo.misses == 1
    assert edit.parsed == 1
    assert edit.summaries_computed == 1
    assert edit.summaries_reused == edit.files - 1

    # Then the wall-clock contract CI enforces.
    for name, seconds in (("warm", warm_s), ("one-edit", edit_s)):
        assert seconds < WARM_BUDGET_S, (
            f"{name} whole-project check took {seconds:.2f}s "
            f"(budget {WARM_BUDGET_S:.1f}s)"
        )

    report(
        "repro check warm-run budget (all families, summaries cached)",
        "\n".join(
            [
                f"files analyzed     {cold.files}",
                f"cold run           {cold_s * 1e3:8.1f} ms "
                f"({cold.summaries_computed} summaries computed)",
                f"memo hit           {hit_s * 1e3:8.1f} ms "
                "(no family run)",
                f"warm memo miss     {warm_s * 1e3:8.1f} ms "
                f"({warm.summaries_reused} summaries reused)",
                f"one file edited    {edit_s * 1e3:8.1f} ms "
                f"({edit.parsed} parsed, memo miss)",
                f"budget             {WARM_BUDGET_S * 1e3:8.1f} ms",
            ]
        ),
    )
