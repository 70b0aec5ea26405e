"""Bench: warm `repro check` skips parsing via the AST cache.

``repro check src`` is on the development inner loop (pre-commit, CI),
so its cost is dominated by ``ast.parse`` over ~100 files.  The
content-addressed AST cache (:class:`repro.check.project.AstCache`)
keys pickled module trees by file digest, so an unchanged tree costs
one hash + one unpickle per file on re-run; the findings memo beside
it then answers the whole run without running a rule family.  This
bench makes two claims machine-checkable:

* a warm re-run parses **zero** unchanged files (the stats counters
  prove it — this is the structural claim, independent of host speed);
* warm wall time beats cold wall time (hash+unpickle plus one memo
  read is cheaper than ``ast.parse`` and every family at any clock
  rate).

The numbers land in docs/PERFORMANCE.md.
"""

from __future__ import annotations

import time
from pathlib import Path

from conftest import report

from repro.check.analyzer import analyze_project
from repro.check.project import AstCache, Project

SRC = Path(__file__).resolve().parent.parent / "src"


def _timed_run(cache: AstCache):
    start = time.perf_counter()
    project = Project.from_paths([SRC], cache=cache)
    findings = analyze_project(project)
    elapsed = time.perf_counter() - start
    return project, findings, elapsed


def test_warm_cache_parses_zero_files(tmp_path):
    """Structural claim: the second run is served entirely from cache."""
    cache = AstCache(tmp_path / "ast")

    cold_project, cold_findings, cold_s = _timed_run(cache)
    assert cold_project.stats.parsed == cold_project.stats.files > 0
    assert cold_project.stats.cache_hits == 0

    warm_project, warm_findings, warm_s = _timed_run(cache)
    assert warm_project.stats.parsed == 0
    assert warm_project.stats.cache_hits == warm_project.stats.files
    assert warm_findings == cold_findings == []

    report(
        "repro check AST cache: cold vs warm",
        "\n".join(
            [
                f"files analyzed     {cold_project.stats.files}",
                f"cold run           {cold_s * 1e3:8.1f} ms "
                f"({cold_project.stats.parsed} parsed)",
                f"warm run           {warm_s * 1e3:8.1f} ms "
                f"({warm_project.stats.parsed} parsed, "
                f"{warm_project.stats.cache_hits} cache hits)",
                f"speedup            {cold_s / warm_s:8.2f}x",
            ]
        ),
    )


def test_warm_run_is_faster_than_cold(tmp_path, benchmark):
    """Wall-clock claim, timed with the harness for the bench log."""
    cache = AstCache(tmp_path / "ast")
    _, _, cold_s = _timed_run(cache)

    def warm():
        project, findings, _ = _timed_run(cache)
        assert project.stats.parsed == 0
        return findings

    benchmark(warm)
    warm_s = benchmark.stats.stats.mean
    assert warm_s < cold_s, (warm_s, cold_s)
