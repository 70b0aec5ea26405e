"""``repro-check`` / ``python -m repro check`` — run the analyzer.

Exit status: 0 clean, 1 findings, 2 usage or filesystem errors — an
unknown rule id in ``--rules`` is a usage error (exit 2), never a
silent no-op.

::

    $ repro-check src
    src is clean: 0 findings in 108 files

    $ repro-check tests/check_fixtures/det_bad.py
    tests/check_fixtures/det_bad.py:12:12: det-wallclock use of 'time.time' ...
    1 finding in 1 file

    $ repro-check src --rules 'det-*,dim-*'        # only those families
    $ repro-check src --format sarif > check.sarif # for code scanning
    $ repro-check src --cache .repro-cache/ast     # reuse unchanged work
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from typing import Sequence

from repro.check.analyzer import analyze_project
from repro.check.config import DEFAULT_POLICY


def _list_rules() -> str:
    from repro.check.rules import RULES

    width = max(len(rule_id) for rule_id in RULES)
    lines = [
        f"  {rule_id:<{width}}  [{family}] {description}"
        for rule_id, (family, description) in sorted(RULES.items())
    ]
    return "\n".join(lines)


def _expand_rule_patterns(spec: str) -> frozenset[str]:
    """Rule ids selected by a comma-separated glob list.

    Every pattern must match at least one known rule id; a typo'd
    ``--rules det-wallclok`` must fail loudly (exit 2), not silently
    analyze nothing.
    """
    from repro.check.rules import RULES

    selected: set[str] = set()
    for pattern in (p.strip() for p in spec.split(",")):
        if not pattern:
            continue
        matched = fnmatch.filter(RULES, pattern)
        if not matched:
            raise ValueError(
                f"unknown rule id or pattern {pattern!r} "
                "(see --list-rules)"
            )
        selected.update(matched)
    if not selected:
        raise ValueError("--rules selected no rules")
    return frozenset(selected)


def _print_stats(project, changed: bool) -> None:
    """The ``--stats`` report: this build's :class:`ProjectStats` on one
    line, then each cache store's own ``stats()`` counters."""
    stats = project.stats
    line = (
        f"repro-check: {stats.files} files, "
        f"{stats.parsed} parsed, "
        f"{stats.cache_hits} from AST cache, "
        f"{stats.summaries_computed} summaries computed, "
        f"{stats.summaries_reused} reused"
    )
    if changed:
        line += f", {len(project.changed_paths)} changed"
    memo = project.findings_cache
    if memo is not None:
        line += (", findings from memo" if memo.hits
                 else ", findings analyzed")
    print(line, file=sys.stderr)
    stores = {
        "ast": project.ast_cache,
        "summary": project.summary_cache,
        "findings": memo,
    }
    counts = {name: store.stats() for name, store in stores.items()
              if store is not None}
    for name, c in counts.items():
        print(
            f"repro-check: {name} store: {c['hits']} hits, "
            f"{c['misses']} misses, {c['corrupt']} corrupt, "
            f"{c['write_errors']} write errors, {c['entries']} entries",
            file=sys.stderr,
        )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description=(
            "Determinism, verify and unit-dimension static "
            "analyzer for the repro simulation core "
            "(see docs/STATIC_ANALYSIS.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        metavar="PATTERNS",
        help=(
            "comma-separated rule ids or globs to run "
            "(e.g. 'det-*,dim-*'); unknown ids exit 2"
        ),
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        help=(
            "on-disk cache directory keyed by file content digest; "
            "a warm re-run parses zero unchanged files, and an unchanged "
            "tree re-runs no rule family"
        ),
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help=(
            "analyze only files whose content digest differs from the "
            "AST cache (requires --cache); cross-module families still "
            "see the whole graph, findings are reported for changed "
            "files only"
        ),
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help=(
            "report parsed vs cache-hit file counts, summary "
            "compute/reuse counts, whether the findings came from the "
            "memo, and each cache store's counters on stderr"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    rules = None
    if args.rules is not None:
        try:
            rules = _expand_rule_patterns(args.rules)
        except ValueError as exc:
            print(f"repro-check: {exc}", file=sys.stderr)
            return 2

    from repro.check.project import AstCache, Project

    if args.changed and not args.cache:
        print(
            "repro-check: --changed requires --cache (the AST cache is "
            "what defines 'unchanged')",
            file=sys.stderr,
        )
        return 2

    cache = AstCache(args.cache) if args.cache else None
    try:
        project = Project.from_paths(args.paths, cache=cache)
    except FileNotFoundError as exc:
        print(f"repro-check: {exc}", file=sys.stderr)
        return 2
    only_paths = frozenset(project.changed_paths) if args.changed else None
    findings = analyze_project(
        project, policy=DEFAULT_POLICY, rules=rules, only_paths=only_paths
    )
    nfiles = project.stats.files

    if args.stats:
        _print_stats(project, args.changed)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "files": nfiles,
                    "count": len(findings),
                    "findings": [f.to_dict() for f in findings],
                },
                indent=2,
            )
        )
    elif args.format == "sarif":
        from repro.check.sarif import to_sarif

        print(json.dumps(to_sarif(findings, args.paths), indent=2))
    else:
        for finding in findings:
            print(finding.render())
        target = ", ".join(str(p) for p in args.paths)
        noun = "file" if nfiles == 1 else "files"
        if findings:
            plural = "finding" if len(findings) == 1 else "findings"
            print(f"{len(findings)} {plural} in {nfiles} {noun}")
        else:
            print(f"{target} is clean: 0 findings in {nfiles} {noun}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
