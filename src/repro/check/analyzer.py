"""The analysis driver: parse, dispatch rule families, filter, sort.

One :class:`ModuleContext` per file carries everything a rule needs
(AST, resolved module name, source).  Rules never do their own policy
or suppression filtering — they report every raw violation and the
driver applies :class:`~repro.check.config.Policy` scoping, per-rule
exemptions, and ``# repro: allow[rule-id]`` line suppressions.

Module names are derived from the file path (the trailing
``repro.…`` package path), or overridden by a directive in the first
few lines::

    # repro: module=repro.sim.fixture

which is how the test fixture corpus pretends to live inside the
simulation packages.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.check.config import DEFAULT_POLICY, Policy


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass
class ModuleContext:
    """Everything the rule families get to see for one file."""

    path: str
    module: str | None
    tree: ast.Module
    source: str

    @cached_property
    def imports(self) -> "ImportMap":
        """The module's import map, built once and shared by every rule
        family and the project graph."""
        return ImportMap.from_tree(self.tree)

    def finding(
        self, node: ast.AST, rule: str, message: str
    ) -> Finding:
        """A Finding anchored at ``node``'s location."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )


class ImportMap:
    """Local name -> canonical dotted path, from a module's imports.

    ``import time as t`` maps ``t -> time``; ``from os import environ``
    maps ``environ -> os.environ``.  Relative imports are project-
    internal and never resolve to a banned stdlib module, so they are
    ignored.
    """

    def __init__(self) -> None:
        self.names: dict[str, str] = {}

    @classmethod
    def from_tree(cls, tree: ast.AST) -> "ImportMap":
        imap = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        imap.names[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".", 1)[0]
                        imap.names[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.level or not node.module:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    imap.names[local] = f"{node.module}.{alias.name}"
        return imap

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted path of a Name/Attribute chain, or None."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.names.get(node.id)
        if base is None:
            return None
        return ".".join([base, *reversed(parts)]) if parts else base


# -- suppressions -------------------------------------------------------------

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]")
_MODULE_RE = re.compile(r"^#\s*repro:\s*module=([A-Za-z_][\w.]*)\s*$")


@dataclass(frozen=True)
class AllowComment:
    """One ``# repro: allow[...]`` comment, located and resolved.

    ``target_line`` is the line findings must sit on to be suppressed:
    the comment's own line for a trailing comment, the next non-blank
    non-comment line for a standalone one.
    """

    line: int
    col: int
    target_line: int
    ids: tuple[str, ...]


def collect_allow_comments(source: str) -> list[AllowComment]:
    """Every allow comment in ``source``, in order of appearance."""
    lines = source.splitlines()
    out: list[AllowComment] = []

    def _target_line(comment_line: int, standalone: bool) -> int:
        if not standalone:
            return comment_line
        nxt = comment_line  # 0-based index of the line after the comment
        while nxt < len(lines):
            stripped = lines[nxt].strip()
            if stripped and not stripped.startswith("#"):
                return nxt + 1
            nxt += 1
        return comment_line

    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(tok.string)
            if not match:
                continue
            ids = tuple(
                dict.fromkeys(
                    part.strip()
                    for part in match.group(1).split(",")
                    if part.strip()
                )
            )
            standalone = not tok.line[: tok.start[1]].strip()
            out.append(
                AllowComment(
                    line=tok.start[0],
                    col=tok.start[1] + 1,
                    target_line=_target_line(tok.start[0], standalone),
                    ids=ids,
                )
            )
    except tokenize.TokenError:
        pass
    return out


def collect_suppressions(source: str) -> dict[int, set[str]]:
    """``# repro: allow[...]`` comments, as line -> suppressed rule ids.

    A trailing comment suppresses matching findings on its own line; a
    standalone comment (possibly continued by further comment lines)
    covers the next non-blank, non-comment line.
    """
    out: dict[int, set[str]] = {}
    for comment in collect_allow_comments(source):
        out.setdefault(comment.target_line, set()).update(comment.ids)
    return out


def _suppressed(finding: Finding, suppressions: dict[int, set[str]]) -> bool:
    return finding.rule in suppressions.get(finding.line, ())


# -- module identity ----------------------------------------------------------

def module_name_for_path(path: str | Path) -> str | None:
    """Dotted module from the trailing ``repro/...`` path components."""
    parts = Path(path).resolve().parts
    if "repro" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("repro")
    dotted = list(parts[idx:])
    dotted[-1] = dotted[-1].removesuffix(".py")
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted)


def _directive_module(source: str) -> str | None:
    for line in source.splitlines()[:10]:
        match = _MODULE_RE.match(line.strip())
        if match:
            return match.group(1)
    return None


# -- driver -------------------------------------------------------------------

_UNSET = object()


def analyze_project(
    project,
    policy: Policy = DEFAULT_POLICY,
    rules: frozenset[str] | set[str] | None = None,
    only_paths: set[str] | frozenset[str] | None = None,
) -> list[Finding]:
    """Run every applicable rule family over a built Project.

    Per-module families see one :class:`ModuleContext` at a time;
    project-scope families (``check_project``) see the whole graph and
    have their findings filtered afterwards by the policy scope of the
    module each finding lands in.  ``rules`` (when given) is the set of
    rule ids to keep — families with no selected rule are skipped
    entirely; ``parse-error`` is always reported.

    ``only_paths`` (the ``--changed`` machinery) restricts *reported*
    findings to those paths and runs per-module families only on them;
    project-scope families still see the whole graph — a cross-module
    property needs the full universe even when only one file moved.

    A project built with an AST cache memoises the result in its
    :class:`~repro.check.project.FindingsCache`: a run whose files,
    policy and selections all match a stored one returns the stored
    findings without running any family.
    """
    from repro.check.project import findings_key

    memo = project.findings_cache
    if memo is None:
        return _run_families(project, policy, rules, only_paths)
    key = findings_key(project, policy, rules, only_paths)
    findings = memo.get(key)
    if findings is None:
        findings = _run_families(project, policy, rules, only_paths)
        memo.put(key, findings)
    return findings


def _run_families(project, policy, rules, only_paths) -> list[Finding]:
    """:func:`analyze_project` without the memo."""
    from repro.check.rules import FAMILIES, PROJECT_FAMILIES, RULES

    def selected(family) -> bool:
        return rules is None or bool(set(family.RULES) & rules)

    def in_scope(path: str) -> bool:
        return only_paths is None or path in only_paths

    raw: list[Finding] = [f for f in project.errors if in_scope(f.path)]
    for family in FAMILIES:
        if not selected(family):
            continue
        for ctx in project.modules:
            if not in_scope(ctx.path):
                continue
            if policy.family_applies(family.FAMILY, ctx.module):
                raw.extend(family.check(ctx))
    for family in PROJECT_FAMILIES:
        if not selected(family):
            continue
        for finding in family.check_project(project):
            if not in_scope(finding.path):
                continue
            module = project.module_for_path(finding.path)
            if policy.family_applies(family.FAMILY, module):
                raw.append(finding)

    # Suppressions are collected eagerly for every in-scope module (not
    # just paths with findings) so stale allow comments in clean files
    # are still judged by the unused-suppression meta-rule.
    suppressions_by_path: dict[str, dict[int, set[str]]] = {}
    allows_by_path: dict[str, list[AllowComment]] = {}
    for ctx in project.modules:
        if not in_scope(ctx.path):
            continue
        if "allow[" not in ctx.source:
            # Fast path: tokenizing is ~ms per file; a substring probe
            # keeps the eager sweep free for the vast allow-less case.
            allows_by_path[ctx.path] = []
            suppressions_by_path[ctx.path] = {}
            continue
        comments = collect_allow_comments(ctx.source)
        allows_by_path[ctx.path] = comments
        table: dict[int, set[str]] = {}
        for comment in comments:
            table.setdefault(comment.target_line, set()).update(comment.ids)
        suppressions_by_path[ctx.path] = table

    consumed: set[tuple[str, int, str]] = set()
    out: list[Finding] = []
    for finding in raw:
        module = project.module_for_path(finding.path)
        if not policy.rule_applies(finding.rule, module):
            continue
        if (
            rules is not None
            and finding.rule not in rules
            and finding.rule != "parse-error"
        ):
            continue
        if finding.path not in suppressions_by_path:
            source = project.source_for_path(finding.path)
            suppressions_by_path[finding.path] = (
                collect_suppressions(source) if source is not None else {}
            )
        if _suppressed(finding, suppressions_by_path[finding.path]):
            consumed.add((finding.path, finding.line, finding.rule))
            continue
        out.append(finding)

    if rules is None or "unused-suppression" in rules:
        out.extend(
            _unused_suppressions(allows_by_path, consumed, rules, RULES)
        )
    return sorted(out)


def _unused_suppressions(
    allows_by_path: dict[str, list[AllowComment]],
    consumed: set[tuple[str, int, str]],
    rules: frozenset[str] | set[str] | None,
    known_rules: dict,
) -> list[Finding]:
    """Allow comments that suppressed nothing this run.

    Under a ``--rules`` selection, only allows naming *selected* rules
    are judged (an allow for a family that did not run is not stale,
    just out of scope today).  Unknown rule ids are always findings —
    they can never suppress anything.  ``allow[unused-suppression]`` is
    never judged: a suppression of the meta-rule by itself would be
    unfalsifiable.  These findings deliberately bypass line
    suppression — silencing the hygiene rule with the mechanism it
    polices would hide exactly the rot it exists to find.
    """
    findings: list[Finding] = []
    for path, comments in allows_by_path.items():
        for comment in comments:
            for rule_id in comment.ids:
                if rule_id == "unused-suppression":
                    continue
                if rule_id not in known_rules:
                    findings.append(
                        Finding(
                            path=path,
                            line=comment.line,
                            col=comment.col,
                            rule="unused-suppression",
                            message=(
                                f"allow[{rule_id}] names an unknown rule "
                                "id — it can never suppress anything "
                                "(see --list-rules)"
                            ),
                        )
                    )
                    continue
                if rules is not None and rule_id not in rules:
                    continue
                if (path, comment.target_line, rule_id) not in consumed:
                    findings.append(
                        Finding(
                            path=path,
                            line=comment.line,
                            col=comment.col,
                            rule="unused-suppression",
                            message=(
                                f"allow[{rule_id}] suppresses nothing — "
                                "the violation it excused is gone; "
                                "delete the comment"
                            ),
                        )
                    )
    return findings


def analyze_source(
    source: str,
    path: str = "<string>",
    module: object = _UNSET,
    policy: Policy = DEFAULT_POLICY,
    rules: frozenset[str] | set[str] | None = None,
) -> list[Finding]:
    """Run every applicable rule family over one module's source."""
    if module is _UNSET:
        module = _directive_module(source) or module_name_for_path(path)
    from repro.check.project import Project

    project = Project.from_source(source, path=path, module=module, derive=False)
    return analyze_project(project, policy=policy, rules=rules)


def analyze_file(
    path: str | Path, policy: Policy = DEFAULT_POLICY
) -> list[Finding]:
    """Analyze one ``.py`` file."""
    text = Path(path).read_text(encoding="utf-8")
    return analyze_source(text, path=str(path), policy=policy)


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Every ``.py`` under ``paths`` (skipping hidden dirs, __pycache__).

    Only the parts below each given path are tested, so a tree that
    itself lives under a dot-directory is still found.
    """
    for entry in paths:
        p = Path(entry)
        if not p.exists():
            raise FileNotFoundError(f"no such file or directory: {p}")
        if p.is_file():
            yield p
            continue
        for sub in sorted(p.rglob("*.py")):
            if any(
                part == "__pycache__" or part.startswith(".")
                for part in sub.relative_to(p).parts
            ):
                continue
            yield sub


def analyze_paths(
    paths: Sequence[str | Path],
    policy: Policy = DEFAULT_POLICY,
    cache=None,
    rules: frozenset[str] | set[str] | None = None,
) -> list[Finding]:
    """Analyze files and directory trees; findings sorted by location.

    All files are loaded into one :class:`~repro.check.project.Project`
    first so cross-module families can resolve names between them.
    ``cache`` is an optional :class:`~repro.check.project.AstCache`.
    """
    from repro.check.project import Project

    project = Project.from_paths(paths, cache=cache)
    return analyze_project(project, policy=policy, rules=rules)
