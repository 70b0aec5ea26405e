"""Whole-project view for cross-module rule families.

A :class:`Project` is a module graph over a set of analyzed files: one
:class:`~repro.check.analyzer.ModuleContext` per file, indexed by path
and by resolved module name, plus lazy per-module import maps and
top-level definition tables.  Project-scope rule families (protocol
flow, dimension analysis) use it to resolve a name in one module to
its definition in another — following ``from x import y`` re-export
chains — which a per-file analyzer cannot do.

Parsing is the dominant cost of a whole-tree run, so the project can
load trees from an :class:`AstCache` keyed by *content digest*, the
SHA-256 of the file bytes: an unchanged tree re-runs with zero parses,
and editing any analyzer source invalidates every cached tree.  The
same cache root holds the per-file function summaries and a
:class:`FindingsCache`, which memoises a whole analysis run: an
unchanged tree, analyzed under the same policy and selection, runs no
rule family at all.
"""

from __future__ import annotations

import ast
import hashlib
import json
import pickle
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from repro.check.analyzer import (
    Finding,
    ImportMap,
    ModuleContext,
    _directive_module,
    iter_python_files,
    module_name_for_path,
)
from repro.check.config import Policy
from repro.store import ContentStore


def file_digest(data: bytes) -> str:
    """Content digest keying one file's cached AST."""
    return hashlib.sha256(data).hexdigest()


class AstCache(ContentStore):
    """Pickled ASTs keyed by :func:`file_digest`.

    The generation folds in the Python minor version (pickled ASTs are
    not portable across grammars) and a digest over the ``check``
    package, so editing any rule or driver source starts afresh.
    """

    suffix = ".ast"
    version = "repro-ast-v1"
    salt_packages = ("check",)

    @staticmethod
    def _decode(payload: bytes) -> ast.Module:
        tree = pickle.loads(payload)
        if not isinstance(tree, ast.Module):
            raise ValueError("an AST entry must pickle an ast.Module")
        return tree

    def get(self, digest: str) -> ast.Module | None:
        return self.read(digest, self._decode)

    def put(self, digest: str, tree: ast.Module) -> Path | None:
        payload = pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL)
        return self.write(digest, payload)


class FindingsCache(ContentStore):
    """The final findings of one analysis run, keyed by :func:`findings_key`.

    The key names the analyzed files by content, so the generation must
    name the analyzer by content too.  That is wider than the ``check``
    package: the ``verify`` family model-checks against the running
    program's spec universe (``repro.mplib``, ``repro.verify``) and the
    dimension family reads ``repro.units``.  The salt is therefore the
    whole installed ``repro`` tree, top-level modules included; editing
    any of it abandons every memoised run.
    """

    suffix = ".findings.json"
    version = "repro-findings-v1"
    #: ``"."`` is the ``repro`` package directory itself.
    salt_packages = (".",)

    _FIELDS = {"path": str, "line": int, "col": int, "rule": str,
               "message": str}

    @classmethod
    def _decode(cls, payload: bytes) -> list[Finding]:
        findings = []
        for entry in json.loads(payload)["findings"]:
            if {k: type(v) for k, v in entry.items()} != cls._FIELDS:
                raise ValueError(f"not a finding: {entry!r}")
            findings.append(Finding(**entry))
        return findings

    def get(self, key: str) -> list[Finding] | None:
        return self.read(key, self._decode)

    def put(self, key: str, findings: list[Finding]) -> Path | None:
        payload = json.dumps({"findings": [f.to_dict() for f in findings]})
        return self.write(key, payload.encode())


def findings_key(
    project: "Project",
    policy: Policy,
    rules: frozenset[str] | set[str] | None,
    only_paths: frozenset[str] | set[str] | None,
) -> str:
    """SHA-256 naming everything an analysis run's findings depend on.

    That is every file :meth:`Project.from_paths` loaded, in load order,
    by path, resolved module and content digest (parse failures
    included), the policy, and the ``rules`` and ``only_paths``
    selections; the program doing the analysis is named by
    :class:`FindingsCache`'s generation.
    """
    from repro.exec.fingerprint import canonicalize

    digests = project.digest_by_path
    files = [(ctx.path, ctx.module, digests[ctx.path])
             for ctx in project.modules]
    files += [(err.path, None, digests[err.path]) for err in project.errors]
    material = canonicalize((
        files, policy,
        None if rules is None else sorted(rules),
        None if only_paths is None else sorted(only_paths),
    ))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass
class ProjectStats:
    """Where the trees and summaries in one Project build came from."""

    files: int = 0
    parsed: int = 0
    cache_hits: int = 0
    summaries_computed: int = 0
    summaries_reused: int = 0


@dataclass
class _ModuleInfo:
    """Lazily computed per-module lookup tables."""

    ctx: ModuleContext
    _defs: dict[str, ast.stmt] | None = None

    @property
    def defs(self) -> dict[str, ast.stmt]:
        """Top-level name -> defining statement (class/function/assign)."""
        if self._defs is None:
            table: dict[str, ast.stmt] = {}
            for stmt in self.ctx.tree.body:
                if isinstance(stmt, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    table[stmt.name] = stmt
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            table[target.id] = stmt
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    table[stmt.target.id] = stmt
            self._defs = table
        return self._defs


@dataclass
class Resolved:
    """A dotted path resolved to its defining statement.

    ``rest`` holds attribute components past the definition — resolving
    ``repro.mplib.tcp_base.Route.DAEMON`` lands on the ``Route`` class
    with ``rest == ("DAEMON",)``.
    """

    ctx: ModuleContext
    node: ast.AST
    rest: tuple[str, ...] = ()


class Project:
    """Module graph over one analyzed file set."""

    def __init__(self) -> None:
        self._infos: list[_ModuleInfo] = []
        self._by_path: dict[str, _ModuleInfo] = {}
        self._by_name: dict[str, _ModuleInfo] = {}
        #: Parse failures, reported as ``parse-error`` findings.
        self.errors: list[Finding] = []
        self.stats = ProjectStats()
        #: Content digest per loaded path (also keys summary entries).
        self.digest_by_path: dict[str, str] = {}
        #: Paths whose tree was *not* served by the AST cache this
        #: build — i.e. new or edited since the last cached run.
        self.changed_paths: set[str] = set()
        #: The cache the project was built with (summaries and the
        #: findings memo share its root).
        self.ast_cache: AstCache | None = None
        self._dataflow = None

    @cached_property
    def summary_cache(self):
        """Per-file function summaries beside the AST cache, if any."""
        if self.ast_cache is None:
            return None
        from repro.check.dataflow import SummaryCache

        return SummaryCache(self.ast_cache.root)

    @cached_property
    def findings_cache(self) -> FindingsCache | None:
        """The whole-run findings memo beside the AST cache, if any."""
        if self.ast_cache is None:
            return None
        return FindingsCache(self.ast_cache.root)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_paths(
        cls,
        paths: Sequence[str | Path],
        cache: AstCache | None = None,
    ) -> "Project":
        """Build from files and directory trees (may raise FileNotFoundError)."""
        project = cls()
        project.ast_cache = cache
        for path in iter_python_files(paths):
            project._load_file(path, cache)
        return project

    @classmethod
    def from_source(
        cls,
        source: str,
        path: str = "<string>",
        module: str | None = None,
        derive: bool = True,
    ) -> "Project":
        """Single-module project over in-memory source.

        With ``derive`` (the default), a ``None`` module is resolved
        from the ``# repro: module=`` directive or the path; pass
        ``derive=False`` to force an explicit (possibly None) module.
        """
        project = cls()
        project._add_source(source, path, module, derive)
        return project

    def _load_file(self, path: Path, cache: AstCache | None) -> None:
        try:
            data = path.read_bytes()
            source = data.decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise FileNotFoundError(f"cannot read {path}: {exc}") from exc
        digest = file_digest(data)
        self.digest_by_path[str(path)] = digest
        tree = cache.get(digest) if cache is not None else None
        if tree is not None:
            self.stats.cache_hits += 1
        else:
            self.changed_paths.add(str(path))
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:
                self.stats.files += 1
                self.errors.append(
                    Finding(
                        path=str(path),
                        line=exc.lineno or 1,
                        col=(exc.offset or 0) or 1,
                        rule="parse-error",
                        message=f"cannot parse: {exc.msg}",
                    )
                )
                return
            self.stats.parsed += 1
            if cache is not None:
                cache.put(digest, tree)
        module = _directive_module(source) or module_name_for_path(path)
        self._add(ModuleContext(str(path), module, tree, source))

    def _add_source(
        self, source: str, path: str, module: str | None, derive: bool
    ) -> None:
        if module is None and derive:
            module = _directive_module(source) or module_name_for_path(path)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.stats.files += 1
            self.errors.append(
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) or 1,
                    rule="parse-error",
                    message=f"cannot parse: {exc.msg}",
                )
            )
            return
        self._add(ModuleContext(path, module, tree, source))

    def _add(self, ctx: ModuleContext) -> None:
        info = _ModuleInfo(ctx)
        self._infos.append(info)
        self._by_path[ctx.path] = info
        if ctx.module is not None:
            self._by_name.setdefault(ctx.module, info)
        self.stats.files += 1

    # -- access ---------------------------------------------------------------

    @property
    def modules(self) -> list[ModuleContext]:
        return [info.ctx for info in self._infos]

    def dataflow(self):
        """The interprocedural view (memoized per build).

        Summaries come from the per-file cache when the project was
        built with one; see :mod:`repro.check.dataflow`.
        """
        if self._dataflow is None:
            from repro.check.dataflow import Dataflow

            self._dataflow = Dataflow.build(self)
        return self._dataflow

    def module_for_path(self, path: str) -> str | None:
        info = self._by_path.get(path)
        return info.ctx.module if info else None

    def source_for_path(self, path: str) -> str | None:
        info = self._by_path.get(path)
        return info.ctx.source if info else None

    def imports_of(self, ctx: ModuleContext) -> ImportMap:
        return self._by_path[ctx.path].ctx.imports

    # -- cross-module name resolution -----------------------------------------

    def resolve(self, dotted: str, _depth: int = 0) -> Resolved | None:
        """Definition of a fully-qualified dotted name, if in-project.

        Splits ``dotted`` at the longest known module prefix, looks the
        first remaining component up in that module's top-level defs,
        and follows ``from x import y`` re-exports (``__init__``
        modules) up to a fixed depth.  Leftover components are returned
        in :attr:`Resolved.rest`.
        """
        if _depth > 10:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            info = self._by_name.get(".".join(parts[:cut]))
            if info is None:
                continue
            rest = parts[cut:]
            if not rest:
                return Resolved(info.ctx, info.ctx.tree, ())
            name, trailing = rest[0], tuple(rest[1:])
            node = info.defs.get(name)
            if node is not None:
                return Resolved(info.ctx, node, trailing)
            # Re-export: ``from repro.mplib.tcp_base import Route`` in a
            # package __init__ forwards the lookup to the source module.
            target = info.ctx.imports.names.get(name)
            if target is not None and target != dotted:
                return self.resolve(
                    ".".join([target, *trailing]), _depth=_depth + 1
                )
            return None
        return None

    def resolve_local(self, ctx: ModuleContext, name: str) -> Resolved | None:
        """Definition of a bare name as seen from inside ``ctx``.

        Checks the module's own top-level defs first, then its import
        map (resolving cross-module references project-wide).
        """
        info = self._by_path[ctx.path]
        node = info.defs.get(name)
        if node is not None:
            return Resolved(ctx, node, ())
        target = info.ctx.imports.names.get(name)
        if target is not None:
            return self.resolve(target)
        return None

    def resolve_base_class(
        self, ctx: ModuleContext, base: ast.expr
    ) -> Resolved | None:
        """ClassDef a base-class expression refers to, if in-project."""
        if isinstance(base, ast.Name):
            resolved = self.resolve_local(ctx, base.id)
        else:
            dotted = self.imports_of(ctx).resolve(base)
            resolved = self.resolve(dotted) if dotted else None
        if resolved and isinstance(resolved.node, ast.ClassDef):
            return resolved
        return None

    def iter_classes(self) -> Iterable[tuple[ModuleContext, ast.ClassDef]]:
        """Every top-level class in the project, with its module."""
        for info in self._infos:
            for stmt in info.ctx.tree.body:
                if isinstance(stmt, ast.ClassDef):
                    yield info.ctx, stmt
