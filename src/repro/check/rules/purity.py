"""Purity rules: the simulation never performs real I/O.

The model computes what a 2002 Linux cluster *would* do; it must not
touch sockets, spawn processes or threads, or open files while doing
so.  Real I/O belongs to :mod:`repro.realnet` (exempt by policy),
:mod:`repro.exec` (orchestration, outside the purity scope) and
:mod:`repro.core.io` (the sanctioned serialization module, exempt from
``pure-open`` only).

Imports are flagged at the ``import`` statement — a simulation module
that imports :mod:`socket` is suspect even before the first call —
and bare ``open(...)`` calls are flagged unless the module rebinds the
name.
"""

from __future__ import annotations

import ast

from repro.check.analyzer import Finding, ModuleContext

FAMILY = "purity"

RULES = {
    "pure-socket": "real network I/O module in a simulation package",
    "pure-subprocess": "process spawning in a simulation package",
    "pure-thread": "threading in a simulation package",
    "pure-open": "file I/O in a simulation package (allowed: repro.core.io)",
}

#: Top-level module -> rule id.
_BANNED_MODULES: dict[str, str] = {
    "socket": "pure-socket",
    "ssl": "pure-socket",
    "select": "pure-socket",
    "selectors": "pure-socket",
    "asyncio": "pure-socket",
    "http": "pure-socket",
    "urllib": "pure-socket",
    "socketserver": "pure-socket",
    "ftplib": "pure-socket",
    "smtplib": "pure-socket",
    "subprocess": "pure-subprocess",
    "multiprocessing": "pure-subprocess",
    "concurrent": "pure-subprocess",
    "threading": "pure-thread",
    "_thread": "pure-thread",
}

#: Resolved call targets that are file I/O even without a banned import.
_BANNED_CALLS: dict[str, str] = {
    "io.open": "pure-open",
    "os.open": "pure-open",
    "os.fdopen": "pure-open",
    "os.popen": "pure-subprocess",
    "os.system": "pure-subprocess",
}


def _module_scope_bindings(tree: ast.Module) -> set[str]:
    """Names bound at module level (a rebound ``open`` is not builtin)."""
    bound: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
    return bound


class _PurityVisitor(ast.NodeVisitor):
    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self.imports = ctx.imports
        self.module_bindings = _module_scope_bindings(ctx.tree)
        self.findings: list[Finding] = []

    def _flag_module(self, node: ast.AST, module: str) -> None:
        root = module.split(".", 1)[0]
        rule = _BANNED_MODULES.get(root)
        if rule is not None:
            self.findings.append(
                self.ctx.finding(
                    node,
                    rule,
                    f"import of '{module}'; simulation packages model I/O, "
                    "they do not perform it",
                )
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._flag_module(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not node.level and node.module:
            self._flag_module(node, node.module)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "open"
            and "open" not in self.imports.names
            and "open" not in self.module_bindings
        ):
            self.findings.append(
                self.ctx.finding(
                    node,
                    "pure-open",
                    "call to builtin open(); file I/O belongs in "
                    "repro.core.io",
                )
            )
        else:
            dotted = self.imports.resolve(func)
            rule = _BANNED_CALLS.get(dotted) if dotted else None
            if rule is not None:
                self.findings.append(
                    self.ctx.finding(
                        node,
                        rule,
                        f"call to '{dotted}' performs real I/O",
                    )
                )
        self.generic_visit(node)


def check(ctx: ModuleContext) -> list[Finding]:
    """Flag real I/O (sockets, processes, threads, files)."""
    visitor = _PurityVisitor(ctx)
    visitor.visit(ctx.tree)
    return visitor.findings
