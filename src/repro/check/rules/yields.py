"""Yield discipline: a discarded call to a generator is a lost event.

Sim processes are generators driven by :class:`repro.sim.process.
Process`; a generator's body does not execute until the engine (or a
``yield from``) advances it.  So the classic forgotten-``yield`` bug

::

    def pinger(eng, ep):
        ep.send(size)          # creates a generator... and drops it
        yield eng.timeout(t)

silently loses the send: no exception, no event, a curve that is wrong
but plausible.  The rule flags an *expression statement* that calls a
known generator and discards the result.  "Known" is resolved
statically and conservatively within one module: bare names defined as
generator functions in an enclosing scope, and ``self.``/``cls.``
method calls whose target is a generator method of the enclosing
class.  Passing the generator somewhere (``eng.process(worker())``),
yielding it, or binding it are all fine.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.analyzer import Finding, ModuleContext

FAMILY = "yield-discipline"

RULES = {
    "yield-discard": (
        "expression statement calls a generator and discards it "
        "(forgotten 'yield from' / Engine.process)"
    ),
}

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def contains_yield(body: list[ast.stmt]) -> bool:
    """Yield/YieldFrom in this body, not counting nested scopes."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(node, (*_FUNC_NODES, ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def _scope_statements(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Nodes of one scope: descends into compound statements (``if``,
    ``for``, ``with``, ``try``) but not into nested defs or classes."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (*_FUNC_NODES, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class _Checker:
    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self.findings: list[Finding] = []

    def run(self) -> list[Finding]:
        self._check_scope(self.ctx.tree.body, scopes=[], class_gens=None)
        return self.findings

    def _check_scope(
        self,
        body: list[ast.stmt],
        scopes: list[dict[str, bool]],
        class_gens: set[str] | None,
    ) -> None:
        nodes = list(_scope_statements(body))
        table = {
            n.name: contains_yield(n.body)
            for n in nodes
            if isinstance(n, _FUNC_NODES)
        }
        scopes = scopes + [table]
        for node in nodes:
            if isinstance(node, _FUNC_NODES):
                self._check_scope(node.body, scopes, class_gens)
            elif isinstance(node, ast.ClassDef):
                self._check_class(node, scopes)
            elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                self._check_call(node.value, scopes, class_gens)

    def _check_class(
        self, node: ast.ClassDef, scopes: list[dict[str, bool]]
    ) -> None:
        gens = {
            stmt.name
            for stmt in node.body
            if isinstance(stmt, _FUNC_NODES) and contains_yield(stmt.body)
        }
        for stmt in node.body:
            if isinstance(stmt, _FUNC_NODES):
                self._check_scope(stmt.body, scopes, class_gens=gens)
            elif isinstance(stmt, ast.ClassDef):
                self._check_class(stmt, scopes)

    def _check_call(
        self,
        call: ast.Call,
        scopes: list[dict[str, bool]],
        class_gens: set[str] | None,
    ) -> None:
        func = call.func
        name: str | None = None
        if isinstance(func, ast.Name):
            for table in reversed(scopes):
                if func.id in table:
                    name = func.id if table[func.id] else None
                    break
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and class_gens
            and func.attr in class_gens
        ):
            name = f"{func.value.id}.{func.attr}"
        if name is not None:
            self.findings.append(
                self.ctx.finding(
                    call,
                    "yield-discard",
                    f"'{name}(...)' is a generator whose value is discarded "
                    "— the process never runs; use 'yield from', "
                    "'engine.process(...)', or bind the generator",
                )
            )


def check(ctx: ModuleContext) -> list[Finding]:
    """Flag expression statements that discard a known generator."""
    return _Checker(ctx).run()
