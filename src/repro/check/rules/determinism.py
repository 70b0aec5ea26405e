"""Determinism rules: no hidden inputs in the simulation packages.

Simulated time is :attr:`repro.sim.engine.Engine.now` and nothing
else.  Any read of the wall clock, the process environment, or an
entropy source inside the scoped packages makes a curve depend on
state the sweep fingerprint cannot see — which the content-addressed
cache then freezes forever (DESIGN.md §5, docs/PERFORMANCE.md).

Detection is use-site based: importing :mod:`time` is harmless, calling
``time.time()`` is not.  Aliased imports (``import time as t``,
``from time import perf_counter``) resolve through the module's import
table before matching.
"""

from __future__ import annotations

import ast

from repro.check.analyzer import Finding, ImportMap, ModuleContext

FAMILY = "determinism"

RULES = {
    "det-wallclock": "wall-clock read inside a simulation package",
    "det-random": "process-global random module inside a simulation package",
    "det-entropy": "OS entropy source inside a simulation package",
    "det-env": "environment variable read inside a simulation package",
}

#: Dotted-prefix -> (rule id, why).  A use matches the longest prefix.
_BANNED: dict[str, tuple[str, str]] = {
    "time.time": ("det-wallclock", "reads the wall clock"),
    "time.time_ns": ("det-wallclock", "reads the wall clock"),
    "time.perf_counter": ("det-wallclock", "reads the wall clock"),
    "time.perf_counter_ns": ("det-wallclock", "reads the wall clock"),
    "time.monotonic": ("det-wallclock", "reads the wall clock"),
    "time.monotonic_ns": ("det-wallclock", "reads the wall clock"),
    "time.process_time": ("det-wallclock", "reads CPU time"),
    "time.process_time_ns": ("det-wallclock", "reads CPU time"),
    "time.clock_gettime": ("det-wallclock", "reads the wall clock"),
    "time.clock_gettime_ns": ("det-wallclock", "reads the wall clock"),
    "time.sleep": ("det-wallclock", "blocks on real time"),
    "datetime.datetime.now": ("det-wallclock", "reads the wall clock"),
    "datetime.datetime.utcnow": ("det-wallclock", "reads the wall clock"),
    "datetime.datetime.today": ("det-wallclock", "reads the wall clock"),
    "datetime.date.today": ("det-wallclock", "reads the wall clock"),
    "random": ("det-random", "hidden process-global RNG state"),
    "numpy.random": ("det-random", "hidden process-global RNG state"),
    "os.urandom": ("det-entropy", "OS entropy source"),
    "uuid.uuid1": ("det-entropy", "host/time-dependent UUID"),
    "uuid.uuid4": ("det-entropy", "OS entropy source"),
    "secrets": ("det-entropy", "OS entropy source"),
    "os.environ": ("det-env", "environment read"),
    "os.environb": ("det-env", "environment read"),
    "os.getenv": ("det-env", "environment read"),
}


def _match(dotted: str) -> tuple[str, str, str] | None:
    """Longest banned prefix covering ``dotted``, if any."""
    best: tuple[str, str, str] | None = None
    for prefix, (rule, why) in _BANNED.items():
        if dotted == prefix or dotted.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, rule, why)
    return best


class _UseVisitor(ast.NodeVisitor):
    def __init__(self, ctx: ModuleContext, imports: ImportMap):
        self.ctx = ctx
        self.imports = imports
        self.findings: list[Finding] = []

    def _flag(self, node: ast.AST) -> bool:
        dotted = self.imports.resolve(node)
        if dotted is None:
            return False
        matched = _match(dotted)
        if matched is None:
            return False
        _, rule, why = matched
        self.findings.append(
            self.ctx.finding(
                node,
                rule,
                f"use of '{dotted}' ({why}); simulated state must be a "
                "function of explicit, fingerprinted inputs",
            )
        )
        return True

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Flag the longest chain once ('os.environ.get', not also
        # 'os.environ'); only descend when nothing matched.
        if not self._flag(node):
            self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        self._flag(node)


def check(ctx: ModuleContext) -> list[Finding]:
    """Flag wall-clock/entropy/environment reads in ``ctx``'s module."""
    visitor = _UseVisitor(ctx, ctx.imports)
    visitor.visit(ctx.tree)
    return visitor.findings
