"""Cache safety: every tunable must be visible to the fingerprint.

:func:`repro.exec.fingerprint.canonicalize` walks dataclasses with
``dataclasses.fields()``.  That walk *cannot* see:

* ``ClassVar`` annotations — not fields at all;
* ``InitVar`` pseudo-fields — consumed by ``__post_init__``, never
  stored;
* unannotated class-body assignments — plain class attributes.

A timing-relevant knob in any of those spots changes simulated curves
without changing the sweep fingerprint, so the content-addressed cache
(:mod:`repro.exec.cache`) would keep replaying the stale curve.  The
rule flags all three shapes on every ``@dataclass`` in the simulation
packages — :class:`~repro.hw.cluster.ClusterConfig`, the per-library
tunables specs (``TcpLibSpec``, ``TcpTuning``, ...), and anything
added later.
"""

from __future__ import annotations

import ast

from repro.check.analyzer import Finding, ImportMap, ModuleContext

FAMILY = "cache-safety"

RULES = {
    "cache-classvar": (
        "ClassVar on a simulation dataclass is invisible to "
        "fingerprint.canonicalize"
    ),
    "cache-initvar": (
        "InitVar on a simulation dataclass is not stored and not "
        "fingerprinted"
    ),
    "cache-classattr": (
        "unannotated class attribute on a simulation dataclass is not a "
        "field and not fingerprinted"
    ),
}

_CLASSVAR = {"typing.ClassVar", "typing_extensions.ClassVar"}
_INITVAR = {"dataclasses.InitVar"}


def _is_dataclass_decorated(node: ast.ClassDef, imports: ImportMap) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        dotted = imports.resolve(target)
        if dotted in ("dataclasses.dataclass",):
            return True
    return False


def _annotation_base(node: ast.expr) -> ast.expr:
    """``ClassVar[int]`` -> the ``ClassVar`` part."""
    return node.value if isinstance(node, ast.Subscript) else node


def check(ctx: ModuleContext) -> list[Finding]:
    """Flag dataclass members the fingerprint walk cannot reach."""
    imports = ctx.imports
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not _is_dataclass_decorated(node, imports):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                dotted = imports.resolve(_annotation_base(stmt.annotation))
                if dotted in _CLASSVAR:
                    findings.append(
                        ctx.finding(
                            stmt,
                            "cache-classvar",
                            f"'{node.name}.{stmt.target.id}' is a ClassVar: "
                            "dataclasses.fields() skips it, so the sweep "
                            "fingerprint cannot see it — a tunable here "
                            "would replay stale cached curves",
                        )
                    )
                elif dotted in _INITVAR:
                    findings.append(
                        ctx.finding(
                            stmt,
                            "cache-initvar",
                            f"'{node.name}.{stmt.target.id}' is an InitVar: "
                            "it is consumed at __init__ and never "
                            "fingerprinted; store it as a real field",
                        )
                    )
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Name)
                        and not target.id.startswith("__")
                    ):
                        findings.append(
                            ctx.finding(
                                stmt,
                                "cache-classattr",
                                f"'{node.name}.{target.id}' has no "
                                "annotation, so it is a plain class "
                                "attribute, not a dataclass field — "
                                "invisible to the sweep fingerprint",
                            )
                        )
    return findings
