"""Rule registry: one module per rule family.

Each family module exposes ``FAMILY`` (the policy-scope key) and
``RULES`` (rule id -> one-line description).  Per-module families
implement ``check(ctx) -> list[Finding]``; project-scope families
implement ``check_project(project) -> list[Finding]`` and see the
whole module graph (cross-file name resolution).  The driver in
:mod:`repro.check.analyzer` decides *whether* a family runs on a
module; families report every raw violation they see.
"""

from __future__ import annotations

from repro.check.rules import (
    asyncsafety,
    cache,
    determinism,
    dimension,
    fingerprint,
    purity,
    verify,
    yields,
)

#: Per-module rule family modules, in report order.
FAMILIES = (determinism, purity, yields, cache)

#: Project-scope families: run once over the whole module graph.
#: asyncsafety and fingerprint ride the interprocedural summaries in
#: :mod:`repro.check.dataflow`.
PROJECT_FAMILIES = (verify, dimension, asyncsafety, fingerprint)

#: rule id -> (family name, description), for --list-rules and docs.
RULES: dict[str, tuple[str, str]] = {
    rule_id: (family.FAMILY, description)
    for family in FAMILIES + PROJECT_FAMILIES
    for rule_id, description in family.RULES.items()
}
RULES["parse-error"] = ("driver", "file could not be parsed as Python")
RULES["unused-suppression"] = (
    "driver", "allow[...] comment that suppresses nothing"
)
