"""SARIF 2.1.0 output for ``repro-check``.

The Static Analysis Results Interchange Format is what GitHub code
scanning ingests (``github/codeql-action/upload-sarif``); emitting it
turns every finding into an annotated line on the PR diff.  Only the
small mandatory subset is produced: one run, one driver tool whose
rule catalog mirrors ``--list-rules``, and one result per finding with
a physical location.  Paths are emitted relative to the repository
root when possible, as code scanning requires.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Sequence

from repro.check.analyzer import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Code scanning severity per rule family; protocol/parse problems
#: break the reproduction outright, dimension/purity slips degrade it.
_FAMILY_LEVELS = {
    "driver": "error",
    "verify": "error",
    # An await race or an unsalted cache input silently corrupts served
    # answers — as load-bearing as a broken handshake.
    "async-safety": "error",
    "fingerprint-flow": "error",
    "dimension": "warning",
    "determinism": "warning",
    "purity": "warning",
    "yield-discipline": "warning",
    "cache-safety": "warning",
}

#: Per-rule overrides of the family default; a stale allow comment is
#: hygiene, not breakage.
_RULE_LEVELS = {"unused-suppression": "warning"}


def _level(rule_id: str, family: str) -> str:
    return _RULE_LEVELS.get(
        rule_id, _FAMILY_LEVELS.get(family, "warning")
    )


def _relative_uri(path: str) -> str:
    """Repo-relative POSIX path when under cwd, else the path as given."""
    p = Path(path)
    try:
        p = p.resolve().relative_to(Path.cwd().resolve())
    except ValueError:
        pass
    return p.as_posix()


def _rule_descriptors() -> list[dict]:
    from repro.check.rules import RULES

    return [
        {
            "id": rule_id,
            "shortDescription": {"text": description},
            "properties": {"family": family},
            "defaultConfiguration": {
                "level": _level(rule_id, family),
            },
        }
        for rule_id, (family, description) in sorted(RULES.items())
    ]


def _result(finding: Finding, rule_index: dict[str, int]) -> dict:
    from repro.check.rules import RULES

    family = RULES.get(finding.rule, ("driver", ""))[0]
    result = {
        "ruleId": finding.rule,
        "level": _level(finding.rule, family),
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": _relative_uri(finding.path),
                        "uriBaseId": "ROOTPATH",
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col,
                    },
                }
            }
        ],
    }
    if finding.rule in rule_index:
        result["ruleIndex"] = rule_index[finding.rule]
    return result


def to_sarif(
    findings: Iterable[Finding],
    analyzed: Sequence[str | os.PathLike] = (),
) -> dict:
    """One-run SARIF log for ``findings``.

    ``analyzed`` (the CLI's input paths) is recorded as run metadata so
    a zero-result log still says what was covered.
    """
    rules = _rule_descriptors()
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-check",
                        "informationUri": (
                            "docs/STATIC_ANALYSIS.md"
                        ),
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {
                    "ROOTPATH": {"uri": Path.cwd().resolve().as_uri() + "/"}
                },
                "properties": {
                    "analyzedPaths": [str(p) for p in analyzed],
                },
                "results": [_result(f, rule_index) for f in findings],
            }
        ],
    }
