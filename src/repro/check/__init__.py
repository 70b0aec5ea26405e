"""``repro.check`` — whole-project static analysis for the reproduction.

The reproduction's validity rests on mechanical invariants no type
checker or unit test sees:

1. **Determinism** — every curve must emerge bit-for-bit identically
   from the :mod:`repro.sim` engine on every run.  Nothing in the
   simulation packages may consult the wall clock, the process
   environment, or an entropy source.
2. **Cache safety** — the content-addressed sweep cache
   (:mod:`repro.exec.cache`) assumes that every input that can change a
   curve is visible to :func:`repro.exec.fingerprint.canonicalize`'s
   canonical walk.  A tunable hidden in a ``ClassVar`` would replay
   stale cached curves forever.
3. **Protocol pairing** — the mplib generator state machines exchange
   handshake legs by tag; an unmatched RTS/CTS or a symmetric
   blocking receive hangs (or silently skews) the simulated benchmark.
   The ``verify`` family model-checks them with :mod:`repro.verify`.
4. **Unit discipline** — everything is SI seconds/bytes/B-per-s; one
   unconverted paper µs/Mbps literal produces a wrong-but-plausible
   curve.

``repro.check`` enforces all four with a dependency-free AST analyzer.
Per-file rule families live under :mod:`repro.check.rules`; the
cross-module families (verify, dimension) run over the module
graph in :mod:`repro.check.project`, which also provides the
content-digest-keyed AST cache and the whole-run findings memo.
Policy lives in :mod:`repro.check.config`, the CLI (``python -m
repro check`` / ``repro-check``, with ``--rules`` selection and SARIF
output) in :mod:`repro.check.cli`.  See docs/STATIC_ANALYSIS.md for the rule
catalog and suppression syntax.
"""

from repro.check.analyzer import (
    Finding,
    ModuleContext,
    analyze_file,
    analyze_paths,
    analyze_project,
    analyze_source,
    module_name_for_path,
)
from repro.check.config import DEFAULT_POLICY, SIM_PACKAGES, Policy
from repro.check.project import AstCache, Project

__all__ = [
    "AstCache",
    "Finding",
    "ModuleContext",
    "Project",
    "analyze_file",
    "analyze_paths",
    "analyze_project",
    "analyze_source",
    "module_name_for_path",
    "DEFAULT_POLICY",
    "SIM_PACKAGES",
    "Policy",
]
