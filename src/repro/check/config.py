"""Per-package policy: which rule families apply where.

The policy is the analyzer's statement of *intent*: the simulation
packages must be pure deterministic functions of their inputs, while
:mod:`repro.realnet` (live loopback NetPIPE) and
:mod:`repro.exec.scheduler` (wall-clock sweep timing, worker-count env
var) exist precisely to touch the outside world and are exempt.

A :class:`Policy` maps each rule *family* to the package prefixes it
covers (``None`` = every module) plus exempt prefixes, and individual
rule ids to additional per-module exemptions (``pure-open`` is allowed
in :mod:`repro.core.io`, the one sanctioned file-I/O module).

Line-level escape hatch, for violations that are individually
justified::

    value = os.environ.get("NAME", "")  # repro: allow[det-env] reason

See docs/STATIC_ANALYSIS.md for the full catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

#: The packages whose state machines produce the paper's curves.  These
#: must be pure, deterministic functions of their explicit inputs.
SIM_PACKAGES: tuple[str, ...] = (
    "repro.sim",
    "repro.net",
    "repro.mplib",
    "repro.hw",
    "repro.core",
    "repro.fabric",
    "repro.cluster",
    "repro.collectives",
)


def module_matches(module: str, prefixes: tuple[str, ...]) -> bool:
    """True when ``module`` is one of ``prefixes`` or inside one."""
    return any(
        module == p or module.startswith(p + ".") for p in prefixes
    )


@dataclass(frozen=True)
class Policy:
    """Which rule families run on which modules.

    :param family_scopes: family name -> package prefixes it covers,
        or ``None`` to cover every analyzed module.
    :param family_exemptions: family name -> package prefixes excluded
        even when inside the scope.
    :param rule_exemptions: rule id -> package prefixes where that one
        rule (but not its whole family) is switched off.
    """

    family_scopes: Mapping[str, tuple[str, ...] | None] = field(
        default_factory=dict
    )
    family_exemptions: Mapping[str, tuple[str, ...]] = field(
        default_factory=dict
    )
    rule_exemptions: Mapping[str, tuple[str, ...]] = field(
        default_factory=dict
    )

    def family_applies(self, family: str, module: str | None) -> bool:
        """Should rule family ``family`` run on ``module`` at all?"""
        scope = self.family_scopes.get(family, None)
        if module is None:
            # Unknown module (file outside any package): only globally
            # scoped families apply — package policy can't be resolved.
            return scope is None
        if scope is not None and not module_matches(module, scope):
            return False
        exempt = self.family_exemptions.get(family, ())
        return not module_matches(module, exempt)

    def rule_applies(self, rule: str, module: str | None) -> bool:
        """Per-rule module exemptions (finer than the family scope)."""
        if module is None:
            return True
        return not module_matches(module, self.rule_exemptions.get(rule, ()))


#: The repo's shipped policy.  ``repro.exec`` is held to the
#: determinism rules too — its fingerprints must not depend on hidden
#: state — but the scheduler measures real wall seconds by design.
DEFAULT_POLICY = Policy(
    family_scopes={
        # repro.obs records *simulated* time only, so it is held to the
        # same determinism and purity bar as the simulation itself.
        # repro.analytic computes the same curves closed-form, so it is
        # held to the same bar too: a nondeterministic prediction could
        # silently diverge from the engine it was validated against.
        # repro.faults is pure plan data plus a worker-side injector:
        # its *descriptions* of failure must be as deterministic as the
        # sweeps they perturb.  repro.verify's verdicts gate CI, so a
        # nondeterministic verifier would be worse than none.
        # repro.serve answers from content-addressed caches, so its
        # answers must be functions of the query alone; its two
        # sanctioned boundary effects (the asyncio event loop, the
        # wall clock behind latency spans) carry line-level allow
        # markers and never flow into curve content.
        # repro.scenario composes whole-cluster runs whose results are
        # content-addressed by spec fingerprint: the same determinism,
        # purity and cache-safety bar as the engine underneath, or warm
        # replays would stop being bit-identical.
        "determinism": SIM_PACKAGES + (
            "repro.exec", "repro.obs", "repro.analytic",
            "repro.faults", "repro.verify", "repro.serve",
            "repro.scenario",
        ),
        "purity": SIM_PACKAGES + (
            "repro.obs", "repro.analytic", "repro.faults",
            "repro.verify", "repro.serve", "repro.scenario",
        ),
        "yield-discipline": None,  # a discarded generator is dead code anywhere
        "cache-safety": SIM_PACKAGES + (
            "repro.obs", "repro.analytic", "repro.verify",
            "repro.serve", "repro.scenario",
        ),
        # Model checking of the endpoint handshakes: the generator
        # state machines live in repro.mplib and nowhere else.
        "verify": ("repro.mplib",),
        # SI-unit discipline over the timing models.  Analysis and
        # reporting layers legitimately hold display units (to_us /
        # to_mbps output), so they are out of scope.
        "dimension": (
            "repro.net", "repro.mplib", "repro.hw", "repro.analytic",
        ),
        # Event-loop safety: only the serving layer (and the scenario
        # CLI where it drives the loop) runs coroutines; flagging
        # time.sleep in a worker process would be noise.
        "async-safety": ("repro.serve", "repro.scenario.cli"),
        # Fingerprint completeness at every cache boundary: the four
        # packages that own content-addressed stores (sweep curves,
        # scenario runs, verify verdicts, analytic bands).  The serve
        # hot tier keys on the same exec fingerprints, so it is covered
        # transitively at their put sites.
        "fingerprint-flow": (
            "repro.exec", "repro.scenario", "repro.verify",
            "repro.analytic",
        ),
    },
    family_exemptions={
        # Live loopback benchmarking: real sockets, real clock — the
        # whole point of the package is to not be a simulation.
        # repro.faults is held in scope: its two deliberate effects
        # (worker hang, worker kill) carry line-level allow markers in
        # :mod:`repro.faults.inject`; everything else must stay pure.
        "determinism": ("repro.realnet", "repro.exec.scheduler"),
        "purity": ("repro.realnet",),
    },
    rule_exemptions={
        # The sanctioned places for file I/O: baseline/result
        # (de)serialization, the obs trace-file writers and the analytic
        # tolerance-band store (repro.store is outside the purity scope).
        "pure-open": (
            "repro.core.io", "repro.obs.export", "repro.analytic.bands",
        ),
    },
)
