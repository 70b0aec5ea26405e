"""verify: semantic model checking of endpoint handshakes.

The family compiles every endpoint class into a bounded state-machine
model (:mod:`repro.verify`) and exhaustively explores the two-endpoint
product against every applicable spec in the registry universe, at
probe sizes bracketing each eager/rendezvous threshold:

* ``verify-deadlock`` — a reachable path pair leaves both legs blocked
  on receives at quiescence (a missing handshake reply leg, or both
  legs opening with a receive);
* ``verify-threshold`` — sender and receiver disagree on the size
  regime (one runs the rendezvous handshake, the other expects eager);
* ``verify-progress`` — a handshake exceeds the hop bound, leaves a
  sent message that the peer never receives, or the model itself is
  not exhaustively explorable;
* ``verify-liveness`` — a spec that claims loss recovery
  (``recovers_from_loss``) wedges under a single dropped message;
* ``verify-dead-branch`` — an ``if`` the exploration reaches but whose
  then-side no applicable (spec, probe size) configuration enters:
  unreachable protocol code.

The fault sweep only runs for specs claiming recovery: for all others
a dropped handshake message is *expected* to wedge the pair (those
runs are exposed as replayable witnesses by ``python -m repro
verify``, not as findings).  Findings anchor at the blocked operation
in the endpoint source (the class definition when no operation is to
blame); identical anchors across many (spec, size) configurations
collapse into one finding with a ``+N more`` suffix.
"""

from __future__ import annotations

from dataclasses import replace

from repro.check.analyzer import Finding

FAMILY = "verify"

RULES = {
    "verify-deadlock": (
        "reachable path pair blocks both endpoint legs at quiescence"
    ),
    "verify-threshold": (
        "sender and receiver disagree on the eager/rendezvous regime"
    ),
    "verify-progress": (
        "handshake exceeds the hop bound, leaves a message unreceived, "
        "or model is not explorable"
    ),
    "verify-liveness": (
        "spec claims loss recovery but a dropped message wedges the pair"
    ),
    "verify-dead-branch": (
        "branch no applicable (spec, probe size) configuration enters"
    ),
}


def _finding_message(cex) -> str:
    """Counterexample text without the duplicated rule prefix."""
    fault = f" under {cex.fault.describe()}" if cex.fault else ""
    return (
        f"{cex.endpoint} x {cex.library} spec at {cex.size} "
        f"bytes{fault}: {cex.message}"
    )


def check_project(project) -> list[Finding]:
    """Model-check every endpoint class against the spec universe."""
    # Imported lazily: repro.verify imports repro.check.rules.yields,
    # whose package imports this module at package import.
    from repro.mplib.registry import iter_spec_universe
    from repro.verify.explore import Counterexample, verify_pairing
    from repro.verify.extract import iter_endpoint_models
    from repro.verify.model import (
        PathExplosion,
        SpecNotApplicable,
        enumerate_paths,
    )
    from repro.verify.universe import sizes_for_spec

    counterexamples = []
    #: (path, line, col) of each reached ``if`` -> then-side entered
    branches: dict[tuple, bool] = {}
    for model in iter_endpoint_models(project):
        class_anchor = ((model.path, model.line, 1),)
        for spec_name, spec in iter_spec_universe():
            sizes = sizes_for_spec(spec)
            paths_by_size = {}
            taken: dict[tuple, bool] = {}
            try:
                for size in sizes:
                    paths_by_size[size] = (
                        enumerate_paths(
                            model.leg("send"), spec, size, branches=taken
                        ),
                        enumerate_paths(
                            model.leg("recv"), spec, size, branches=taken
                        ),
                    )
            except SpecNotApplicable:
                continue  # this endpoint does not speak this spec
            except PathExplosion as exc:
                counterexamples.append(Counterexample(
                    prop="progress",
                    endpoint=model.name,
                    library=spec_name,
                    size=size,
                    message=f"model not exhaustively explorable: {exc}",
                    anchors=class_anchor,
                    approx=True,
                ))
            else:
                cexs, _witnesses, _stats = verify_pairing(
                    model.name,
                    spec_name,
                    spec,
                    paths_by_size,
                    check_faults=bool(
                        getattr(spec, "recovers_from_loss", False)
                    ),
                )
                counterexamples.extend(
                    cex if cex.anchors else replace(cex, anchors=class_anchor)
                    for cex in cexs
                )
            for key, entered in taken.items():
                branches[key] = branches.get(key, False) or entered
    dead = [
        Finding(
            path=str(path), line=line, col=col, rule="verify-dead-branch",
            message=(
                "branch is never taken: its guard is false under every "
                "applicable (spec, probe size) configuration"
            ),
        )
        for (path, line, col), entered in branches.items()
        if not entered
    ]
    return sorted(_collapse(counterexamples) + dead)


def _collapse(counterexamples) -> list[Finding]:
    """One finding per (rule, anchor); extra configurations counted."""
    grouped: dict[tuple, list] = {}
    for cex in counterexamples:
        path, line, col = cex.anchors[0]
        grouped.setdefault(
            (cex.rule, str(path), line, col), []
        ).append(cex)
    findings = []
    for (rule, path, line, col), group in grouped.items():
        message = _finding_message(group[0])
        if len(group) > 1:
            message += f" (+{len(group) - 1} more configurations)"
        findings.append(Finding(
            path=path, line=line, col=col, rule=rule, message=message,
        ))
    return findings
