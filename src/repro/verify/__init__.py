"""Bounded model checking of mplib handshake state machines.

This package is the repo's one analyzer of send/recv handshakes.  Each
endpoint generator (``TcpLibEndpoint.send`` and friends) is compiled —
through the same AST layer ``repro.check`` uses — into an explicit
bounded model whose transitions are channel sends, receives and
timeouts, guarded by the library spec's size-regime predicates.  The
two-endpoint product state space is then explored exhaustively for
every ``REGISTRY``/``VARIANTS`` library at probe sizes bracketing each
eager/rendezvous threshold (±1 byte), under four properties:

``deadlock``
    a completed pairing never leaves both legs blocked;
``threshold``
    sender and receiver agree on the size regime at every probe size;
``progress``
    every handshake completes within a bounded number of hops and
    receives every message it sends;
``liveness``
    a spec claiming loss recovery (``recovers_from_loss``) must
    survive every single-message drop; specs that do not claim it
    produce *expected-stuck witnesses* instead of violations.

Every counterexample is a concrete (library, size, wire-fault) triple
that :mod:`repro.verify.replay` re-executes on the real event engine
with :mod:`repro.obs` tracing, twice, asserting bit-identical trace
digests — the model's verdict ships with its engine confirmation.

Entry points: ``python -m repro verify`` (:mod:`repro.verify.cli`),
the ``verify-*`` rule family of ``repro check``
(:mod:`repro.check.rules.verify`, which also flags branches no spec
takes as ``verify-dead-branch``), and :func:`verify_universe` /
:func:`verify_library` below.  See docs/VERIFICATION.md.
"""

from repro.verify.cache import VerdictCache, entry_key
from repro.verify.explore import (
    HOP_BOUND,
    Counterexample,
    PairOutcome,
    WireFault,
    run_pair,
    verify_pairing,
)
from repro.verify.extract import (
    EndpointModel,
    compile_endpoint,
    iter_endpoint_models,
)
from repro.verify.model import (
    MISSING,
    UNKNOWN,
    ModelPath,
    Op,
    PathExplosion,
    SpecNotApplicable,
    enumerate_paths,
)
# NOTE: the replay *function* is deliberately not re-exported — it
# would shadow the ``repro.verify.replay`` submodule attribute.  Use
# ``repro.verify.replay.replay`` / ``.confirm`` directly.
from repro.verify.replay import ReplayResult, trace_digest
from repro.verify.universe import (
    LibraryVerdict,
    UniverseReport,
    build_models,
    default_config_for,
    sizes_for_spec,
    verify_library,
    verify_universe,
)

__all__ = [
    "HOP_BOUND",
    "MISSING",
    "UNKNOWN",
    "Counterexample",
    "EndpointModel",
    "LibraryVerdict",
    "ModelPath",
    "Op",
    "PairOutcome",
    "PathExplosion",
    "ReplayResult",
    "SpecNotApplicable",
    "UniverseReport",
    "VerdictCache",
    "WireFault",
    "build_models",
    "compile_endpoint",
    "default_config_for",
    "entry_key",
    "enumerate_paths",
    "iter_endpoint_models",
    "run_pair",
    "sizes_for_spec",
    "trace_digest",
    "verify_library",
    "verify_pairing",
    "verify_universe",
]
