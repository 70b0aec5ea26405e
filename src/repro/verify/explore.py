"""Exhaustive exploration of the two-endpoint product state space.

For one (library spec, message size) the model gives every op sequence
the sender leg and the receiver leg can execute.  This module runs
each (send path, recv path) pair to quiescence and decides the
verified properties:

* **deadlock-freedom** — no pair reaches a state where an unfinished
  side is blocked on a receive no in-flight message can satisfy;
* **threshold agreement** — at every size, the sender's eager/
  rendezvous regime (does it open with an ``rts``?) matches what the
  receiver expects;
* **bounded progress** — every pair completes within the hop bound and
  consumes every message it sends (no residual in-flight data);
* **liveness under loss** — with each handshake message dropped once
  (a :mod:`repro.faults.wire` plan), a spec that *claims* loss
  recovery (``recovers_from_loss``) must still complete.

Exploration exploits a confluence property of this op algebra: sends
and timeouts are always enabled, and a receive only becomes enabled
when the peer progresses — enabledness is monotone in peer progress.
Greedily advancing both sides until neither can move therefore reaches
*the* unique maximal state of the pair; no per-interleaving search is
needed, which keeps the full REGISTRY+VARIANTS sweep trivially fast.

Every property violation becomes a :class:`Counterexample`: a concrete
(library, size, fault) witness carrying the modeled trace and the AST
anchors of the blocked ops, replayable as a deterministic engine run
by :mod:`repro.verify.replay`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.verify.model import ModelPath, Op

#: Default ceiling on ops executed by one endpoint pair.  The deepest
#: legitimate protocol in the registry (daemon route + staging +
#: conversion + fragmentation + rendezvous) executes ~12 ops total.
HOP_BOUND = 32

#: Wire-fault kinds the model understands (mirrors
#: :class:`repro.faults.wire.WireFaultKind` without importing it).
DROP = "drop"
CORRUPT = "corrupt"


@dataclass(frozen=True)
class WireFault:
    """One injected wire fault: the n-th ``tag`` send of one side."""

    side: int  #: 0 = sender endpoint, 1 = receiver endpoint
    tag: str
    occurrence: int = 1  #: 1-based among that side's sends of ``tag``
    kind: str = DROP

    def describe(self) -> str:
        who = "sender" if self.side == 0 else "receiver"
        return f"{self.kind} {who} {self.tag!r} send #{self.occurrence}"


@dataclass(frozen=True)
class PairOutcome:
    """Quiescent state of one (send path, recv path) pair."""

    completed: bool
    #: per-side op the side is blocked on (None = side finished)
    blocked: tuple[Op | None, Op | None]
    hops: int
    hop_overflow: bool
    #: (side, op) execution order, for the human-readable trace
    trace: tuple[tuple[int, Op], ...]
    dropped: tuple[str, ...] = ()
    #: send ops whose messages were never consumed, in send order
    unconsumed: tuple[Op, ...] = ()

    @property
    def residual(self) -> tuple[str, ...]:
        """Tags of messages sent but never consumed, sorted."""
        return tuple(sorted(op.tag or "data" for op in self.unconsumed))

    def render_trace(self) -> list[str]:
        names = ("sender", "receiver")
        return [f"{names[side]}: {op.describe()}" for side, op in self.trace]


def run_pair(
    send_ops: Sequence[Op],
    recv_ops: Sequence[Op],
    fault: WireFault | None = None,
    hop_bound: int = HOP_BOUND,
) -> PairOutcome:
    """Advance both sides to quiescence; see module docstring."""
    paths = (tuple(send_ops), tuple(recv_ops))
    idx = [0, 0]
    # in-flight messages per originating side, keyed by tag: FIFO of
    # (hop number, send op), so leftovers can name their send site
    inflight: list[dict[str, list[tuple[int, Op]]]] = [{}, {}]
    sent: list[dict[str, int]] = [{}, {}]
    trace: list[tuple[int, Op]] = []
    dropped: list[str] = []
    hops = 0

    def enabled(side: int) -> bool:
        if idx[side] >= len(paths[side]):
            return False
        op = paths[side][idx[side]]
        if op.kind != "recv":
            return True
        pool = inflight[1 - side]
        if op.tag is None:
            return any(pool.values())
        return bool(pool.get(op.tag))

    def step(side: int) -> None:
        nonlocal hops
        op = paths[side][idx[side]]
        idx[side] += 1
        hops += 1
        trace.append((side, op))
        if op.kind == "send":
            tag = op.tag or "data"
            n = sent[side][tag] = sent[side].get(tag, 0) + 1
            if (
                fault is not None
                and fault.kind == DROP
                and fault.side == side
                and fault.tag == tag
                and fault.occurrence == n
            ):
                dropped.append(tag)
                return
            # CORRUPT keeps the tag intact on the wire (the payload is
            # damaged, not the envelope), so the model delivers it.
            inflight[side].setdefault(tag, []).append((hops, op))
        elif op.kind == "recv":
            pool = inflight[1 - side]
            tag = op.tag
            if tag is None:
                tag = min(t for t, queue in pool.items() if queue)
            pool[tag].pop(0)

    overflow = False
    progress = True
    while progress and not overflow:
        progress = False
        for side in (0, 1):
            while enabled(side):
                if hops >= hop_bound:
                    overflow = True
                    break
                step(side)
                progress = True
            if overflow:
                break

    done = [idx[s] >= len(paths[s]) for s in (0, 1)]
    blocked = tuple(
        None if done[s] else paths[s][idx[s]] for s in (0, 1)
    )
    leftovers = sorted(
        entry
        for side in (0, 1)
        for queue in inflight[side].values()
        for entry in queue
    )
    return PairOutcome(
        completed=all(done),
        blocked=blocked,  # type: ignore[arg-type]
        hops=hops,
        hop_overflow=overflow,
        trace=tuple(trace),
        dropped=tuple(dropped),
        unconsumed=tuple(op for _, op in leftovers),
    )


# -- counterexamples -----------------------------------------------------------

@dataclass(frozen=True)
class Counterexample:
    """A concrete property violation: (library, size, fault) witness."""

    prop: str  #: "deadlock" | "threshold" | "progress" | "liveness"
    endpoint: str  #: endpoint class name
    library: str  #: registry name of the offending configuration
    size: int
    message: str
    fault: WireFault | None = None
    #: pending op per side at quiescence (describe() strings; "-" done)
    blocked: tuple[str, str] = ("-", "-")
    trace: tuple[str, ...] = ()
    #: (path, line, col) source anchors, most-relevant first
    anchors: tuple[tuple[str, int, int], ...] = ()
    approx: bool = False
    #: attached by replay validation: engine-run confirmation record
    replay: dict | None = field(default=None, compare=False)

    @property
    def rule(self) -> str:
        return f"verify-{self.prop}"

    def describe(self) -> str:
        fault = f" under {self.fault.describe()}" if self.fault else ""
        return (
            f"{self.rule}: {self.endpoint} x {self.library} at "
            f"{self.size} bytes{fault}: {self.message}"
        )

    def to_dict(self) -> dict:
        out = {
            "prop": self.prop,
            "endpoint": self.endpoint,
            "library": self.library,
            "size": self.size,
            "message": self.message,
            "blocked": list(self.blocked),
            "trace": list(self.trace),
            "anchors": [list(a) for a in self.anchors],
            "approx": self.approx,
        }
        if self.fault is not None:
            out["fault"] = {
                "side": self.fault.side,
                "tag": self.fault.tag,
                "occurrence": self.fault.occurrence,
                "kind": self.fault.kind,
            }
        if self.replay is not None:
            out["replay"] = dict(self.replay)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Counterexample":
        fault = None
        if data.get("fault"):
            fault = WireFault(**data["fault"])
        return cls(
            prop=data["prop"],
            endpoint=data["endpoint"],
            library=data["library"],
            size=data["size"],
            message=data["message"],
            fault=fault,
            blocked=tuple(data.get("blocked", ("-", "-"))),  # type: ignore[arg-type]
            trace=tuple(data.get("trace", ())),
            anchors=tuple(tuple(a) for a in data.get("anchors", ())),
            approx=bool(data.get("approx", False)),
            replay=data.get("replay"),
        )


@dataclass
class EndpointStats:
    """Exploration accounting for one (endpoint, library) pairing."""

    sizes: tuple[int, ...] = ()
    path_pairs: int = 0
    fault_runs: int = 0
    #: faults that stuck the pair, as expected for a non-recovering
    #: spec — available as replayable stuck-state witnesses
    expected_stuck: int = 0


def _blocked_strs(outcome: PairOutcome) -> tuple[str, str]:
    return tuple(
        "-" if op is None else op.describe() for op in outcome.blocked
    )  # type: ignore[return-value]


def _anchors(outcome: PairOutcome) -> tuple[tuple[str, int, int], ...]:
    seen = []
    for op in outcome.blocked:
        if op is not None and op.path:
            loc = (op.path, op.line, op.col)
            if loc not in seen:
                seen.append(loc)
    return tuple(seen)


def _sent_anchors(outcome: PairOutcome) -> tuple[tuple[str, int, int], ...]:
    """Source location of the send behind the first unconsumed message."""
    for op in outcome.unconsumed:
        if op.path:
            return ((op.path, op.line, op.col),)
    return ()


def _op_anchors(
    paths: Sequence[ModelPath], kind: str, tag: str
) -> tuple[tuple[str, int, int], ...]:
    """Source location of the first (kind, tag) op across ``paths``."""
    for path in paths:
        for op in path.ops:
            if op.kind == kind and op.tag == tag and op.path:
                return ((op.path, op.line, op.col),)
    return ()


def _distinct_faults(
    send_paths: Sequence[ModelPath], recv_paths: Sequence[ModelPath]
) -> list[WireFault]:
    """One first-occurrence drop per distinct (side, tag) send."""
    out: list[WireFault] = []
    seen: set[tuple[int, str]] = set()
    for side, paths in ((0, send_paths), (1, recv_paths)):
        for path in paths:
            for op in path.ops:
                if op.kind == "send" and op.tag is not None:
                    key = (side, op.tag)
                    if key not in seen:
                        seen.add(key)
                        out.append(WireFault(side=side, tag=op.tag))
    return out


def verify_pairing(
    endpoint_name: str,
    library: str,
    spec: object,
    paths_by_size: dict[int, tuple[list[ModelPath], list[ModelPath]]],
    *,
    hop_bound: int = HOP_BOUND,
    check_faults: bool = True,
) -> tuple[list[Counterexample], list[Counterexample], EndpointStats]:
    """Check every property for one endpoint/spec pairing.

    ``paths_by_size`` maps each probed size to the enumerated
    (send paths, recv paths).  Returns (counterexamples,
    expected-stuck fault witnesses, stats); the witnesses are *not*
    violations — they document where a non-recovering protocol sticks
    under loss, and feed the replay tests.
    """
    counterexamples: list[Counterexample] = []
    witnesses: list[Counterexample] = []
    stats = EndpointStats(sizes=tuple(sorted(paths_by_size)))
    claims_recovery = bool(getattr(spec, "recovers_from_loss", False))

    for size in stats.sizes:
        send_paths, recv_paths = paths_by_size[size]

        # -- threshold agreement ------------------------------------------
        sender_regimes = {p.has("send", "rts") for p in send_paths}
        recv_regimes = {p.has("recv", "rts") for p in recv_paths}
        if sender_regimes == {True} and recv_regimes == {False}:
            counterexamples.append(Counterexample(
                prop="threshold",
                endpoint=endpoint_name,
                library=library,
                size=size,
                message=(
                    "sender opens a rendezvous handshake but the "
                    "receiver expects an eager message — the peers "
                    "disagree on the eager/rendezvous threshold"
                ),
                anchors=_op_anchors(send_paths, "send", "rts"),
            ))
        elif sender_regimes == {False} and recv_regimes == {True}:
            counterexamples.append(Counterexample(
                prop="threshold",
                endpoint=endpoint_name,
                library=library,
                size=size,
                message=(
                    "receiver waits for a rendezvous handshake the "
                    "sender never opens — the peers disagree on the "
                    "eager/rendezvous threshold"
                ),
                anchors=_op_anchors(recv_paths, "recv", "rts"),
            ))

        # -- deadlock freedom + bounded progress --------------------------
        for sp in send_paths:
            for rp in recv_paths:
                stats.path_pairs += 1
                outcome = run_pair(
                    sp.ops, rp.ops, fault=None, hop_bound=hop_bound
                )
                approx = sp.approx or rp.approx
                if outcome.hop_overflow:
                    counterexamples.append(Counterexample(
                        prop="progress",
                        endpoint=endpoint_name,
                        library=library,
                        size=size,
                        message=(
                            f"pair executed {outcome.hops} ops without "
                            f"completing (hop bound {hop_bound})"
                        ),
                        blocked=_blocked_strs(outcome),
                        trace=tuple(outcome.render_trace()),
                        anchors=_anchors(outcome),
                        approx=approx,
                    ))
                    continue
                if not outcome.completed:
                    counterexamples.append(Counterexample(
                        prop="deadlock",
                        endpoint=endpoint_name,
                        library=library,
                        size=size,
                        message=_deadlock_message(outcome),
                        blocked=_blocked_strs(outcome),
                        trace=tuple(outcome.render_trace()),
                        anchors=_anchors(outcome),
                        approx=approx,
                    ))
                elif outcome.residual:
                    counterexamples.append(Counterexample(
                        prop="progress",
                        endpoint=endpoint_name,
                        library=library,
                        size=size,
                        message=(
                            "transfer completed but left in-flight "
                            "messages unconsumed: "
                            + ", ".join(outcome.residual)
                        ),
                        trace=tuple(outcome.render_trace()),
                        anchors=_sent_anchors(outcome),
                        approx=approx,
                    ))

        # -- liveness under loss -------------------------------------------
        if not check_faults:
            continue
        for fault in _distinct_faults(send_paths, recv_paths):
            for sp in send_paths:
                for rp in recv_paths:
                    stats.fault_runs += 1
                    outcome = run_pair(
                        sp.ops, rp.ops, fault=fault, hop_bound=hop_bound
                    )
                    if outcome.completed or outcome.hop_overflow:
                        continue
                    witness = Counterexample(
                        prop="liveness",
                        endpoint=endpoint_name,
                        library=library,
                        size=size,
                        message=(
                            f"protocol cannot recover from "
                            f"{fault.describe()}: "
                            + _deadlock_message(outcome)
                        ),
                        fault=fault,
                        blocked=_blocked_strs(outcome),
                        trace=tuple(outcome.render_trace()),
                        anchors=_anchors(outcome),
                        approx=sp.approx or rp.approx,
                    )
                    if claims_recovery:
                        counterexamples.append(witness)
                    else:
                        stats.expected_stuck += 1
                        witnesses.append(witness)

    return _dedupe_cex(counterexamples), _dedupe_cex(witnesses), stats


def _deadlock_message(outcome: PairOutcome) -> str:
    names = ("sender", "receiver")
    stuck = [
        f"{names[i]} blocked on {op.describe()}"
        for i, op in enumerate(outcome.blocked)
        if op is not None
    ]
    done = [names[i] for i, op in enumerate(outcome.blocked) if op is None]
    parts = "; ".join(stuck)
    if done:
        parts += f" ({', '.join(done)} finished)"
    return parts


def _dedupe_cex(items: Iterable[Counterexample]) -> list[Counterexample]:
    """Drop byte-identical witnesses (same prop/size/fault/blocked)."""
    seen: set[tuple] = set()
    out: list[Counterexample] = []
    for cex in items:
        key = (cex.prop, cex.size, cex.fault, cex.blocked, cex.message)
        if key not in seen:
            seen.add(key)
            out.append(cex)
    return out
