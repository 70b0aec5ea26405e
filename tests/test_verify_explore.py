"""Verify tier: product-state exploration semantics.

:func:`repro.verify.explore.run_pair` advances a (send path, recv
path) pair to its unique quiescent state; these tests pin its op
algebra on hand-built paths where the right answer is obvious:
completion, deadlock, fault-induced wedging, and the hop bound.
"""

import pytest

from repro.verify.explore import DROP, WireFault, run_pair
from repro.verify.model import Op

pytestmark = pytest.mark.verify


def _send(tag):
    return Op(kind="send", tag=tag, path="x.py", line=1, col=1)


def _recv(tag):
    return Op(kind="recv", tag=tag, path="x.py", line=2, col=1)


def _timeout():
    return Op(kind="timeout", tag=None, path="x.py", line=3, col=1)


RDV_SEND = (_send("rts"), _recv("cts"), _send("data"))
RDV_RECV = (_recv("rts"), _send("cts"), _recv("data"))


def test_clean_rendezvous_pair_completes():
    outcome = run_pair(RDV_SEND, RDV_RECV)
    assert outcome.completed
    assert outcome.blocked == (None, None)
    assert outcome.residual == ()
    assert outcome.hops == 6


def test_eager_pair_completes_with_timeouts_interleaved():
    outcome = run_pair(
        (_timeout(), _send("data")), (_recv("data"), _timeout())
    )
    assert outcome.completed


def test_missing_ack_leg_deadlocks_both_sides():
    recv_no_ack = (_recv("rts"), _recv("data"))
    outcome = run_pair(RDV_SEND, recv_no_ack)
    assert not outcome.completed
    blocked_send, blocked_recv = outcome.blocked
    assert blocked_send.tag == "cts"
    assert blocked_recv.tag == "data"


def test_dropped_cts_wedges_the_sender():
    fault = WireFault(side=1, tag="cts", occurrence=1, kind=DROP)
    outcome = run_pair(RDV_SEND, RDV_RECV, fault=fault)
    assert not outcome.completed
    assert outcome.dropped == ("cts",)
    assert outcome.blocked[0].tag == "cts"


def test_unconsumed_message_is_residual():
    outcome = run_pair((_send("data"), _send("extra")), (_recv("data"),))
    assert outcome.completed
    assert "extra" in outcome.residual
    # Leftovers name their send sites in send order, FIFO per tag: of
    # two 'data' sends and one receive, the second is left over.
    sends = tuple(
        Op(kind="send", tag=tag, path="x.py", line=line, col=1)
        for tag, line in (("fin", 10), ("data", 11), ("data", 12))
    )
    outcome = run_pair(sends, (_recv("data"),))
    assert outcome.residual == ("data", "fin")
    assert [op.line for op in outcome.unconsumed] == [10, 12]


def test_hop_bound_flags_runaway_pairs():
    ping = tuple(
        op for _ in range(8) for op in (_send("data"), _recv("data"))
    )
    pong = tuple(
        op for _ in range(8) for op in (_recv("data"), _send("data"))
    )
    outcome = run_pair(ping, pong, hop_bound=4)
    assert outcome.hop_overflow
    assert outcome.hops >= 4


def test_wildcard_recv_matches_any_inflight_tag():
    outcome = run_pair(
        (_send("rts"),),
        (Op(kind="recv", tag=None, path="x.py", line=9, col=1),),
    )
    assert outcome.completed


def test_trace_names_both_sides():
    outcome = run_pair(RDV_SEND, RDV_RECV)
    rendered = outcome.render_trace()
    assert any(step.startswith("sender:") for step in rendered)
    assert any(step.startswith("receiver:") for step in rendered)
