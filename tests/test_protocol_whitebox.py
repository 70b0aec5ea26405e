"""White-box protocol tests: the exact message sequences on the wire.

Behavioural tests elsewhere check timing; these check the *protocol* —
which control and data messages each library model actually emits, in
which order, with which tags.  A protocol regression (e.g. a rendezvous
that forgets its CTS) changes these sequences before it changes any
curve.
"""

import pytest

from repro.experiments import configs
from repro.mplib import Mpich, MpLite, Mvich, Pvm, RawTcp, Tcgmsg
from repro.net.channel import SimChannel
from repro.sim import Engine
from repro.units import kb

GA620 = configs.pc_netgear_ga620()
CLAN = configs.pc_giganet()


def wire_log(library, config, size):
    """Run one ping (A sends, B receives) and log delivered messages."""
    engine = Engine()
    a, b = library.build(engine, config)
    log = []

    # Wrap the channel's delivery to observe every message.
    channel = a.ep.channel if hasattr(a, "ep") else None
    assert channel is not None

    original_fly = channel._fly

    def spying_fly(kick):
        msg = kick.value
        log.append((msg.src, msg.tag, msg.size))
        return original_fly(kick)

    channel._fly = spying_fly

    def sender():
        yield from a.send(size)

    def receiver():
        yield from b.recv(size)

    pa = engine.process(sender())
    pb = engine.process(receiver())
    engine.run(until=engine.all_of([pa, pb]))
    return log


def test_raw_tcp_is_one_bare_message():
    log = wire_log(RawTcp(), GA620, kb(4))
    assert log == [(0, "data", kb(4))]  # no header, no handshake


def test_mplite_adds_only_its_header():
    log = wire_log(MpLite(), GA620, kb(4))
    assert log == [(0, "data", kb(4) + 24)]


def test_tcgmsg_header_is_16_bytes():
    log = wire_log(Tcgmsg(), GA620, 100)
    assert log == [(0, "data", 116)]


def test_mpich_eager_below_cutoff():
    log = wire_log(Mpich.tuned(), GA620, kb(64))
    assert [tag for _, tag, _ in log] == ["data"]


def test_mpich_rendezvous_sequence_at_cutoff():
    """RTS (sender) -> CTS (receiver) -> data (sender)."""
    log = wire_log(Mpich.tuned(), GA620, kb(128))
    assert [(src, tag) for src, tag, _ in log] == [
        (0, "rts"),
        (1, "cts"),
        (0, "data"),
    ]
    # Control messages are header-sized; the body carries the payload.
    assert log[0][2] == 40 and log[1][2] == 40
    assert log[2][2] == kb(128) + 40


def test_pvm_direct_is_single_stream():
    log = wire_log(Pvm.tuned(), GA620, kb(64))
    assert [tag for _, tag, _ in log] == ["data"]


def test_mvich_rdma_handshake_above_via_long():
    log = wire_log(Mvich.tuned(), CLAN, kb(64))
    assert [tag for _, tag, _ in log] == ["rts", "cts", "data"]
    # The RDMA body is unpadded (zero-copy, no eager header).
    assert log[2][2] == kb(64)


def test_mvich_eager_below_via_long():
    log = wire_log(Mvich.tuned(), CLAN, kb(32))
    assert [tag for _, tag, _ in log] == ["data"]
    assert log[0][2] == kb(32) + 16  # eager header


def test_ping_pong_alternates_sources():
    engine = Engine()
    lib = MpLite()
    a, b = lib.build(engine, GA620)
    log = []
    channel = a.ep.channel
    original = channel._fly

    def spy(kick):
        log.append(kick.value.src)
        return original(kick)

    channel._fly = spy

    def ping():
        yield from a.send(100)
        yield from a.recv(100)

    def pong():
        yield from b.recv(100)
        yield from b.send(100)

    pa, pb = engine.process(ping()), engine.process(pong())
    engine.run(until=engine.all_of([pa, pb]))
    assert log == [0, 1]
