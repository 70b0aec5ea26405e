"""Fabric: N-node network with port contention."""

import pytest

from repro.experiments import configs
from repro.fabric import Fabric, PairEndpoint, TwoTierTree
from repro.mplib import RawTcp
from repro.sim import Engine
from repro.units import MB, kb


def make_fabric(nranks=4):
    engine = Engine()
    link = RawTcp().link_model(configs.pc_netgear_ga620())
    return engine, Fabric(engine, link, nranks), link


def test_fabric_needs_two_ranks():
    engine = Engine()
    link = RawTcp().link_model(configs.pc_netgear_ga620())
    with pytest.raises(ValueError):
        Fabric(engine, link, 1)


def test_point_to_point_matches_link_model():
    engine, fabric, link = make_fabric()
    size = 1 * MB
    got = {}

    def sender():
        yield from fabric.send(0, 2, size)

    def receiver():
        msg = yield from fabric.recv(2)
        got["at"] = engine.now
        got["src"] = msg.src

    engine.process(sender())
    engine.process(receiver())
    engine.run()
    assert got["at"] == pytest.approx(link.transfer_time(size))
    assert got["src"] == 0


def test_disjoint_pairs_run_in_parallel():
    engine, fabric, link = make_fabric()
    size = 1 * MB
    arrivals = {}

    def sender(src, dst):
        yield from fabric.send(src, dst, size)

    def receiver(dst):
        yield from fabric.recv(dst)
        arrivals[dst] = engine.now

    engine.process(sender(0, 1))
    engine.process(sender(2, 3))
    engine.process(receiver(1))
    engine.process(receiver(3))
    engine.run()
    # No shared port: both complete in one transfer time.
    assert arrivals[1] == pytest.approx(link.transfer_time(size))
    assert arrivals[3] == pytest.approx(link.transfer_time(size))


def test_two_senders_to_one_destination_serialise():
    engine, fabric, link = make_fabric()
    size = 1 * MB
    arrivals = []

    def sender(src):
        yield from fabric.send(src, 3, size)

    def receiver():
        for _ in range(2):
            yield from fabric.recv(3)
            arrivals.append(engine.now)

    engine.process(sender(0))
    engine.process(sender(1))
    engine.process(receiver())
    engine.run()
    # Second message queued behind the first at rank 3's RX port.
    assert arrivals[1] >= arrivals[0] + link.occupancy(size) * 0.99


def test_one_sender_to_two_destinations_serialises_at_tx():
    engine, fabric, link = make_fabric()
    size = 1 * MB
    arrivals = {}

    def sender():
        yield from fabric.send(0, 1, size)
        yield from fabric.send(0, 2, size)

    def receiver(dst):
        yield from fabric.recv(dst)
        arrivals[dst] = engine.now

    engine.process(sender())
    engine.process(receiver(1))
    engine.process(receiver(2))
    engine.run()
    assert arrivals[2] >= arrivals[1] + link.occupancy(size) * 0.99


def test_self_send_rejected():
    engine, fabric, _ = make_fabric()

    def prog():
        yield from fabric.send(1, 1, 10)

    engine.process(prog())
    with pytest.raises(ValueError):
        engine.run()


def test_rank_bounds_checked():
    engine, fabric, _ = make_fabric(3)
    with pytest.raises(ValueError):
        fabric.pair(0, 5)
    with pytest.raises(ValueError):
        fabric.pair(2, 2)


def test_filtered_recv_by_source_and_tag():
    engine, fabric, _ = make_fabric()
    got = []

    def senders():
        yield from fabric.send(0, 3, 10, tag="a")
        yield from fabric.send(1, 3, 10, tag="b")

    def receiver():
        msg = yield from fabric.recv(3, src=1, tag="b")
        got.append((msg.src, msg.tag))
        msg = yield from fabric.recv(3, src=0)
        got.append((msg.src, msg.tag))

    engine.process(senders())
    engine.process(receiver())
    engine.run()
    assert got == [(1, "b"), (0, "a")]


def test_pair_endpoint_isolates_conversations():
    engine, fabric, _ = make_fabric()
    pair_03 = fabric.pair(3, 0)
    got = {}

    def sender_0():
        ep = fabric.pair(0, 3)
        yield from ep.send(10, tag="data")

    def sender_1():
        yield from fabric.send(1, 3, 99, tag="data")

    def receiver():
        msg = yield from pair_03.recv(tag="data")
        got["size"] = msg.size
        got["src"] = msg.src

    engine.process(sender_1())
    engine.process(sender_0())
    engine.process(receiver())
    engine.run(until=10.0)
    # The pair endpoint only sees rank 0's message, even though rank
    # 1's arrived first.
    assert got == {"size": 10, "src": 0}


def test_message_counter_increments():
    engine, fabric, _ = make_fabric()

    def prog():
        yield from fabric.send(0, 1, 10)

    def rx():
        yield from fabric.recv(1)

    engine.process(prog())
    engine.process(rx())
    engine.run()
    assert fabric.messages_delivered == 1


def test_port_utilisation_finds_the_hotspot():
    from repro.apps import Pattern, generate_destinations
    from repro.experiments import configs as _configs

    engine, fabric, _ = make_fabric(4)
    dests = generate_destinations(Pattern.HOTSPOT, 4, 6)
    expected = {d: 0 for d in range(4)}
    for dsts in dests.values():
        for d in dsts:
            expected[d] += 1

    def sender(src):
        for dst in dests[src]:
            yield from fabric.send(src, dst, 1 << 20)

    def receiver(dst):
        for _ in range(expected[dst]):
            yield from fabric.recv(dst)

    for src in range(4):
        engine.process(sender(src))
    for dst in range(4):
        if expected[dst]:
            engine.process(receiver(dst))
    engine.run()
    util = fabric.port_utilisation()
    rx = [u[1] for u in util]
    # Rank 0's RX port is the hot one.
    assert rx[0] == max(rx)
    assert rx[0] > 0.8
    assert all(r < 0.5 for r in rx[2:])


# -- message flight: background injection, delivery, endpoints ---------------


def _uplink_contention_run(background_delivered):
    """Background 0->2 and foreground 1->3 share leaf 0's one uplink.

    Returns (foreground message, its arrival time, engine, fabric).
    """
    engine = Engine()
    link = RawTcp().link_model(configs.pc_netgear_ga620())
    fabric = Fabric(engine, link, 4, topology=TwoTierTree(leaf_size=2))
    got = {}

    def background():
        yield from fabric.send(0, 2, 1 * MB, tag="bg",
                               deliver=background_delivered)

    def foreground():
        yield from fabric.send(1, 3, 1 * MB)

    def receiver():
        got["msg"] = yield from fabric.recv(3, tag="data")
        got["at"] = engine.now

    engine.process(background())
    engine.process(foreground())
    engine.process(receiver())
    engine.run()
    return got["msg"], got["at"], engine, fabric


def test_background_injection_holds_ports_like_a_delivered_message():
    msg, at, engine, fabric = _uplink_contention_run(False)
    msg_ref, at_ref, engine_ref, fabric_ref = _uplink_contention_run(True)
    # The foreground message waited for the whole background occupancy
    # at the shared uplink, exactly as behind a delivered message.
    assert msg.sent_at == msg_ref.sent_at == fabric.link.occupancy(1 * MB)
    assert at == at_ref
    assert engine.now == engine_ref.now
    assert fabric.port_utilisation() == fabric_ref.port_utilisation()
    # ... and the dropped message costs two fewer events: no delivery
    # kick and no latency timer.
    assert engine_ref.events_processed - engine.events_processed == 2


def test_background_never_reaches_an_inbox():
    engine, fabric, _ = make_fabric()
    got = []

    def background():
        for _ in range(3):
            yield from fabric.send(0, 3, 10, tag="bg", deliver=False)

    def foreground():
        yield from fabric.send(1, 3, 10, tag="x")

    def receiver():
        msg = yield from fabric.recv(3)  # wildcard: any source, any tag
        got.append((msg.src, msg.tag))

    engine.process(background())
    engine.process(foreground())
    engine.process(receiver())
    engine.run()
    assert got == [(1, "x")]
    assert fabric.messages_delivered == 1
    assert all(len(inbox) == 0 for inbox in fabric.inboxes)


def test_traced_run_delivers_foreground_only_without_delivery_processes():
    from repro.obs import Recorder

    rec = Recorder()
    engine = Engine(obs=rec)
    link = RawTcp().link_model(configs.pc_netgear_ga620())
    fabric = Fabric(engine, link, 4)

    def background(src):
        for dst in (2, 3):
            yield from fabric.send(src, dst, 4096, tag="bg", deliver=False)

    def foreground(src, dst):
        yield from fabric.send(src, dst, 1024)

    def receiver(dst, n):
        for _ in range(n):
            yield from fabric.recv(dst, tag="data")

    for src in (0, 1):
        engine.process(background(src))
    for src, dst in ((0, 2), (1, 2), (2, 3)):
        engine.process(foreground(src, dst))
    engine.process(receiver(2, 2))
    engine.process(receiver(3, 1))
    engine.run()
    wire = rec.spans_by_cat("wire")
    delivers = [s for s in wire if s.name == "net.deliver"]
    sends = [s for s in wire if s.name == "net.send"]
    assert len(delivers) == fabric.messages_delivered == 3
    assert all(s.attrs["tag"] == "data" for s in delivers)
    assert sum(s.attrs["tag"] == "bg" for s in sends) == 4
    # Deliveries are timer callbacks, not processes: only the seven
    # generators above ever start, and each of them finishes.
    assert rec.counters["sim.process.started"] == 7
    assert rec.counters["sim.process.started"] == rec.counters[
        "sim.process.finished"
    ]
    for span in delivers:
        assert span.t1 - span.t0 == pytest.approx(link.latency0)


def test_world_builds_only_the_endpoints_a_program_uses(monkeypatch):
    from repro.cluster import build_world, run_ranks

    library = RawTcp()
    built = []
    original = library.build_endpoint

    def counting(config, pair):
        built.append((pair.me, pair.peer_rank))
        return original(config, pair)

    monkeypatch.setattr(library, "build_endpoint", counting)
    engine = Engine()
    comms = build_world(engine, library, configs.pc_netgear_ga620(), 128)
    assert built == []

    def ring(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        yield from comm.sendrecv(right, 64, left, 64)
        yield from comm.sendrecv(right, 64, left, 64)

    run_ranks(engine, comms, ring)
    assert len(built) == len(set(built)) == 256  # not 128 * 127 = 16,256
    with pytest.raises(ValueError, match="no endpoint for peer"):
        comms[0]._ep(0)
    with pytest.raises(ValueError, match="no endpoint for peer"):
        comms[0]._ep(128)
