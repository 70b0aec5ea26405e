"""The event kernel's fast paths change cost, never behaviour.

``Engine.run`` fires events inline, ``Process`` steps its generator
without a per-resume closure, ``Store`` matches by position and the
link models derive their rates once per instance.  These tests pin the
observable contract those shortcuts must keep: the same effectful events
in the same order, the same objects delivered, the same fingerprints.
"""

from functools import cached_property

from repro.exec import SweepRequest, canonicalize, execute_sweeps
from repro.experiments import ALL_FIGURES, configs
from repro.hw.cluster import ClusterConfig
from repro.mplib import REGISTRY
from repro.net.channel import Message
from repro.net.gm import GmModel, IpOverGmModel
from repro.net.tcp import TcpModel
from repro.net.via import ViaModel
from repro.scenario import ScenarioSpec, WorkloadSpec, run_scenario
from repro.sim import Engine, Interrupt, Store

#: Engine events of one cold figure 1-5 pass at the default schedule.
FIGURE_PASS_EVENTS = 29_366


def test_figure_pass_simulates_the_pinned_event_count():
    total = 0
    for fig in ALL_FIGURES:
        _results, report = fig.run_with_report(tier="sim", max_workers=1)
        total += report.events_processed
    assert total == FIGURE_PASS_EVENTS


def test_filtered_get_takes_the_matching_object_not_an_equal_twin():
    eng = Engine()
    store = Store(eng)
    other = Message(src=1, dst=0, tag="ctl", size=0)
    twin = Message(src=0, dst=1, tag="data", size=8)
    first = Message(src=0, dst=1, tag="data", size=8)
    later = Message(src=0, dst=1, tag="data", size=8)
    assert twin == first == later and twin is not first
    for item in (other, twin, first, later):
        store.put(item)

    got = []

    def receiver():
        # An identity filter: the value-equal twin queued ahead must
        # neither be delivered nor be the item removed.
        got.append((yield store.get(lambda m: m is first or m is later)))
        got.append((yield store.get(lambda m: m.tag == "data")))

    eng.process(receiver())
    eng.run()
    assert got[0] is first and got[1] is twin
    remaining = store.peek_all()
    assert len(remaining) == 2
    assert remaining[0] is other and remaining[1] is later


def test_interrupt_detaches_the_waiter():
    eng = Engine()
    gate = eng.event()
    log = []

    def sleeper():
        try:
            yield gate
        except Interrupt as exc:
            log.append(("interrupted", exc.cause, eng.now))
        yield eng.timeout(1.0)
        log.append(("done", eng.now))

    proc = eng.process(sleeper())

    def interrupter():
        yield eng.timeout(0.5)
        proc.interrupt("stop")
        assert gate.callbacks == []  # the sleeper no longer waits on it
        yield eng.timeout(0.1)
        gate.succeed("late")  # must not resume the sleeper a second time

    eng.process(interrupter())
    eng.run()
    assert log == [("interrupted", "stop", 0.5), ("done", 1.5)]
    assert proc.processed and proc.ok


def test_already_fired_event_resumes_after_an_earlier_zero_delay_event():
    eng = Engine()
    order = []
    done = eng.event().succeed("v")

    def waiter():
        yield eng.timeout(1.0)  # ``done`` has fired by now
        other = eng.event()
        other.callbacks.append(lambda _ev: order.append("other"))
        other.succeed()
        value = yield done
        order.append(("resumed", value, eng.now))

    eng.process(waiter())
    eng.run()
    assert order == ["other", ("resumed", "v", 1.0)]
    # start, done, timeout, other, the resume kick, the process itself
    assert eng.events_processed == 6


def test_fingerprints_are_unchanged_by_running_the_request():
    request = SweepRequest(
        "fp", REGISTRY["mpich"](), configs.pc_netgear_ga620(),
        sizes=(64, 1024, 65536),
    )
    sweep_before = request.fingerprint()
    library_before = canonicalize(request.library)
    execute_sweeps([request], max_workers=1, tier="sim")
    assert request.fingerprint() == sweep_before
    assert canonicalize(request.library) == library_before

    spec = ScenarioSpec(
        name="fp", library="mpich", config="pc_netgear_ga620",
        workload=WorkloadSpec(sizes=(64, 1024)),
    )
    scenario_before = spec.fingerprint()
    run_scenario(spec)
    assert spec.fingerprint() == scenario_before


def _models() -> list:
    tcp_cfg = configs.pc_netgear_ga620()
    return [
        TcpModel(tcp_cfg, REGISTRY["mpich"]().spec.tuning(tcp_cfg)),
        GmModel(configs.pc_myrinet()),
        IpOverGmModel(configs.pc_myrinet()),
        ViaModel(configs.pc_giganet()),
        ViaModel(configs.pc_syskonnect()),
    ]


def test_link_models_read_the_pci_bandwidth_once_per_instance(monkeypatch):
    reads = []
    prop = ClusterConfig.__dict__["pci_bandwidth"]

    def counted(cfg):
        reads.append(cfg)
        return prop.fget(cfg)

    monkeypatch.setattr(ClusterConfig, "pci_bandwidth", property(counted))
    for model in _models():
        reads.clear()
        for n in (0, 1, 4096, 1 << 20) * 3:
            model.transfer_time(n)
            model.rate(n)
        assert len(reads) == 1, type(model).__name__


def test_cached_rates_equal_a_fresh_derivation():
    for model in _models():
        cached = [
            name for name in dir(type(model))
            if isinstance(getattr(type(model), name), cached_property)
        ]
        assert "latency0" in cached
        for name in cached:
            fresh = getattr(type(model), name).func(model)
            assert getattr(model, name) == fresh, name
