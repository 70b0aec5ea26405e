"""NetPIPE core: size schedule, ping-pong driver, results, reports."""

import pytest

from repro.core import (
    NetPipePoint,
    NetPipeResult,
    format_comparison,
    format_result,
    measure_pingpong,
    netpipe_sizes,
    run_netpipe,
)
from repro.core.pingpong import measure_sweep
from repro.core.report import ascii_profile
from repro.core.runner import run_many
from repro.core.sizes import latency_sizes
from repro.hw.catalog import NETGEAR_GA620, PENTIUM4_PC
from repro.hw.cluster import ClusterConfig, TUNED_SYSCTL
from repro.experiments.names import build_config, config_names
from repro.mplib import Mpich, MpLite, RawTcp
from repro.mplib.registry import REGISTRY, VARIANTS
from repro.obs import Recorder
from repro.sim import Engine
from repro.units import MB, kb, us

CFG = ClusterConfig(PENTIUM4_PC, NETGEAR_GA620, sysctl=TUNED_SYSCTL)


# -- sizes -----------------------------------------------------------------------
def test_sizes_start_stop_included():
    s = netpipe_sizes(start=1, stop=1000)
    assert s[0] == 1 and s[-1] == 1000


def test_sizes_sorted_unique():
    s = netpipe_sizes()
    assert s == sorted(set(s))


def test_sizes_include_perturbations():
    s = netpipe_sizes(stop=10000, perturbation=3)
    assert 1024 in s and 1021 in s and 1027 in s


def test_sizes_zero_perturbation():
    s = netpipe_sizes(stop=128, perturbation=0)
    assert s == [1, 2, 4, 8, 16, 32, 64, 128]


def test_sizes_validation():
    with pytest.raises(ValueError):
        netpipe_sizes(start=0)
    with pytest.raises(ValueError):
        netpipe_sizes(start=10, stop=5)
    with pytest.raises(ValueError):
        netpipe_sizes(perturbation=-1)


def test_latency_sizes_below_64():
    assert all(s < 64 for s in latency_sizes())
    assert latency_sizes()


# -- ping-pong driver ----------------------------------------------------------------
def test_pingpong_matches_analytic_transfer_time():
    lib = RawTcp()
    engine = Engine()
    a, b = lib.build(engine, CFG)
    link = lib.link_model(CFG)
    size = 1 * MB
    oneway = measure_pingpong(engine, a, b, size)
    # Raw TCP adds nothing: one-way time == the link's transfer time.
    assert oneway == pytest.approx(link.transfer_time(size), rel=1e-9)


def test_pingpong_repeats_average_consistently():
    lib = RawTcp()
    engine = Engine()
    a, b = lib.build(engine, CFG)
    one = measure_pingpong(engine, a, b, 4096, repeats=1)
    many = measure_pingpong(engine, a, b, 4096, repeats=5)
    assert many == pytest.approx(one, rel=1e-9)


def test_pingpong_rejects_zero_repeats():
    lib = RawTcp()
    engine = Engine()
    a, b = lib.build(engine, CFG)
    with pytest.raises(ValueError):
        measure_pingpong(engine, a, b, 10, repeats=0)


# -- one ping/pong pair per sweep ------------------------------------------------
ALL_LIBRARIES = {**REGISTRY, **VARIANTS}


def _fresh_pair_per_size(engine, a, b, sizes, repeats):
    """The oracle: a fresh pinger/ponger pair, an AllOf and an
    ``engine.run`` for every size, on one warm connection."""
    out = []
    for size in sizes:
        result = {}

        def pinger():
            t0 = engine.now
            for _ in range(repeats):
                yield from a.send(size)
                yield from a.recv(size)
            result["rtt"] = (engine.now - t0) / repeats

        def ponger():
            for _ in range(repeats):
                yield from b.recv(size)
                yield from b.send(size)

        pa = engine.process(pinger())
        pb = engine.process(ponger())
        engine.run(until=engine.all_of([pa, pb]))
        out.append((size, result["rtt"] / 2.0))
    return out


def _first_drivable_config(factory):
    for name in config_names():
        config = build_config(name)
        try:
            factory().build(Engine(), config)
        except ValueError:
            continue
        return config
    raise AssertionError("no config drives this library")


@pytest.mark.parametrize("name", sorted(ALL_LIBRARIES))
def test_sweep_equals_a_fresh_pair_per_size(name):
    factory = ALL_LIBRARIES[name]
    config = _first_drivable_config(factory)
    sizes = netpipe_sizes()
    for repeats in (1, 3):
        oracle_engine = Engine()
        a, b = factory().build(oracle_engine, config)
        expected = _fresh_pair_per_size(oracle_engine, a, b, sizes, repeats)
        engine = Engine()
        a, b = factory().build(engine, config)
        got = measure_sweep(engine, a, b, sizes, repeats)
        # Bit for bit: exact float equality, and the same final clock.
        assert got == expected, (name, repeats)
        assert engine.now == oracle_engine.now
        assert engine.events_processed < oracle_engine.events_processed


def test_traced_sweep_runs_two_processes_and_no_delivery_process():
    rec = Recorder()
    engine = Engine(obs=rec)
    a, b = Mpich.tuned().build(engine, CFG)
    # 64 bytes goes eager (one message per leg); 128 KB takes the
    # RTS/CTS/data rendezvous (three per leg).
    measure_sweep(engine, a, b, [64, kb(128)], repeats=2)
    channel = a.ep.channel
    assert rec.counters["sim.process.started"] == 2
    assert rec.counters["sim.process.finished"] == 2
    delivers = [s for s in rec.spans_by_cat("wire") if s.name == "net.deliver"]
    assert len(delivers) == channel.messages_delivered == 2 * (2 + 6)
    assert rec.counters["net.messages"] == channel.messages_delivered
    for span in delivers:
        assert span.t1 - span.t0 == pytest.approx(channel.link.latency0)


def test_run_netpipe_deterministic():
    r1 = run_netpipe(RawTcp(), CFG)
    r2 = run_netpipe(RawTcp(), CFG)
    assert [(p.size, p.oneway_time) for p in r1] == [
        (p.size, p.oneway_time) for p in r2
    ]


def test_run_many_preserves_order_and_labels():
    res = run_many([RawTcp(), MpLite()], CFG)
    assert list(res) == ["raw TCP", "MP_Lite"]


def test_run_many_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        run_many([RawTcp(), RawTcp()], CFG)


# -- results ------------------------------------------------------------------------
def make_result():
    points = [
        NetPipePoint(size=1, oneway_time=us(100)),
        NetPipePoint(size=64, oneway_time=us(101)),
        NetPipePoint(size=1024, oneway_time=us(110)),
        NetPipePoint(size=65536, oneway_time=us(1000)),
        NetPipePoint(size=1048576, oneway_time=us(15000)),
    ]
    return NetPipeResult(library="x", config="y", points=points)


def test_point_mbps():
    p = NetPipePoint(size=125000, oneway_time=1e-3)
    assert p.mbps == pytest.approx(1000.0)


def test_latency_is_mean_below_64():
    r = make_result()
    assert r.latency_us == pytest.approx(100.0)  # only the 1-byte point


def test_latency_requires_small_points():
    r = NetPipeResult("x", "y", [NetPipePoint(1024, us(10))])
    with pytest.raises(ValueError):
        _ = r.latency_us


def test_point_at_picks_nearest():
    r = make_result()
    assert r.point_at(60000).size == 65536
    assert r.point_at(2).size == 1


def test_max_and_plateau():
    r = make_result()
    assert r.max_mbps == pytest.approx(r.points[-1].mbps)
    assert r.plateau_mbps == r.points[-1].mbps


def test_half_bandwidth_size():
    r = run_netpipe(RawTcp(), CFG)
    half = r.half_bandwidth_size()
    assert r.mbps_at(half) >= r.max_mbps / 2
    # half-bandwidth point of a 120 us / 550 Mb/s link is ~8-16 KB
    assert 2048 <= half <= 65536


def test_dips_detects_rendezvous_dip():
    from repro.mplib import Mpich

    r = run_netpipe(Mpich.tuned(), CFG)
    sizes_with_dips = [s for s, _ in r.dips(min_depth=0.03)]
    assert any(120000 < s < 140000 for s in sizes_with_dips)


def test_dips_empty_for_smooth_curve():
    r = run_netpipe(RawTcp(), CFG)
    assert r.dips(min_depth=0.05) == []


def test_fraction_of():
    raw = run_netpipe(RawTcp(), CFG)
    lite = run_netpipe(MpLite(), CFG)
    assert lite.fraction_of(raw) == pytest.approx(1.0, abs=0.03)
    assert lite.fraction_of(raw, size=1024) <= 1.0


def test_result_is_sorted_by_size():
    pts = [NetPipePoint(1000, us(10)), NetPipePoint(1, us(1))]
    r = NetPipeResult("x", "y", pts)
    assert [p.size for p in r.points] == [1, 1000]


@pytest.mark.parametrize("sizes, times", [
    ([1, 64, 1024], [us(1), us(2), us(30)]),
    ([1024, 1, 64], [us(30), us(1), us(2)]),  # unsorted columns
    ([], []),
])
def test_from_columns_equals_normal_construction(sizes, times):
    """The bulk constructor leaves exactly the state __init__ would:
    equal results, equal canonical forms, same pickle round trip."""
    import pickle

    from repro.exec.fingerprint import canonicalize

    normal = NetPipeResult(
        "x", "y", [NetPipePoint(s, t) for s, t in zip(sizes, times)]
    )
    # Before its points are first read, a bulk result already pickles
    # to the same bytes and has the same canonical form.
    assert pickle.dumps(NetPipeResult.from_columns("x", "y", sizes, times)) \
        == pickle.dumps(normal)
    assert canonicalize(NetPipeResult.from_columns("x", "y", sizes, times)) \
        == canonicalize(normal)
    assert NetPipeResult.from_columns("x", "y", sizes, times).columns() == \
        normal.columns()

    bulk = NetPipeResult.from_columns("x", "y", sizes, times)
    assert bulk == normal
    assert [type(p) for p in bulk.points] == [NetPipePoint] * len(sizes)
    assert canonicalize(bulk) == canonicalize(normal)
    assert pickle.loads(pickle.dumps(bulk)) == normal
    for point in bulk.points:
        with pytest.raises(AttributeError):  # still frozen
            point.size = 2


def test_result_len_and_iter():
    r = make_result()
    assert len(r) == 5
    assert [p.size for p in r][0] == 1


# -- report -------------------------------------------------------------------------
def test_format_result_contains_summary():
    r = run_netpipe(RawTcp(), CFG)
    text = format_result(r, every=10)
    assert "raw TCP" in text and "Mbps" in text


def test_format_comparison_columns():
    res = run_many([RawTcp(), MpLite()], CFG)
    text = format_comparison(res)
    assert "raw TCP" in text and "MP_Lite" in text
    assert "max Mb/s" in text and "lat us" in text


def test_format_comparison_empty():
    assert "no results" in format_comparison({})


def test_ascii_profile_renders():
    r = run_netpipe(RawTcp(), CFG)
    text = ascii_profile(r)
    assert "#" in text and "profile" in text


# -- signature graph -------------------------------------------------------------
def test_signature_sorted_by_time():
    r = run_netpipe(RawTcp(), CFG)
    sig = r.signature()
    times = [t for t, _ in sig]
    assert times == sorted(times)
    assert len(sig) == len(r)


def test_signature_merit_rewards_better_networks():
    """GM (lower latency AND higher bandwidth) must dominate GigE TCP
    in the single-figure merit."""
    from repro.experiments import configs as _configs
    from repro.mplib import RawGm

    tcp = run_netpipe(RawTcp(), CFG)
    gm = run_netpipe(RawGm(), _configs.pc_myrinet())
    assert gm.signature_merit() > tcp.signature_merit()


def test_signature_merit_needs_points():
    r = NetPipeResult("x", "y", [NetPipePoint(1, us(10))])
    with pytest.raises(ValueError):
        r.signature_merit()
