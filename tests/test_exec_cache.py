"""Sweep fingerprints and the content-addressed cache."""

import pytest

from repro.core import run_netpipe
from repro.exec import SweepCache, SweepRequest, canonicalize, sweep_fingerprint
from repro.experiments import configs
from repro.hw.cluster import DEFAULT_SYSCTL
from repro.mplib import Mpich, RawTcp
from repro.mplib.mpich import MpichParams
from repro.units import kb

CFG = configs.pc_netgear_ga620()
SIZES = (1, 64, 1024, 65536)

pytestmark = pytest.mark.exec_smoke


# -- fingerprints -----------------------------------------------------------

def test_fingerprint_is_stable():
    a = sweep_fingerprint(Mpich.tuned(), CFG, SIZES, repeats=2)
    b = sweep_fingerprint(Mpich.tuned(), CFG, SIZES, repeats=2)
    assert a == b
    assert len(a) == 64 and int(a, 16) >= 0  # sha256 hex


def test_fingerprint_changes_on_library_params():
    base = sweep_fingerprint(Mpich.tuned(), CFG, SIZES)
    other = sweep_fingerprint(Mpich.tuned(sockbuf=kb(512)), CFG, SIZES)
    assert base != other
    rebuilt = sweep_fingerprint(
        Mpich(MpichParams(p4_sockbufsize=kb(256))), CFG, SIZES
    )
    assert rebuilt == base  # same parameters spelt differently


def test_fingerprint_changes_on_config():
    base = sweep_fingerprint(RawTcp(), CFG, SIZES)
    assert base != sweep_fingerprint(RawTcp(), CFG.with_mtu(9000), SIZES)
    assert base != sweep_fingerprint(RawTcp(), CFG.with_sysctl(DEFAULT_SYSCTL), SIZES)


def test_fingerprint_changes_on_sizes_and_repeats():
    base = sweep_fingerprint(RawTcp(), CFG, SIZES, repeats=1)
    assert base != sweep_fingerprint(RawTcp(), CFG, SIZES + (131072,), repeats=1)
    assert base != sweep_fingerprint(RawTcp(), CFG, SIZES, repeats=2)
    assert base != sweep_fingerprint(RawTcp(), CFG, SIZES, salt="study-2")


def test_fingerprint_distinguishes_library_classes():
    """Two models with identical parameter dicts must not collide."""
    assert sweep_fingerprint(RawTcp(), CFG, SIZES) != sweep_fingerprint(
        Mpich.tuned(), CFG, SIZES
    )


def test_default_schedule_expands():
    from repro.core.sizes import netpipe_sizes

    implicit = sweep_fingerprint(RawTcp(), CFG, None)
    explicit = sweep_fingerprint(RawTcp(), CFG, netpipe_sizes())
    assert implicit == explicit


def test_canonicalize_rejects_unstable_values():
    with pytest.raises(TypeError):
        canonicalize(lambda: None)


# -- cache ------------------------------------------------------------------

def test_cache_hit_returns_bit_identical_result(tmp_path):
    cache = SweepCache(tmp_path)
    request = SweepRequest("raw TCP", RawTcp(), CFG, sizes=SIZES)
    fp = request.fingerprint()
    fresh = run_netpipe(RawTcp(), CFG, sizes=SIZES)

    assert cache.get(fp) is None  # cold
    cache.put(fp, fresh)
    hit = cache.get(fp)
    assert hit is not None
    assert [(p.size, p.oneway_time) for p in hit.points] == [
        (p.size, p.oneway_time) for p in fresh.points
    ]
    assert hit.library == fresh.library and hit.config == fresh.config
    assert cache.hits == 1 and cache.misses == 1


def test_cache_layout_fans_out_by_prefix(tmp_path):
    cache = SweepCache(tmp_path)
    fp = SweepRequest("x", RawTcp(), CFG, sizes=SIZES).fingerprint()
    path = cache.put(fp, run_netpipe(RawTcp(), CFG, sizes=SIZES))
    assert path == tmp_path / fp[:2] / f"{fp}.json"
    assert path.exists()
    assert len(cache) == 1


def test_from_env(tmp_path, monkeypatch):
    from repro.exec.cache import CACHE_DIR_ENV

    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    assert SweepCache.from_env() is None
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "sweeps"))
    cache = SweepCache.from_env()
    assert cache is not None and cache.root == tmp_path / "sweeps"
