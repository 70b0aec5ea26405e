"""Serve chaos tier: injected faults through the serving pipeline.

The serving layer inherits the executor's hardening — these tests
prove the inheritance holds end-to-end: a crashing or lying worker
under a live query still produces the fault-free answer, and cache
damage (a corrupt entry) degrades to a miss, never to a wrong curve.
"""

import asyncio

import pytest

from repro.exec import ExecPolicy, SweepCache
from repro.faults import FaultKind, FaultPlan
from repro.serve import ServeCore, ServeQuery

pytestmark = [pytest.mark.serve, pytest.mark.faults]

SIZES = (1, 64, 1024)
QUERY = ServeQuery(library="mpich", sizes=SIZES)


def _policy(**kw):
    kw.setdefault("max_workers", 1)
    kw.setdefault("backoff", 0.001)
    kw.setdefault("retries", 2)
    return ExecPolicy(**kw)


def _ask(core: ServeCore):
    """Answer QUERY on a fresh event loop, closing the core after."""
    async def run():
        try:
            return await core.query(QUERY), core.stats()
        finally:
            await core.aclose()

    return asyncio.run(run())


def _points(result):
    return [(p.size, p.oneway_time) for p in result.points]


@pytest.fixture(scope="module")
def baseline():
    """The fault-free curve every chaos answer must reproduce exactly."""
    response, stats = _ask(ServeCore(policy=_policy()))
    assert stats["exec"]["retries"] == 0
    return _points(response.result)


@pytest.mark.parametrize(
    "kind", [FaultKind.CRASH, FaultKind.RAISE, FaultKind.CORRUPT],
    ids=["crash", "raise", "corrupt"],
)
def test_worker_fault_mid_request_still_answers(kind, baseline):
    """A worker that crashes, raises, or lies on the first attempt is
    retried; the query still answers with the fault-free curve.

    A serve query is a single-sweep batch, so the executor runs it
    serially in-process and a CRASH downgrades to an exception on the
    retry path (the pool-break degradation itself is exercised by the
    multi-sweep batches in tests/test_exec_faults.py).
    """
    core = ServeCore(
        policy=_policy(max_workers=2),
        fault_plan=FaultPlan.single(QUERY.library, kind),
    )
    response, stats = _ask(core)
    assert _points(response.result) == baseline  # recovery is exact
    assert response.source == "computed"
    assert stats["exec"]["retries"] == 1  # the fault cost one retry
    assert stats["exec"]["simulated"] == 1


def test_fault_exhausting_retries_surfaces_typed_failure(baseline):
    """A fault outlasting the retry budget fails the query loudly — and
    only that query: the core keeps serving afterwards."""
    from repro.exec import SweepExecutionError

    core = ServeCore(
        policy=_policy(retries=1),
        fault_plan=FaultPlan.single(QUERY.library, FaultKind.RAISE, times=3),
    )

    async def run():
        with pytest.raises(SweepExecutionError, match="mpich"):
            await core.query(QUERY)
        # The failure was not cached anywhere; an unfaulted library
        # still answers on the same core.
        response = await core.query(
            ServeQuery(library="raw-tcp", sizes=SIZES)
        )
        stats = core.stats()
        await core.aclose()
        return response, stats

    response, stats = asyncio.run(run())
    assert response.source == "computed"
    assert stats["inflight"] == 0  # the failed future was cleaned up
    assert stats["hot"]["size"] == 1  # only the good answer was kept


def test_corrupt_sharded_entry_reads_as_miss_and_is_repaired(
    tmp_path, baseline
):
    """A truncated cache entry under a shard is a miss, not an error:
    the query re-simulates, answers correctly, and heals the entry."""
    root = tmp_path / "cache"
    response, _ = _ask(ServeCore(cache=SweepCache(root), policy=_policy()))
    entry = SweepCache(root).path_for(response.fingerprint)
    assert entry.exists() and entry.parent.name == response.fingerprint[:2]
    entry.write_text(entry.read_text()[: 40])  # truncate mid-document

    cache = SweepCache(root)
    healed, stats = _ask(ServeCore(cache=cache, policy=_policy()))
    assert _points(healed.result) == baseline
    assert healed.source == "computed"  # corrupt == miss, so it re-ran
    assert cache.corrupt == 1
    assert stats["disk"]["corrupt"] == 1
    # The entry was repaired in place by the re-simulation's write.
    assert cache.get(response.fingerprint) is not None
