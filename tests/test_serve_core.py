"""Serve tier: coalescing, cache tiers, admission, speculation, stats.

The deterministic load tests for :mod:`repro.serve`.  The headline
guarantee: a thundering herd of concurrent identical queries performs
exactly ONE simulation — asserted from the executor counters, not
timing — and every caller receives a curve bit-identical to a direct
:func:`~repro.exec.execute_sweeps` call.
"""

import asyncio
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import ExecPolicy, SweepCache, execute_sweeps
from repro.serve import (
    BadRequestError,
    HotCurveLRU,
    OverloadedError,
    ServeCore,
    ServeQuery,
    ServeResponse,
    neighbor_queries,
)

pytestmark = pytest.mark.serve

#: Tiny schedule: these tests are about the serving pipeline, not curves.
SIZES = (1, 64, 1024)


def _policy(**kw):
    """A hermetic policy: no environment reads, tiny retry backoff."""
    kw.setdefault("max_workers", 1)
    kw.setdefault("backoff", 0.001)
    return ExecPolicy(**kw)


def _core(tmp_path=None, **kw):
    """A ServeCore with an explicit policy and optional tmp disk cache."""
    kw.setdefault("policy", _policy())
    cache = SweepCache(tmp_path / "cache") if tmp_path is not None else None
    return ServeCore(cache=cache, **kw)


def _points(result):
    return [(p.size, p.oneway_time) for p in result.points]


# -- the acceptance guarantee ------------------------------------------------

def test_thundering_herd_performs_exactly_one_simulation(tmp_path):
    """64 concurrent identical uncached queries; one sweep; 64 identical
    answers, bit-identical to a direct execute_sweeps call."""
    query = ServeQuery(library="mpich", sizes=SIZES)

    async def herd():
        core = _core(tmp_path, hot_size=16, max_pending=4)
        responses = await asyncio.gather(
            *[core.query(query) for _ in range(64)]
        )
        stats = core.stats()
        await core.aclose()
        return responses, stats

    responses, stats = asyncio.run(herd())
    assert len(responses) == 64

    # Exactly one simulation, proven by the executor's own counters.
    assert stats["exec"]["simulated"] == 1
    assert stats["sources"]["computed"] == 1
    assert stats["sources"]["coalesced"] == 63
    assert stats["requests"] == 64
    assert stats["shed"] == 0

    # Every response carries the identical curve...
    direct, report = execute_sweeps([query.resolve()])
    assert report.sweeps_simulated == 1
    expected = _points(direct[0])
    for response in responses:
        assert _points(response.result) == expected  # bit-identical
        assert response.fingerprint == responses[0].fingerprint
        assert response.source in ("computed", "coalesced")

    # ...and the JSON wire form round-trips it exactly.
    wire = ServeResponse.from_jsonable(
        json.loads(json.dumps(responses[0].to_jsonable()))
    )
    assert _points(wire.result) == expected


@settings(deadline=None, max_examples=8)
@given(n=st.integers(min_value=2, max_value=12))
def test_coalescing_property_any_herd_size(n):
    """Property: N concurrent identical queries, any N, coalesce to one
    computation with identical responses (no disk cache involved)."""
    query = ServeQuery(library="raw-tcp", sizes=(1, 256))

    async def herd():
        core = _core(hot_size=0)  # hot tier off: pure coalescing
        responses = await asyncio.gather(
            *[core.query(query) for _ in range(n)]
        )
        stats = core.stats()
        await core.aclose()
        return responses, stats

    responses, stats = asyncio.run(herd())
    assert stats["exec"]["simulated"] == 1
    assert stats["sources"]["computed"] == 1
    assert stats["sources"]["coalesced"] == n - 1
    first = _points(responses[0].result)
    assert all(_points(r.result) == first for r in responses)


# -- distinct-fingerprint herd: shards, LRU order ---------------------------

def test_distinct_herd_spreads_shards_and_evicts_in_lru_order(tmp_path):
    """Distinct fingerprints fan out across cache shards; the hot tier
    evicts in exact least-recently-used order."""
    hot_size = 4
    queries = [
        ServeQuery(library="raw-tcp", sizes=(1, 1 << (i + 2)))
        for i in range(12)
    ]

    async def run():
        core = _core(tmp_path, hot_size=hot_size, max_pending=4)
        responses = [await core.query(q) for q in queries]
        stats = core.stats()
        await core.aclose()
        return core, responses, stats

    core, responses, stats = asyncio.run(run())
    fingerprints = [r.fingerprint for r in responses]
    assert len(set(fingerprints)) == len(queries)  # genuinely distinct

    # Disk tier: every entry landed, sharded by fingerprint first byte.
    shards = core.cache.shard_counts()
    assert sum(shards.values()) == len(queries)
    assert "" not in shards  # nothing in the flat legacy layout
    assert len(shards) >= 2  # spread, not one directory
    for shard, fp in zip(
        (f[:2] for f in fingerprints), fingerprints
    ):
        assert core.cache.path_for(fp).exists()
        assert core.cache.path_for(fp).parent.name == shard

    # Hot tier: sequential queries evict strictly oldest-first.
    assert stats["hot"]["size"] == hot_size
    assert stats["hot"]["evictions"] == len(queries) - hot_size
    assert core.hot.recent_evictions() == fingerprints[: len(queries) - hot_size]
    assert list(core.hot) == fingerprints[len(queries) - hot_size:]


def test_warm_tiers_answer_without_simulation(tmp_path):
    """Second ask is a hot hit; a fresh core over the same disk cache
    answers from disk; neither re-simulates."""
    query = ServeQuery(library="mplite", sizes=SIZES)

    async def run():
        core = _core(tmp_path)
        first = await core.query(query)
        again = await core.query(query)
        await core.aclose()
        # Fresh core, hot tier empty, same disk cache directory.
        cold = _core(tmp_path)
        from_disk = await cold.query(query)
        stats = cold.stats()
        await cold.aclose()
        return first, again, from_disk, stats

    first, again, from_disk, cold_stats = asyncio.run(run())
    assert first.source == "computed"
    assert again.source == "hot"
    assert from_disk.source == "disk"
    assert cold_stats["exec"]["simulated"] == 0
    assert _points(first.result) == _points(again.result)
    assert _points(first.result) == _points(from_disk.result)


# -- admission / load shed ---------------------------------------------------

def test_load_shed_raises_typed_overloaded_error(monkeypatch):
    """Past max_pending the core sheds with the typed error shape; an
    identical-fingerprint follower still coalesces (never shed)."""
    q_busy = ServeQuery(library="mpich", sizes=(1, 32))
    q_other = ServeQuery(library="raw-tcp", sizes=(1, 32))

    async def run():
        core = _core(max_pending=1)
        started = threading.Event()
        release = threading.Event()
        real_compute = core._compute

        def slow_compute(sweep, policy):
            started.set()
            assert release.wait(10)
            return real_compute(sweep, policy)

        monkeypatch.setattr(core, "_compute", slow_compute)
        leader = asyncio.create_task(core.query(q_busy))
        await asyncio.to_thread(started.wait, 10)

        with pytest.raises(OverloadedError) as excinfo:
            await core.query(q_other)
        shed_error = excinfo.value

        follower = asyncio.create_task(core.query(q_busy))
        await asyncio.sleep(0)  # let the follower join the future
        release.set()
        leader_response = await leader
        follower_response = await follower
        stats = core.stats()
        await core.aclose()
        return shed_error, leader_response, follower_response, stats

    shed, leader, follower, stats = asyncio.run(run())
    assert shed.kind == "overloaded"
    assert shed.pending == 1 and shed.limit == 1
    wire = shed.to_jsonable()
    assert wire["kind"] == "overloaded"
    assert wire["pending"] == 1 and wire["limit"] == 1
    assert "retry" in wire["detail"]
    assert leader.source == "computed"
    assert follower.source in ("coalesced", "hot")
    assert stats["shed"] == 1
    assert _points(leader.result) == _points(follower.result)


# -- tier routing through the service ---------------------------------------

def test_analytic_tier_routes_and_demands(tmp_path):
    """tier='analytic' answers banded pairs closed-form and rejects
    unbanded ones as a bad request, not an execution failure."""
    async def run():
        core = _core(tmp_path)
        response = await core.query(
            ServeQuery(library="mpich", sizes=SIZES, tier="analytic")
        )
        # An off-ladder MTU: no servable pair, so no band.
        with pytest.raises(BadRequestError, match="analytic"):
            await core.query(
                ServeQuery(library="mpich-mplite", mtu=6000, sizes=SIZES,
                           tier="analytic")
            )
        stats = core.stats()
        await core.aclose()
        return response, stats

    response, stats = asyncio.run(run())
    assert response.tier == "analytic"
    assert response.source == "computed"
    assert stats["exec"]["analytic"] == 1
    assert stats["exec"]["simulated"] == 0


def test_bad_tier_name_is_bad_request():
    """An invalid per-query tier is the query's fault, typed as such."""
    async def run():
        core = _core()
        with pytest.raises(BadRequestError, match="tier"):
            await core.query(
                ServeQuery(library="mpich", sizes=SIZES, tier="warp")
            )
        await core.aclose()

    asyncio.run(run())


# -- query validation and derived blocks ------------------------------------

def test_bad_names_are_typed_bad_requests():
    """Unknown library/config names and invalid tunables reject cleanly."""
    async def run():
        core = _core()
        with pytest.raises(BadRequestError, match="unknown library"):
            await core.query(ServeQuery(library="openmpi", sizes=SIZES))
        with pytest.raises(BadRequestError, match="unknown config"):
            await core.query(
                ServeQuery(library="mpich", config="beowulf99", sizes=SIZES)
            )
        with pytest.raises(BadRequestError, match="[Mm]tu|MTU"):
            await core.query(
                ServeQuery(library="mpich", mtu=64000, sizes=SIZES)
            )
        await core.aclose()

    asyncio.run(run())


def test_query_jsonable_round_trip_and_unknown_fields():
    """The wire form round-trips; unknown fields are rejected loudly."""
    query = ServeQuery(
        library="mpich", config="pc_syskonnect", mtu=9000, tuned=True,
        sizes=(1, 64), repeats=2, tier="auto", compare_with="raw-tcp",
        nodes=16,
    )
    assert ServeQuery.from_jsonable(
        json.loads(json.dumps(query.to_jsonable()))
    ) == query
    with pytest.raises(BadRequestError, match="unknown query field"):
        ServeQuery.from_jsonable({"library": "mpich", "jumbo": True})
    with pytest.raises(BadRequestError, match="library"):
        ServeQuery.from_jsonable({"config": "pc_syskonnect"})
    with pytest.raises(BadRequestError, match="sizes"):
        ServeQuery(library="mpich", sizes=())
    with pytest.raises(BadRequestError, match="repeats"):
        ServeQuery(library="mpich", repeats=0)


def test_schedule_without_latency_point_answers_with_null_latency():
    """A sizes schedule with no sub-64-byte point must still answer —
    latency_us comes back null, never a dropped connection."""
    core = _core()
    response = asyncio.run(
        core.query(ServeQuery(library="mpich", sizes=(64, 1024)))
    )
    assert response.metrics["latency_us"] is None
    assert response.metrics["max_mbps"] > 0


def test_crossover_and_cost_blocks(tmp_path):
    """compare_with yields the crossover block; every response carries
    the paper-priced cost block for the requested node count."""
    async def run():
        core = _core(tmp_path)
        response = await core.query(
            ServeQuery(library="mpich", sizes=SIZES,
                       compare_with="raw-tcp", nodes=8)
        )
        stats = core.stats()
        await core.aclose()
        return response, stats

    response, stats = asyncio.run(run())
    assert stats["exec"]["simulated"] == 2  # the query and its companion
    assert response.crossover["versus"] == "raw-tcp"
    assert response.crossover["versus_max_mbps"] > 0
    # Raw TCP beats MPICH from the smallest measured size on this NIC.
    assert response.crossover["overtaken_at"] == SIZES[0]
    assert response.cost["nodes"] == 8
    assert response.cost["total_usd"] > response.cost["interconnect_usd"] > 0
    assert response.cost["mbps_per_interconnect_kusd"] > 0
    assert response.metrics["max_mbps"] > 0
    assert response.metrics["latency_us"] > 0


# -- speculation -------------------------------------------------------------

def test_neighbor_queries_are_deterministic_and_bounded():
    """Neighbors: tuned toggle first, then supported MTU ladder steps;
    never the current MTU, never past the NIC maximum, depth-bounded."""
    query = ServeQuery(library="mpich", config="pc_netgear_ga620",
                       sizes=SIZES)
    neighbors = neighbor_queries(query, depth=8)
    assert neighbors == neighbor_queries(query, depth=8)  # deterministic
    assert neighbors[0].tuned is True  # untuned default toggles on
    mtus = [n.mtu for n in neighbors if n.mtu is not None]
    assert 1500 not in mtus  # already the configured MTU
    assert neighbor_queries(query, depth=1) == neighbors[:1]
    # Unresolvable queries must produce no neighbors (never an error).
    assert neighbor_queries(
        ServeQuery(library="mpich", config="nope"), depth=3
    ) == []


def test_speculation_warms_neighbors(tmp_path):
    """A computed answer precomputes its neighbors in the background,
    so the follow-up tuned question is a hot hit."""
    query = ServeQuery(library="mpich", sizes=SIZES)

    async def run():
        core = _core(tmp_path, speculate=True, speculate_depth=2,
                     max_pending=2)
        await core.query(query)
        await core.drain_speculation()
        follow_up = await core.query(query.replace_tunables(tuned=True))
        stats = core.stats()
        await core.aclose()
        return follow_up, stats

    follow_up, stats = asyncio.run(run())
    assert stats["speculation"]["enqueued"] >= 2
    assert stats["speculation"]["warmed"] >= 2
    assert follow_up.source == "hot"


def test_cold_key_and_its_neighbors_answer_on_the_analytic_tier(tmp_path):
    """Every pair serve's vocabulary produces holds a band, so tier=auto
    answers a cold key and the neighbours speculation warms after it
    closed-form: nothing is simulated and nothing is demoted."""
    query = ServeQuery(library="lam", config="pc_syskonnect", tuned=False)
    neighbors = neighbor_queries(query, depth=3)

    async def run():
        core = _core(tmp_path, policy=_policy(tier="auto"), speculate=True,
                     speculate_depth=3)
        first = await core.query(query)
        await core.drain_speculation()
        follow_ups = [await core.query(n) for n in neighbors]
        stats = core.stats()
        await core.aclose()
        return first, follow_ups, stats

    first, follow_ups, stats = asyncio.run(run())
    assert len(neighbors) == 3
    assert (first.source, first.tier) == ("computed", "analytic")
    assert [(r.source, r.tier) for r in follow_ups] == (
        [("hot", "analytic")] * 3)
    # Warmed answers speculate in turn, so more than four may compute.
    assert stats["exec"]["analytic"] >= 4
    assert stats["exec"]["simulated"] == 0
    assert stats["exec"]["tier_fallbacks"] == 0


# -- hot LRU unit behaviour --------------------------------------------------

def test_hot_lru_counters_and_order():
    """Hits refresh recency; eviction is LRU; counters add up."""
    lru = HotCurveLRU(2)
    assert lru.get("a") is None and lru.misses == 1
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # refreshes a over b
    lru.put("c", 3)  # evicts b, the LRU entry
    assert "b" not in lru and "a" in lru and "c" in lru
    assert lru.recent_evictions() == ["b"]
    assert list(lru) == ["a", "c"]
    assert (lru.hits, lru.misses, lru.evictions) == (1, 1, 1)
    snap = lru.snapshot()
    assert snap == {"capacity": 2, "size": 2, "hits": 1, "misses": 1,
                    "evictions": 1}


def test_hot_lru_capacity_zero_disables():
    """Capacity 0 turns the hot tier off without special-casing callers."""
    lru = HotCurveLRU(0)
    lru.put("a", 1)
    assert lru.get("a") is None
    assert len(lru) == 0 and lru.evictions == 0
    with pytest.raises(ValueError):
        HotCurveLRU(-1)


# -- stats document ----------------------------------------------------------

def test_stats_document_shape_and_serializability(tmp_path):
    """The stats document is one JSON-ready object with every section."""
    async def run():
        core = _core(tmp_path, hot_size=8)
        await core.query(ServeQuery(library="raw-tcp", sizes=SIZES))
        stats = core.stats()
        await core.aclose()
        return stats

    stats = asyncio.run(run())
    assert json.loads(json.dumps(stats)) == stats
    for section in ("requests", "sources", "shed", "hot", "disk", "exec",
                    "speculation", "policy", "max_pending"):
        assert section in stats
    assert stats["disk"]["shards"]  # the sharded layout is visible
    assert stats["policy"]["tier"] == "sim"
