"""Serve routing: each distinct question is resolved and routed once.

:meth:`ServeCore._route` remembers the resolved request, its tier and
its salted fingerprint per distinct question, and hot entries carry the
curve's headline metrics.  These tests hold that shortcut to the long
way round: every served fingerprint and document equals one computed
fresh, a hot answer does no resolving or canonicalizing at all (counted,
not timed), failures are never remembered, and the memo stays bounded.
"""

import asyncio
import json
from dataclasses import replace

import pytest

import repro.analytic.bands as bands_module
import repro.exec.fingerprint as fingerprint_module
from repro.core.io import result_to_dict
from repro.exec import ExecPolicy, execute_with_policy
from repro.exec.tiers import plan_tiers
from repro.serve import (
    BadRequestError,
    ServeCore,
    ServeQuery,
    ServeResponse,
    cost_block,
    curve_metrics,
)
from repro.serve.core import route_key

pytestmark = pytest.mark.serve

SIZES = (1, 64, 1024)

#: One question per routing-relevant variation: int vs float MTU,
#: tuned unset/off/on, explicit sizes, a per-query tier, a companion.
QUERIES = [
    {"library": "mpich", "sizes": list(SIZES)},
    {"library": "mpich", "config": "pc_syskonnect", "mtu": 9000,
     "sizes": list(SIZES)},
    {"library": "mpich", "config": "pc_syskonnect", "mtu": 9000.0,
     "sizes": list(SIZES)},
    {"library": "raw-tcp", "tuned": False, "sizes": list(SIZES)},
    {"library": "raw-tcp", "tuned": True, "sizes": list(SIZES)},
    {"library": "mplite", "sizes": [1, 4096, 65536]},
    {"library": "mpich", "sizes": list(SIZES), "tier": "analytic"},
    {"library": "mpich", "sizes": list(SIZES), "tier": "auto"},
    {"library": "mpich", "sizes": list(SIZES), "compare_with": "raw-tcp",
     "nodes": 8},
]


def _policy():
    return ExecPolicy(max_workers=1, backoff=0.001)


def _fresh_fingerprint(query: ServeQuery, policy: ExecPolicy) -> str:
    sweep = query.resolve()
    tier = query.tier if query.tier is not None else policy.tier
    plan = plan_tiers([sweep], tier, salt=policy.salt)
    return plan.fingerprint(sweep, 0)


def _fresh_document(query: ServeQuery, served: ServeResponse,
                    policy: ExecPolicy) -> dict:
    """The response document rebuilt the long way: a fresh resolve, a
    fresh execution, fresh metrics and cost."""
    sweep = query.resolve()
    tier = query.tier if query.tier is not None else policy.tier
    [result], _ = execute_with_policy([sweep], policy.with_tier(tier))
    metrics = curve_metrics(result)
    crossover = None
    if query.compare_with is not None:
        companion = query.companion(query.compare_with)
        [other], _ = execute_with_policy([companion.resolve()],
                                         policy.with_tier(tier))
        crossover = ServeCore._crossover_block(
            query, result, other, curve_metrics(other)
        )
    return ServeResponse(
        query=query,
        result=result,
        fingerprint=_fresh_fingerprint(query, policy),
        tier=served.tier,
        source=served.source,
        metrics=metrics,
        crossover=crossover,
        cost=cost_block(sweep.config, result.max_mbps, query.nodes),
        timing=served.timing,
    ).to_jsonable()


def test_served_answers_equal_fresh_computations():
    """Cold and hot, every served fingerprint and document equals the
    one computed from scratch."""
    policy = _policy()

    async def run():
        core = ServeCore(policy=policy, hot_size=64)
        served = []
        for _ in range(2):  # cold, then hot
            for data in QUERIES:
                query = ServeQuery.from_jsonable(data)
                served.append((query, await core.query(query)))
        await core.aclose()
        return served

    served = asyncio.run(run())
    sources = {response.source for _, response in served}
    assert sources == {"computed", "hot"}
    for query, response in served:
        assert response.fingerprint == _fresh_fingerprint(query, policy)
        got = json.dumps(response.to_jsonable(), sort_keys=True)
        want = json.dumps(_fresh_document(query, response, policy),
                          sort_keys=True)
        assert got == want


def test_equal_but_differently_typed_fields_never_share_a_route():
    """mtu 9000 and 9000.0 compare equal but canonicalize apart: the
    route key, and hence the served fingerprint, tell them apart."""
    as_int = ServeQuery(library="mpich", config="pc_syskonnect", mtu=9000)
    as_float = ServeQuery(library="mpich", config="pc_syskonnect",
                          mtu=9000.0)
    assert as_int == as_float
    assert route_key(as_int) != route_key(as_float)
    assert route_key(ServeQuery(library="mpich", tuned=True)) != route_key(
        ServeQuery(library="mpich", tuned=1)
    )
    # compare_with and nodes shape the response, not the curve.
    assert route_key(as_int) == route_key(
        ServeQuery(library="mpich", config="pc_syskonnect", mtu=9000,
                   compare_with="raw-tcp", nodes=16)
    )

    async def run():
        core = ServeCore(policy=_policy())
        a = await core.query(replace(as_int, sizes=SIZES))
        b = await core.query(replace(as_float, sizes=SIZES))
        await core.aclose()
        return a, b

    a, b = asyncio.run(run())
    assert a.fingerprint != b.fingerprint
    assert b.source == "computed"  # not the int-MTU curve, re-served


def test_hot_answers_do_no_resolving_or_canonicalizing(monkeypatch):
    """After a warm-up, 50 hot answers (fresh query objects each time)
    make zero ServeQuery.resolve and zero canonicalize calls."""
    calls = {"resolve": 0, "canonicalize": 0}
    real_resolve = ServeQuery.resolve
    real_canonicalize = fingerprint_module.canonicalize

    def counting_resolve(self):
        calls["resolve"] += 1
        return real_resolve(self)

    def counting_canonicalize(obj):
        calls["canonicalize"] += 1
        return real_canonicalize(obj)

    monkeypatch.setattr(ServeQuery, "resolve", counting_resolve)
    monkeypatch.setattr(fingerprint_module, "canonicalize",
                        counting_canonicalize)
    monkeypatch.setattr(bands_module, "canonicalize", counting_canonicalize)

    async def run():
        core = ServeCore(policy=_policy(), hot_size=64)
        for data in QUERIES:
            await core.query(ServeQuery.from_jsonable(data))
        warmed = dict(calls)
        sources = []
        for i in range(50):
            data = QUERIES[i % len(QUERIES)]
            response = await core.query(ServeQuery.from_jsonable(data))
            sources.append(response.source)
        await core.aclose()
        return warmed, sources

    warmed, sources = asyncio.run(run())
    assert warmed["resolve"] > 0 and warmed["canonicalize"] > 0
    assert set(sources) == {"hot"}
    assert calls == warmed


@pytest.mark.parametrize("data, match", [
    ({"library": "openmpi", "sizes": list(SIZES)}, "unknown library"),
    # An off-ladder MTU is outside the certified universe: no band.
    ({"library": "mpich-mplite", "mtu": 6000, "sizes": list(SIZES),
      "tier": "analytic"}, "analytic"),
    ({"library": "mpich", "sizes": list(SIZES), "tier": "warp"}, "tier"),
])
def test_failures_raise_every_time_and_are_never_remembered(data, match):
    async def run():
        core = ServeCore(policy=_policy())
        await core.query(ServeQuery(library="mpich", sizes=SIZES))
        before = list(core.routes)
        for _ in range(3):
            with pytest.raises(BadRequestError, match=match):
                await core.query(ServeQuery.from_jsonable(data))
            assert list(core.routes) == before
        await core.aclose()

    asyncio.run(run())


def test_auto_demotion_counts_once_per_request_hot_or_not():
    """serve.tier.fallback counts every demoted request, including the
    ones answered from a remembered route and the hot tier."""
    # An off-ladder MTU is outside the certified universe: no band.
    query = ServeQuery(library="mpich-mplite", mtu=6000, sizes=SIZES,
                       tier="auto")

    async def run():
        core = ServeCore(policy=_policy())
        sources = [(await core.query(query)).source for _ in range(3)]
        stats = core.stats()
        await core.aclose()
        return sources, stats

    sources, stats = asyncio.run(run())
    assert sources == ["computed", "hot", "hot"]
    assert stats["exec"]["tier_fallbacks"] == 3
    assert stats["exec"]["analytic"] == 0


def test_route_memo_is_bounded_by_hot_size():
    hot_size = 3

    async def run():
        core = ServeCore(policy=_policy(), hot_size=hot_size)
        sizes_seen = []
        for i in range(8):
            await core.query(ServeQuery(library="raw-tcp",
                                        sizes=(1, 1 << (i + 2))))
            sizes_seen.append(len(core.routes))
        await core.aclose()
        return sizes_seen

    assert max(asyncio.run(run())) == hot_size


def test_hot_entries_carry_their_metrics():
    """The hot tier holds (result, tier, metrics): metrics computed once,
    equal to a fresh curve_metrics of the stored curve."""
    async def run():
        core = ServeCore(policy=_policy())
        response = await core.query(ServeQuery(library="mpich", sizes=SIZES))
        entry = core.hot.get(response.fingerprint)
        await core.aclose()
        return response, entry

    response, (result, tier, metrics) = asyncio.run(run())
    assert result is response.result and tier == response.tier
    assert metrics == curve_metrics(result)
    with pytest.raises(TypeError):  # shared by every answer: read-only
        response.metrics["max_mbps"] = 0.0
    assert result_to_dict(result) == response.to_jsonable()["curve"]
