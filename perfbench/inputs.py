"""Seeded inputs for the four workloads.

Everything the program receives is generated here from ``--seed`` (and
the run length): the same seed gives the same requests, specs and
arrival times.  No input depends on the clock or on the program's
answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Cluster configs the sweep universe crosses with every library.
TUNED_CHOICES = (None, True, False)
MTU_CHOICES = (None, 4000, 9000)

#: Ethernet configs and TCP-family libraries the congested scenarios
#: draw from (multi-rank fabrics need ``build_endpoint``).
SCENARIO_CONFIGS = ("pc_netgear_ga620", "pc_trendnet", "pc_syskonnect",
                    "ds20_syskonnect_jumbo")
SCENARIO_LIBRARIES = ("mpich", "lam", "mpipro", "mplite", "raw-tcp",
                      "tcgmsg", "pvm")


def sweep_universe() -> list[dict]:
    """Every runnable (library, config, tuned, mtu) query, deduplicated.

    A library that cannot drive a config's NIC (GM on Ethernet, M-VIA
    on Myrinet) or an MTU the NIC does not support is left out, so no
    generated sweep fails.  Queries that resolve to the same sweep
    (same fingerprint) are kept once, first choice wins.
    """
    from repro.mplib.registry import REGISTRY, VARIANTS
    from repro.serve.api import BadRequestError, ServeQuery, config_names
    from repro.sim import Engine

    seen = set()
    out = []
    for lib in sorted({**REGISTRY, **VARIANTS}):
        for cfg in config_names():
            for tuned in TUNED_CHOICES:
                for mtu in MTU_CHOICES:
                    query = {"library": lib, "config": cfg}
                    if tuned is not None:
                        query["tuned"] = tuned
                    if mtu is not None:
                        query["mtu"] = mtu
                    try:
                        request = ServeQuery.from_jsonable(query).resolve()
                        request.library.build(Engine(), request.config)
                    except (BadRequestError, ValueError):
                        continue
                    key = request.fingerprint()
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(query)
    return out


def figure_requests() -> list:
    """Every figure 1-5 curve as an executor request, figure order."""
    from repro.experiments import ALL_FIGURES

    requests = []
    for fig in ALL_FIGURES:
        for request in fig.sweep_requests():
            requests.append(request)
    return requests


def sweep_sample(seed: int, count: int, universe: list[dict]) -> list[dict]:
    """``count`` universe queries, seeded; repeats only past the universe."""
    rng = random.Random(f"sweep-cold:{seed}")
    out: list[dict] = []
    while len(out) < count:
        batch = list(universe)
        rng.shuffle(batch)
        out.extend(batch[: count - len(out)])
    return out


def per_library_sample(seed: int, universe: list[dict],
                       per_library: int) -> list[dict]:
    """``per_library`` seeded queries of every library, library order.

    Replay cost depends on the library (its fingerprint walk), so a
    sample stratified by library costs the same for every seed.
    """
    rng = random.Random(f"per-library:{seed}")
    by_library: dict[str, list[dict]] = {}
    for q in universe:
        by_library.setdefault(q["library"], []).append(q)
    out = []
    for library in sorted(by_library):
        group = by_library[library]
        out.extend(rng.sample(group, min(per_library, len(group))))
    return out


# -- cluster-congested -------------------------------------------------------

#: One round of specs: (workload kind, ranks, leaf size).  The costs of
#: the kinds differ by ~10x, so the round has this fixed shape and the
#: seed varies only configs, traffic, rates and placements, not problem
#: sizes (the 128-rank halo sets the tail).  The three 32-rank
#: all-to-alls (~0.35 s each) sit in the middle of the round's cost
#: order, so the per-scenario median is the median of one kind, not a
#: jump between two.  All-to-all stays at 32 ranks: its cost grows with
#: the square of the rank count (128 ranks take ~8 s on one core).
SCENARIO_ROUND = (
    ("halo", 128, 16),
    ("halo", 64, 16),
    ("alltoall", 32, 8),
    ("pingpong", 128, 16),
    ("alltoall", 32, 8),
    ("halo", 32, 8),
    ("alltoall", 32, 8),
)


def _traffic(rng: random.Random, kind: str, nranks: int) -> dict:
    rate = round(rng.uniform(0.1, 0.35), 3)
    if kind == "constant":
        return {"kind": "constant", "rate": rate}
    if kind == "onoff":
        return {"kind": "onoff", "rate": rate,
                "on_seconds": 0.0005, "off_seconds": 0.0005}
    return {"kind": "alltoall", "rate": rate,
            "message_bytes": rng.choice((16384, 32768, 65536))}


def scenario_specs(seed: int, rounds: int, tag: str = "cc") -> list[dict]:
    """``rounds`` x :data:`SCENARIO_ROUND` congested two-tier specs."""
    rng = random.Random(f"cluster-congested:{seed}")
    traffic_kinds = ("constant", "onoff", "alltoall")
    # Each slot of the round cycles through the libraries in a fixed
    # order: a run's cost depends mostly on its library and size, so
    # the seed varies everything else and every seed's round costs about
    # the same.
    libraries = SCENARIO_LIBRARIES
    specs = []
    for r in range(rounds):
        for i, (kind, nranks, leaf) in enumerate(SCENARIO_ROUND):
            workload: dict = {"kind": kind}
            if kind == "pingpong":
                a = rng.randrange(leaf)
                b = rng.randrange(nranks - leaf, nranks)
                workload.update(ranks=[a, b],
                                sizes=[64, 1024, 8192, 32768, 131072])
            elif kind == "halo":
                workload.update(iterations=3, cells=64)
            else:
                workload.update(iterations=1,
                                message_bytes=rng.choice((8192, 16384)))
            tkind = traffic_kinds[(r + i) % 3]
            spec = {
                "name": f"{tag}-{seed}-{r}-{i}",
                "library": libraries[(r + i) % len(libraries)],
                "config": rng.choice(SCENARIO_CONFIGS),
                "nranks": nranks,
                "seed": rng.randrange(1, 1 << 16),
                "topology": {"kind": "two-tier", "leaf_size": leaf,
                             "uplink_capacity": 1},
                "workload": workload,
                "traffic": [_traffic(rng, tkind, nranks)],
            }
            if kind == "halo" or rng.random() < 0.3:
                hogs = sorted(rng.sample(range(nranks), max(1, nranks // 8)))
                spec["cpu"] = {"load": round(rng.uniform(0.2, 0.6), 3),
                               "ranks": hogs}
            specs.append(spec)
    return specs


# -- serve-openloop ----------------------------------------------------------

@dataclass(frozen=True)
class Arrival:
    due: float  # seconds after the phase starts
    line: str  # the JSON request line


def _zipf_weights(n: int, s: float = 1.1) -> list[float]:
    return [1.0 / (k ** s) for k in range(1, n + 1)]


def serve_keyspace(universe: list[dict]) -> list[dict]:
    """The (pair x tuned) query keys.

    MTU stays at the config default: the keys are what a user asks
    first, and speculation warms the MTU neighbours.
    """
    return [q for q in universe if "mtu" not in q]


def serve_split(seed: int, keys: list[dict],
                share: float) -> tuple[list[dict], list[dict]]:
    """(pre-filled, cold) keys: a seeded ``share`` starts on disk.

    The split is stratified by library, at least one cold key each: the
    cost of a cold miss depends mostly on the library, so every seed
    gets the same mix of cold-miss costs.
    """
    rng = random.Random(f"serve-prefill:{seed}")
    by_library: dict[str, list[dict]] = {}
    for k in keys:
        by_library.setdefault(k["library"], []).append(k)
    groups, cold = [], []
    for library in sorted(by_library):
        group = by_library[library]
        rng.shuffle(group)
        n_cold = max(1, len(group) - round(len(group) * share))
        cold.extend(group[:n_cold])
        groups.append(group[n_cold:])
    # Popularity order deals the libraries round-robin, in a seeded
    # order: a hot request's cost depends mostly on its library (the
    # fingerprint walk), so the most popular keys cover every library
    # and the latency median does not hinge on which library the seed
    # happens to make popular.
    rng.shuffle(groups)
    warm = [g[i] for i in range(max(map(len, groups)))
            for g in groups if i < len(g)]
    return warm, cold


def serve_arrivals(seed: int, warm_keys: list[dict], cold_keys: list[dict],
                   cold_share: float, rate: float, duration: float,
                   phase: str, scenario_pool: list[dict]) -> list[Arrival]:
    """Poisson arrivals at ``rate`` for ``duration`` seconds.

    Queries draw from a Zipf over the pre-filled ``warm_keys``; ~10%
    carry a ``compare_with`` partner on the same config and tuning; ~3%
    of requests are 16-rank ``scenario`` ops from a small pool (repeats
    hit the scenario hot tier).  On top, exactly ``cold_share`` of the
    requests, at seeded positions, are new questions: distinct
    ``cold_keys`` nobody asked before.  A fixed count keeps the
    cold-miss load the same for every seed; a Zipf over all keys would
    make it depend on where the seed puts the missing keys.
    """
    import json

    rng = random.Random(f"serve-arrivals:{seed}:{phase}:{rate}")
    weights = _zipf_weights(len(warm_keys))
    partners: dict[tuple, list[str]] = {}
    for k in warm_keys:
        partners.setdefault((k["config"], k.get("tuned")), []).append(
            k["library"])
    times = []
    t = rng.expovariate(rate)
    while t < duration:
        times.append(t)
        t += rng.expovariate(rate)
    n_cold = min(len(cold_keys), round(cold_share * len(times)))
    cold_at = dict(zip(sorted(rng.sample(range(len(times)), n_cold)),
                       rng.sample(cold_keys, n_cold)))
    out = []
    for i, t in enumerate(times):
        u = rng.random()
        if i in cold_at:
            line = json.dumps({"op": "query", "query": cold_at[i]})
        elif u < 0.03:
            spec = scenario_pool[rng.randrange(len(scenario_pool))]
            line = json.dumps({"op": "scenario", "spec": spec})
        else:
            query = dict(rng.choices(warm_keys, weights)[0])
            if u < 0.13:
                query["compare_with"] = rng.choice(sorted(
                    partners[(query["config"], query.get("tuned"))]))
            line = json.dumps({"op": "query", "query": query})
        out.append(Arrival(t, line))
    return out


def serve_scenario_pool(seed: int) -> list[dict]:
    """Four small 16-rank scenario specs the serve mix draws from."""
    rng = random.Random(f"serve-scenarios:{seed}")
    pool = []
    for i, kind in enumerate(("pingpong", "halo", "pingpong", "alltoall")):
        workload: dict = {"kind": kind}
        if kind == "pingpong":
            workload.update(ranks=[rng.randrange(8), rng.randrange(8, 16)],
                            sizes=[1024, 16384])
        elif kind == "halo":
            workload.update(iterations=2, cells=32)
        else:
            workload.update(iterations=1, message_bytes=4096)
        pool.append({
            "name": f"serve-{seed}-{i}",
            "library": rng.choice(SCENARIO_LIBRARIES),
            "config": rng.choice(SCENARIO_CONFIGS),
            "nranks": 16,
            "seed": rng.randrange(1, 1 << 16),
            "topology": {"kind": "two-tier", "leaf_size": 8},
            "workload": workload,
            "traffic": [{"kind": "constant",
                         "rate": round(rng.uniform(0.1, 0.3), 3)}],
        })
    return pool
