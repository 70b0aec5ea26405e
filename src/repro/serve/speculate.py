"""Speculative precomputation: warm the answers the client asks next.

Anyone asking "what does MPICH do on this NIC at MTU 1500?" is about
to ask about jumbo frames, or about the tuned sysctl profile — that is
the whole shape of the paper's tuning study.  After the serving core
computes a query, it enqueues the query's *neighbors* — same library
and config with one tunable nudged — onto a bounded background queue,
so the follow-up question is a hot-cache hit.  One worker task drains
the queue through the same admission gate and compute threads as
foreground queries.  It has no lower priority: on a busy core it
competes with foreground compute.

:func:`neighbor_queries` is pure and deterministic: the neighbor set
depends only on the query and the NIC's capabilities, never on load or
timing, so tests can assert exactly what gets warmed.
"""

from __future__ import annotations

from repro.experiments.names import build_config
from repro.serve.api import ServeQuery

#: The MTU ladder speculation climbs: the standard Ethernet frame, the
#: Alteon "half-jumbo" step, and full jumbo — the three settings the
#: paper's tuning study actually measures.
MTU_LADDER = (1500, 4000, 9000)


def neighbor_queries(query: ServeQuery, depth: int = 3) -> list[ServeQuery]:
    """The most likely follow-up queries, best first, at most ``depth``.

    Neighbors are one-tunable nudges of ``query``:

    * the sysctl tuning profile toggled (tuned ↔ untuned);
    * each :data:`MTU_LADDER` step the NIC supports, other than the
      MTU the query already uses.

    A query that fails to resolve has no neighbors — speculation must
    never surface an error for a question nobody asked.
    """
    try:
        config = build_config(query.config, query.tuned, query.mtu)
    except Exception:
        return []
    neighbors: list[ServeQuery] = []

    # Tuning toggle first: it is the cheapest nudge and the paper's
    # headline comparison.  `tuned=None` means "factory default", which
    # every shipped config leaves untuned — so the interesting
    # neighbor is the tuned profile.
    current_tuned = query.tuned if query.tuned is not None else False
    neighbors.append(query.replace_tunables(tuned=not current_tuned))

    for mtu in MTU_LADDER:
        if mtu == config.effective_mtu or mtu > config.nic.mtu_max:
            continue
        neighbors.append(query.replace_tunables(mtu=mtu))

    return neighbors[: max(0, depth)]
