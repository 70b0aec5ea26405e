"""The serving layer's wire surface: queries, responses, typed errors.

A :class:`ServeQuery` is a *design question* phrased as data — which
library, which NIC/cluster config, which tunables — exactly the
"what should I buy / how should I tune it" decision the paper's curves
exist to answer.  :meth:`ServeQuery.resolve` turns it into the
:class:`~repro.exec.SweepRequest` the executor understands, validating
every field into a typed :class:`BadRequestError` instead of a stack
trace, because these arrive from the network.

A :class:`ServeResponse` carries the curve plus everything the client
usually derives next: headline metrics, the crossover against a second
library (who wins at which message size), and the price/performance
block built from the paper's own hardware prices.  Responses
round-trip through JSON with the float times preserved exactly
(``repr`` round-trip), so a served curve is bit-identical to the
simulation that produced it.

Everything here is pure data transformation — no sockets, no clocks;
the I/O lives in :mod:`repro.serve.frontend`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.io import result_from_dict, result_to_dict
from repro.core.results import NetPipeResult
from repro.exec.scheduler import SweepRequest
from repro.experiments import names
from repro.experiments.names import config_names  # re-exported
from repro.hw.cluster import ClusterConfig

#: Where one answer came from, cheapest first.
SOURCES = ("hot", "coalesced", "disk", "computed")


class ServeError(Exception):
    """Base class for every error the serving layer answers with.

    ``kind`` is the stable machine-readable discriminator clients
    switch on; :meth:`to_jsonable` is the wire shape.
    """

    kind = "error"

    def to_jsonable(self) -> dict[str, Any]:
        """The JSON error document the front end sends back."""
        return {"kind": self.kind, "detail": str(self)}


class BadRequestError(ServeError):
    """The query itself is malformed: unknown name, invalid tunable."""

    kind = "bad-request"


class OverloadedError(ServeError):
    """Load shed: the core is at its admission limit, try again later.

    Raised *instead of queueing* once ``pending`` in-flight requests
    reach the configured limit — the bounded-memory guarantee under a
    thundering herd of distinct fingerprints.  Joining an already
    in-flight fingerprint is never shed (coalescing adds no load).
    """

    kind = "overloaded"

    def __init__(self, pending: int, limit: int):
        super().__init__(
            f"serving core is at its admission limit "
            f"({pending}/{limit} requests in flight); retry later"
        )
        self.pending = pending
        self.limit = limit

    def to_jsonable(self) -> dict[str, Any]:
        """Error document plus the load figures clients back off on."""
        out = super().to_jsonable()
        out["pending"] = self.pending
        out["limit"] = self.limit
        return out


@dataclass(frozen=True)
class ServeQuery:
    """One what-if question: library × config × tunables → curve.

    :param library: registry (or variant) name, e.g. ``"mpich"``.
    :param config: cluster-config factory name from
        :mod:`repro.experiments.configs`, e.g. ``"pc_netgear_ga620"``.
    :param mtu: override the configured MTU (validated against the NIC).
    :param tuned: force the paper's sysctl tuning on (True) or off
        (False); ``None`` keeps the factory's default.
    :param sizes: explicit message-size schedule (None = full NetPIPE).
    :param repeats: averaging repeats per size.
    :param tier: per-query tier override (``sim``/``analytic``/``auto``);
        ``None`` uses the service policy.
    :param compare_with: second library name; the response then carries
        the crossover sizes between the two curves.
    :param nodes: cluster size the cost block is priced for.
    """

    library: str
    config: str = "pc_netgear_ga620"
    mtu: int | None = None
    tuned: bool | None = None
    sizes: tuple[int, ...] | None = None
    repeats: int = 1
    tier: str | None = None
    compare_with: str | None = None
    nodes: int = 2

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise BadRequestError("repeats must be >= 1")
        if self.nodes < 2:
            raise BadRequestError("nodes must be >= 2")
        if self.sizes is not None:
            if not isinstance(self.sizes, tuple):
                object.__setattr__(self, "sizes", tuple(self.sizes))
            if not self.sizes or any(
                not isinstance(s, int) or s < 1 for s in self.sizes
            ):
                raise BadRequestError(
                    "sizes must be a non-empty list of positive integers"
                )

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "ServeQuery":
        """Parse the wire form, rejecting unknown fields loudly."""
        if not isinstance(data, Mapping):
            raise BadRequestError("query must be a JSON object")
        if "library" not in data:
            raise BadRequestError("query is missing 'library'")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise BadRequestError(
                f"unknown query field(s): {', '.join(sorted(unknown))}"
            )
        kwargs = dict(data)
        if kwargs.get("sizes") is not None:
            kwargs["sizes"] = tuple(kwargs["sizes"])
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise BadRequestError(f"malformed query: {exc}")

    def to_jsonable(self) -> dict[str, Any]:
        """The wire form (defaults elided)."""
        out: dict[str, Any] = {"library": self.library, "config": self.config}
        for name in ("mtu", "tuned", "tier", "compare_with"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.sizes is not None:
            out["sizes"] = list(self.sizes)
        if self.repeats != 1:
            out["repeats"] = self.repeats
        if self.nodes != 2:
            out["nodes"] = self.nodes
        return out

    def resolve(self) -> SweepRequest:
        """The executor request this query describes.

        The label is the library name — that is what fault plans and
        report lines key on.
        """
        try:
            library = names.library_factory(self.library)()
            config = names.build_config(self.config, self.tuned, self.mtu)
        except names.ResolveError as exc:
            raise BadRequestError(exc.message)
        try:
            return SweepRequest(
                label=self.library,
                library=library,
                config=config,
                sizes=self.sizes,
                repeats=self.repeats,
            )
        except ValueError as exc:
            raise BadRequestError(str(exc))

    def replace_tunables(self, mtu: int | None = None,
                         tuned: bool | None = None) -> "ServeQuery":
        """A copy with one tunable nudged (a speculation neighbor).

        Unspecified tunables keep their current value; ``compare_with``
        and ``nodes`` are dropped — neighbors warm *curves*, and the
        derived blocks are computed per-response from cached curves.
        """
        return ServeQuery(
            library=self.library,
            config=self.config,
            mtu=self.mtu if mtu is None else mtu,
            tuned=self.tuned if tuned is None else tuned,
            sizes=self.sizes,
            repeats=self.repeats,
            tier=self.tier,
        )

    def companion(self, library: str) -> "ServeQuery":
        """The same question asked of another library (for crossover)."""
        return ServeQuery(
            library=library,
            config=self.config,
            mtu=self.mtu,
            tuned=self.tuned,
            sizes=self.sizes,
            repeats=self.repeats,
            tier=self.tier,
        )


def curve_metrics(result: NetPipeResult) -> dict[str, Any]:
    """The headline numbers clients would otherwise derive themselves.

    ``latency_us`` needs a sub-64-byte point; a custom ``sizes``
    schedule without one gets ``null`` there, not a dropped connection.
    """
    try:
        latency_us = result.latency_us
    except ValueError:
        latency_us = None
    return {
        "latency_us": latency_us,
        "max_mbps": result.max_mbps,
        "plateau_mbps": result.plateau_mbps,
        "half_bandwidth_size": result.half_bandwidth_size(),
    }


def cost_block(config: ClusterConfig, max_mbps: float,
               nodes: int) -> dict[str, Any]:
    """Price/performance for ``nodes`` nodes of this interconnect.

    ``max_mbps`` is the curve's peak throughput — the ``max_mbps`` of
    its :func:`curve_metrics`, which the serving core keeps with the
    curve rather than rescanning it per answer.
    """
    from repro.analysis.cost import cluster_bill

    switched = (not config.back_to_back) or nodes > 2
    bill = cluster_bill(config.nic, nodes, switched=switched)
    interconnect = bill.interconnect_total
    return {
        "nodes": nodes,
        "total_usd": bill.total,
        "interconnect_usd": interconnect,
        "interconnect_fraction": bill.interconnect_fraction,
        "mbps_per_interconnect_kusd": (
            max_mbps / (interconnect / 1000.0) if interconnect else None
        ),
    }


@dataclass(frozen=True)
class ServeResponse:
    """One answered query: the curve plus its provenance and analysis.

    ``source`` says which tier answered (:data:`SOURCES`); ``tier``
    which *execution* tier computed the curve originally.  ``timing``
    carries the wall-clock queue-wait and compute seconds for computed
    answers (zeros for hot hits — there is nothing to wait for).
    """

    query: ServeQuery
    result: NetPipeResult
    fingerprint: str
    tier: str
    source: str
    metrics: Mapping[str, Any]
    crossover: Mapping[str, Any] | None = None
    cost: Mapping[str, Any] | None = None
    timing: Mapping[str, float] = field(default_factory=dict)

    def to_jsonable(self) -> dict[str, Any]:
        """The JSON document the front end sends back."""
        out: dict[str, Any] = {
            "query": self.query.to_jsonable(),
            "fingerprint": self.fingerprint,
            "tier": self.tier,
            "source": self.source,
            "curve": result_to_dict(self.result),
            "metrics": dict(self.metrics),
            "timing": dict(self.timing),
        }
        if self.crossover is not None:
            out["crossover"] = dict(self.crossover)
        if self.cost is not None:
            out["cost"] = dict(self.cost)
        return out

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "ServeResponse":
        """Parse a served answer back into objects (client-side use)."""
        return cls(
            query=ServeQuery.from_jsonable(data["query"]),
            result=result_from_dict(data["curve"]),
            fingerprint=data["fingerprint"],
            tier=data["tier"],
            source=data["source"],
            metrics=dict(data.get("metrics", {})),
            crossover=(
                dict(data["crossover"]) if "crossover" in data else None
            ),
            cost=dict(data["cost"]) if "cost" in data else None,
            timing=dict(data.get("timing", {})),
        )
