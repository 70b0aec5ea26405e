"""Scenario specifications: a whole cluster run phrased as data.

Following the config-driven design of jsommers/fs — topology, flows and
traffic generators specified declaratively, the harness synthesized
from the spec — a :class:`ScenarioSpec` names everything a run needs:
the library protocol model, the cluster hardware config, the switch
topology, the foreground workload, background traffic generators, CPU
contention on host ranks, and an optional fault plan.

The schema is the dataclasses themselves: one codec (:func:`decode`,
:func:`encode`) reads each class's fields, defaults and annotations.
Specs load from TOML (Python 3.11+) or JSON, round-trip through
:meth:`ScenarioSpec.to_jsonable` / :meth:`ScenarioSpec.from_jsonable`
without loss, and validate with *path-addressed* errors: a bad rate in
the second traffic block reports ``traffic[1].rate``, not a stack
trace into a dataclass constructor.

Every spec has a SHA-256 :meth:`~ScenarioSpec.fingerprint` folding the
derived :func:`~repro.exec.fingerprint.code_salt` plus a scenario salt
over the packages whose code shapes an N-rank run (fabric, cluster,
collectives, apps, faults, the config factories in experiments, and
scenario itself) — so scenario results are content-addressed and
cache-safe exactly like sweep curves: any edit to the spec *or* to the
timing code yields a cold fingerprint.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import typing
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import Any, Callable

try:  # tomllib shipped with Python 3.11; 3.10 gets JSON only
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - exercised on 3.10 CI
    tomllib = None  # type: ignore[assignment]

from repro.exec.fingerprint import canonicalize, code_salt, source_digest
from repro.experiments import names

#: Version prefix of the scenario fingerprint salt; bump only on a
#: semantic break in the result/entry format itself.
SCENARIO_SALT = "repro-scenario-v1"

#: Sub-packages of ``repro`` whose source content shapes an N-rank
#: scenario's timings, beyond the two-node packages already covered by
#: :func:`~repro.exec.fingerprint.code_salt`.  ``experiments`` holds
#: the config factories a spec names, and the resolver that applies its
#: tunables.
SCENARIO_SALT_PACKAGES = (
    "fabric", "cluster", "collectives", "apps", "faults", "experiments",
    "scenario",
)

#: The recognised generator kinds (see :mod:`repro.scenario.traffic`).
TRAFFIC_KINDS = ("constant", "onoff", "alltoall")
#: The recognised foreground workload kinds.
WORKLOAD_KINDS = ("pingpong", "halo", "alltoall")
#: Switch topology kinds (:mod:`repro.fabric.topology`).
TOPOLOGY_KINDS = ("crossbar", "two-tier")
#: Injectable fault kinds for the scenario path.  ``hang`` is excluded:
#: it blocks on real time, which a deterministic scenario run never
#: does (the exec tier keeps it for worker-timeout testing).
FAULT_KINDS = ("raise", "corrupt", "crash")

#: Fabric message tag background traffic travels under.  Every library
#: protocol receive filters on its own tags (``rts``/``cts``/``data``),
#: so background messages are invisible to the workload except through
#: the port contention they cause — which is the point.
BACKGROUND_TAG = "bg"


class SpecError(ValueError):
    """A scenario spec problem, addressed by its dotted field path.

    ``path`` walks from the spec root through nested blocks and list
    indices — ``traffic[1].rate``, ``workload.ranks`` — so the message
    points at the exact TOML/JSON field to fix.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


# -- the codec ---------------------------------------------------------------
def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


#: Scalar annotation -> (accepted types, noun for the error message).
#: ``bool`` is an ``int`` subclass, so only a ``bool`` field accepts one.
_SCALARS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    bool: ((bool,), "a boolean"),
}


def _decoder(tp: Any) -> Callable[[Any, str], Any]:
    """A ``(value, path) -> value`` checker for one resolved annotation."""
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        inner = _decoder(next(a for a in args if a is not type(None)))
        return lambda value, path: (
            None if value is None else inner(value, path))
    if typing.get_origin(tp) is tuple:  # tuple[X, ...]
        item = _decoder(args[0])
        block = dataclasses.is_dataclass(args[0])

        def sequence(value: Any, path: str) -> tuple:
            if not isinstance(value, (list, tuple)) or not (value or block):
                raise SpecError(path, "expected an array of tables" if block
                                else "expected a non-empty list")
            return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))

        return sequence
    if dataclasses.is_dataclass(tp):
        return lambda value, path: decode(tp, value, path)
    accepted, noun = _SCALARS[tp]

    def scalar(value: Any, path: str) -> Any:
        if not isinstance(value, accepted) or (
                isinstance(value, bool) and tp is not bool):
            raise SpecError(path, f"expected {noun}, got {value!r}")
        return tp(value)

    return scalar


@functools.lru_cache(maxsize=None)
def _schema(cls: type) -> tuple[dict, dict, tuple[str, ...]]:
    """``(decoders, defaults, required)`` of one spec class, built once.

    ``decoders`` and ``defaults`` map each field in declaration order;
    ``required`` names the fields with no default.
    """
    hints = typing.get_type_hints(cls)
    decoders, defaults = {}, {}
    for f in dataclasses.fields(cls):
        decoders[f.name] = _decoder(hints[f.name])
        defaults[f.name] = (f.default_factory() if f.default_factory
                            is not MISSING else f.default)
    required = tuple(n for n, d in defaults.items() if d is MISSING)
    return decoders, defaults, required


def decode(cls: type, data: Any, path: str = "") -> Any:
    """Build ``cls`` from its TOML/JSON shape.

    Rejects unknown fields and missing required ones (fields with no
    default); type errors name the field path, list items included
    (``workload.sizes[1]``, ``traffic[1].rate``).  Semantic checks are
    each class's ``validate``.
    """
    if not isinstance(data, (dict, Mapping)):  # dict: skip the ABC check
        raise SpecError(path or "spec", "expected a table/object")
    decoders, _, required = _schema(cls)
    if not data.keys() <= decoders.keys():
        raise SpecError(_join(path, min(data.keys() - decoders.keys())),
                        f"unknown field (known: {', '.join(decoders)})")
    for name in required:
        if name not in data:
            raise SpecError(_join(path, name), "required field is missing")
    return cls(**{name: decoders[name](value, _join(path, name))
                  for name, value in data.items()})


def encode(obj: Any) -> dict[str, Any]:
    """The wire form of a spec object: every field that differs from
    its default, so :func:`decode` rebuilds an equal object."""
    out = {}
    for name, default in _schema(type(obj))[1].items():
        value = getattr(obj, name)
        if value != default:
            out[name] = _wire(value)
    return out


def _wire(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return encode(value)
    if isinstance(value, tuple):
        return [_wire(v) for v in value]
    return value


def _check_ranks(ranks: tuple[int, ...] | None, nranks: int,
                 path: str) -> None:
    """``<path>.ranks`` lie in ``[0, nranks)`` and name no rank twice."""
    if ranks is None:
        return
    for i, rank in enumerate(ranks):
        if not 0 <= rank < nranks:
            raise SpecError(f"{path}.ranks[{i}]",
                            f"rank {rank} out of range for nranks={nranks}")
    if len(set(ranks)) != len(ranks):
        raise SpecError(f"{path}.ranks", "ranks must be distinct")


@dataclass(frozen=True)
class TopologySpec:
    """The switch fabric: a crossbar, or a two-tier leaf/spine tree.

    ``leaf_size``/``uplink_capacity``/``uplink_latency`` only matter
    for ``kind="two-tier"`` (see
    :class:`repro.fabric.topology.TwoTierTree`).
    """

    kind: str = "crossbar"
    leaf_size: int = 8
    uplink_capacity: int = 1
    uplink_latency: float = 1e-6

    def validate(self, path: str = "topology") -> None:
        """Check this block; raises :class:`SpecError` with paths."""
        if self.kind not in TOPOLOGY_KINDS:
            raise SpecError(f"{path}.kind",
                            f"expected one of {TOPOLOGY_KINDS}, "
                            f"got {self.kind!r}")
        if self.leaf_size < 1:
            raise SpecError(f"{path}.leaf_size", "must be >= 1")
        if self.uplink_capacity < 1:
            raise SpecError(f"{path}.uplink_capacity", "must be >= 1")
        if self.uplink_latency < 0:
            raise SpecError(f"{path}.uplink_latency", "must be >= 0")

    def build(self):
        """The :mod:`repro.fabric.topology` object this block names,
        or ``None`` for the default crossbar."""
        if self.kind == "crossbar":
            return None
        from repro.fabric.topology import TwoTierTree

        return TwoTierTree(
            leaf_size=self.leaf_size,
            uplink_capacity=self.uplink_capacity,
            uplink_latency=self.uplink_latency,
        )



@dataclass(frozen=True)
class WorkloadSpec:
    """The foreground job whose performance the scenario measures.

    * ``pingpong`` — a NetPIPE curve between ``ranks`` (default: rank 0
      and the last rank) over the shared fabric; ``sizes`` (None = the
      full NetPIPE schedule) and ``repeats`` behave as in the figures.
    * ``halo`` — the 2-D stencil halo exchange on every rank
      (``iterations`` sweeps on a ``cells`` x ``cells`` local grid);
      the kind that exercises compute/communication overlap, and the
      one CPU contention stretches.
    * ``alltoall`` — ``iterations`` rounds of the pairwise-exchange
      collective moving ``message_bytes`` per pair.
    """

    kind: str = "pingpong"
    ranks: tuple[int, ...] | None = None
    sizes: tuple[int, ...] | None = None
    repeats: int = 1
    iterations: int = 5
    cells: int = 64
    message_bytes: int = 65536

    def validate(self, nranks: int, path: str = "workload") -> None:
        """Check this block against the world size."""
        if self.kind not in WORKLOAD_KINDS:
            raise SpecError(f"{path}.kind",
                            f"expected one of {WORKLOAD_KINDS}, "
                            f"got {self.kind!r}")
        _check_ranks(self.ranks, nranks, path)
        if self.kind == "pingpong":
            if self.ranks is not None and len(self.ranks) != 2:
                raise SpecError(f"{path}.ranks",
                                "pingpong needs exactly two ranks")
        if self.sizes is not None:
            for i, size in enumerate(self.sizes):
                if size < 1:
                    raise SpecError(f"{path}.sizes[{i}]",
                                    f"message size must be >= 1, got {size}")
        if self.repeats < 1:
            raise SpecError(f"{path}.repeats", "must be >= 1")
        if self.iterations < 1:
            raise SpecError(f"{path}.iterations", "must be >= 1")
        if self.cells < 1:
            raise SpecError(f"{path}.cells", "must be >= 1")
        if self.message_bytes < 1:
            raise SpecError(f"{path}.message_bytes", "must be >= 1")

    def pair(self, nranks: int) -> tuple[int, int]:
        """The (a, b) ping-pong ranks (defaults to the diameter pair)."""
        if self.ranks is not None:
            return self.ranks[0], self.ranks[1]
        return 0, nranks - 1



@dataclass(frozen=True)
class TrafficSpec:
    """One background traffic generator (see
    :mod:`repro.scenario.traffic`).

    ``rate`` is the fraction of each participating rank's TX port
    bandwidth the generator offers, in ``(0, 1]``; ``ranks`` limits
    the participating sources (default: every rank).  ``on_seconds`` /
    ``off_seconds`` shape the ``onoff`` burst cycle.
    """

    kind: str = "constant"
    rate: float = 0.1
    message_bytes: int = 65536
    ranks: tuple[int, ...] | None = None
    on_seconds: float = 0.002
    off_seconds: float = 0.002

    def validate(self, nranks: int, path: str = "traffic") -> None:
        """Check this block against the world size."""
        if self.kind not in TRAFFIC_KINDS:
            raise SpecError(f"{path}.kind",
                            f"expected one of {TRAFFIC_KINDS}, "
                            f"got {self.kind!r}")
        if not 0.0 < self.rate <= 1.0:
            raise SpecError(f"{path}.rate",
                            f"must be in (0, 1], got {self.rate!r}")
        if self.message_bytes < 1:
            raise SpecError(f"{path}.message_bytes", "must be >= 1")
        _check_ranks(self.ranks, nranks, path)
        participants = (
            len(self.ranks) if self.ranks is not None else nranks
        )
        if self.kind == "alltoall" and participants < 2:
            raise SpecError(f"{path}.ranks",
                            "alltoall traffic needs at least 2 "
                            "participating ranks")
        if self.kind == "onoff":
            if self.on_seconds <= 0:
                raise SpecError(f"{path}.on_seconds", "must be > 0")
            if self.off_seconds <= 0:
                raise SpecError(f"{path}.off_seconds", "must be > 0")



@dataclass(frozen=True)
class CpuSpec:
    """Background CPU contention on host ranks.

    A co-scheduled hog steals ``load`` of each affected rank's CPU, so
    application compute phases stretch by ``1 / (1 - load)`` — the
    classic time-shared-cluster tax.  It only bites workloads that
    *have* compute phases (``halo``); pure communication is bounded by
    the wire, not the hog.
    """

    load: float = 0.5
    ranks: tuple[int, ...] | None = None

    def validate(self, nranks: int, path: str = "cpu") -> None:
        """Check this block against the world size."""
        if not 0.0 < self.load < 1.0:
            raise SpecError(f"{path}.load",
                            f"must be in (0, 1), got {self.load!r}")
        _check_ranks(self.ranks, nranks, path)

    def dilation(self) -> float:
        """The compute-stretch factor ``1 / (1 - load)``."""
        return 1.0 / (1.0 - self.load)



@dataclass(frozen=True)
class FaultEntry:
    """One injected failure window on the scenario's execution path.

    Maps onto a :class:`repro.faults.plan.FaultSpec` keyed by the
    scenario name: ``kind`` fails the first ``times`` attempts, after
    which the run comes back clean — the chaos tests assert the
    recovered result is bit-identical to a fault-free run.
    """

    kind: str = "raise"
    times: int = 1

    def validate(self, path: str = "faults") -> None:
        """Check this entry."""
        if self.kind not in FAULT_KINDS:
            raise SpecError(f"{path}.kind",
                            f"expected one of {FAULT_KINDS}, "
                            f"got {self.kind!r}")
        if self.times < 1:
            raise SpecError(f"{path}.times", "must be >= 1")

@dataclass(frozen=True)
class ScenarioSpec:
    """One named, fingerprintable whole-cluster scenario.

    The composition root: library x config x topology x workload x
    background traffic x CPU contention x faults, all as plain data.
    ``seed`` drives every deterministic pseudo-random choice the
    traffic generators make.
    """

    name: str
    library: str
    config: str = "pc_netgear_ga620"
    description: str = ""
    nranks: int = 2
    mtu: int | None = None
    tuned: bool | None = None
    seed: int = 1
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    traffic: tuple[TrafficSpec, ...] = ()
    cpu: CpuSpec | None = None
    faults: tuple[FaultEntry, ...] = ()

    # -- validation ----------------------------------------------------------
    def validate(self) -> None:
        """Full semantic validation; raises :class:`SpecError`.

        Field-shape problems are caught by :meth:`from_jsonable`; this
        checks cross-field semantics (rank ranges, known library and
        config names) so directly-constructed specs get the same
        guarantees as loaded ones.
        """
        if not self.name:
            raise SpecError("name", "required field is missing or empty")
        if self.nranks < 2:
            raise SpecError("nranks", f"must be >= 2, got {self.nranks}")
        if self.seed < 0:
            raise SpecError("seed", "must be >= 0")
        try:
            names.library_factory(self.library)
            names.check_config(self.config)
        except names.ResolveError as exc:
            raise SpecError(exc.field, exc.message)
        self.topology.validate("topology")
        self.workload.validate(self.nranks, "workload")
        for i, entry in enumerate(self.traffic):
            entry.validate(self.nranks, f"traffic[{i}]")
        if self.cpu is not None:
            self.cpu.validate(self.nranks, "cpu")
        for i, entry in enumerate(self.faults):
            entry.validate(f"faults[{i}]")

    # -- derived views -------------------------------------------------------
    def is_quiet(self) -> bool:
        """True when nothing competes with the workload at runtime (no
        background traffic, no CPU hog).

        Faults are deliberately *not* part of quietness: they live on
        the execution harness (failed attempts, retries), never inside
        the engine run, so a faulted spec still follows the same
        simulation path as its clean twin — which is what lets the
        chaos tests assert bit-identical recovery.
        """
        return not self.traffic and self.cpu is None

    def quiet(self) -> "ScenarioSpec":
        """The quiet-network twin: same workload, zero interference.

        This is the baseline the slowdown metric is measured against;
        it shares the fingerprint of the identical spec a user would
        write by hand, so the baseline is computed (and cached) once.
        """
        return dataclasses.replace(self, traffic=(), cpu=None, faults=())

    def is_two_node_baseline(self) -> bool:
        """True when this degenerates to the figures' two-node path.

        A quiet 2-rank crossbar ping-pong is *exactly* the two-node
        measurement the paper's figures run, so the composer routes it
        through the identical ``library.build`` + ``measure_sweep``
        code path — making the curve bit-identical to
        :func:`repro.exec.execute_sweeps` for the same request.
        """
        return (
            self.is_quiet()
            and self.nranks == 2
            and self.topology.kind == "crossbar"
            and self.workload.kind == "pingpong"
            and self.workload.pair(self.nranks) == (0, 1)
        )

    # -- fingerprints --------------------------------------------------------
    def fingerprint(self) -> str:
        """Hex digest identifying this scenario's full input state.

        Folds :func:`~repro.exec.fingerprint.code_salt` (the two-node
        timing packages) and :func:`scenario_salt` (the N-rank
        packages), then the canonical form of every field — so any
        spec edit, and any edit to the code that shapes the run,
        produces a cold fingerprint.
        """
        payload = "|".join(
            (code_salt(), scenario_salt(), canonicalize(self))
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- wire form -----------------------------------------------------------
    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Parse the TOML/JSON shape (see :func:`decode`), then
        :meth:`validate` it, so a parsed spec is always runnable."""
        spec = decode(cls, data)
        spec.validate()
        return spec

    def to_jsonable(self) -> dict[str, Any]:
        """The wire form (see :func:`encode`); round-trips losslessly."""
        return encode(self)


@functools.lru_cache(maxsize=None)
def scenario_salt() -> str:
    """The derived N-rank code salt folded into scenario fingerprints.

    ``<SCENARIO_SALT>+<first 16 hex of the source digest>`` over
    :data:`SCENARIO_SALT_PACKAGES`, or the plain prefix when sources
    are unavailable (frozen installs).  Cached for the process
    lifetime, like :func:`~repro.exec.fingerprint.code_salt`.
    """
    digest = source_digest(packages=SCENARIO_SALT_PACKAGES)
    return f"{SCENARIO_SALT}+{digest[:16]}" if digest else SCENARIO_SALT


# -- loading and dumping -----------------------------------------------------
def parse_spec(text: str, fmt: str = "json",
               source: str = "<string>") -> ScenarioSpec:
    """Parse spec ``text`` in ``fmt`` (``"json"`` or ``"toml"``).

    Syntax errors surface as :class:`SpecError` with the source name
    as the path, so CLI and service callers get one error type.
    """
    if fmt == "toml":
        if tomllib is None:  # pragma: no cover - py3.10 only
            raise SpecError(
                source,
                "TOML specs need Python 3.11+ (tomllib); "
                "convert the spec to JSON or upgrade",
            )
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError(source, f"TOML syntax error: {exc}")
    elif fmt == "json":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SpecError(source, f"JSON syntax error: {exc}")
    else:
        raise SpecError(source, f"unknown spec format {fmt!r}; "
                                "expected 'toml' or 'json'")
    return ScenarioSpec.from_jsonable(data)


def load_spec(path: str | Path) -> ScenarioSpec:
    """Load a ``.toml`` or ``.json`` scenario spec file."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix not in (".toml", ".json"):
        raise SpecError(str(path),
                        f"unknown spec extension {suffix!r}; "
                        "expected .toml or .json")
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecError(str(path), f"cannot read spec file: {exc}")
    return parse_spec(text, fmt=suffix[1:], source=str(path))
