"""Drive verification across the REGISTRY+VARIANTS library universe.

For each library configuration this module: instantiates it, finds a
cluster config its transport accepts, discovers which endpoint class
its ``build`` produces, compiles that class's bounded model (once per
class, via :mod:`repro.verify.extract`), enumerates both legs' paths
at every probe size (±1 byte around each eager/rendezvous threshold),
and hands the path sets to :mod:`repro.verify.explore`.  Any
counterexample is immediately replayed on the event engine
(:mod:`repro.verify.replay`) so the emitted witness carries its
engine confirmation.

Verdicts are cached by content digest (:mod:`repro.verify.cache`):
a warm pass over the full universe does no model extraction, no
exploration, and no replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.sim import Engine
from repro.verify import cache as vcache
from repro.verify import replay as vreplay
from repro.verify.explore import (
    HOP_BOUND,
    Counterexample,
    verify_pairing,
)
from repro.verify.extract import EndpointModel, iter_endpoint_models
from repro.verify.model import (
    PathExplosion,
    SpecNotApplicable,
    enumerate_paths,
)

#: Largest probe size: deep in every library's rendezvous regime.
BIG_SIZE = 1 << 20

#: Cluster-config factories tried in order until the library's
#: transport accepts one (GM needs Myrinet, VIA needs Giganet/M-VIA).
_CONFIG_FACTORIES = (
    "pc_netgear_ga620",
    "pc_myrinet",
    "pc_giganet",
    "pc_syskonnect",
)


class _NoSpec:
    """Stand-in spec for libraries without one (raw GM passthrough)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<no spec>"


def sizes_for_spec(spec: object, extra: Iterable[int] = ()) -> tuple[int, ...]:
    """Probe sizes: regime interiors plus ±1 byte around thresholds."""
    sizes = {1, 1024, BIG_SIZE}
    threshold = getattr(spec, "eager_threshold", None)
    if isinstance(threshold, int) and threshold > 0:
        sizes.update((threshold - 1, threshold, threshold + 1))
    sizes.update(int(s) for s in extra)
    return tuple(sorted(s for s in sizes if s >= 1))


def default_config_for(lib):
    """First shipped cluster config the library's transport accepts."""
    from repro.experiments import configs as cfg_mod

    last_error: Exception | None = None
    for factory_name in _CONFIG_FACTORIES:
        config = getattr(cfg_mod, factory_name)()
        try:
            lib.build(Engine(), config)
        except ValueError as exc:
            last_error = exc
            continue
        return config
    raise ValueError(
        f"no shipped cluster config suits library "
        f"{getattr(lib, 'name', type(lib).__name__)!r}: {last_error}"
    )


def mplib_source_dir() -> Path:
    """Directory of the installed :mod:`repro.mplib` sources."""
    import repro.mplib

    return Path(repro.mplib.__file__).resolve().parent


def build_models(paths: Sequence[str | Path] | None = None,
                 ast_cache=None) -> dict[str, EndpointModel]:
    """Compile every endpoint model under ``paths`` (default: mplib)."""
    from repro.check.project import Project

    project = Project.from_paths(
        [mplib_source_dir()] if paths is None else paths, cache=ast_cache
    )
    return {m.name: m for m in iter_endpoint_models(project)}


@dataclass(frozen=True)
class LibraryVerdict:
    """Verification outcome for one library configuration."""

    library: str
    endpoint: str
    sizes: tuple[int, ...]
    path_pairs: int
    fault_runs: int
    expected_stuck: int
    counterexamples: tuple[Counterexample, ...] = ()
    witnesses: tuple[Counterexample, ...] = field(default=(), compare=False)
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "library": self.library,
            "endpoint": self.endpoint,
            "sizes": list(self.sizes),
            "path_pairs": self.path_pairs,
            "fault_runs": self.fault_runs,
            "expected_stuck": self.expected_stuck,
            "counterexamples": [c.to_dict() for c in self.counterexamples],
            "witnesses": [w.to_dict() for w in self.witnesses],
        }

    @classmethod
    def from_dict(cls, data: dict, from_cache: bool = False
                  ) -> "LibraryVerdict":
        return cls(
            library=data["library"],
            endpoint=data["endpoint"],
            sizes=tuple(data["sizes"]),
            path_pairs=int(data["path_pairs"]),
            fault_runs=int(data["fault_runs"]),
            expected_stuck=int(data["expected_stuck"]),
            counterexamples=tuple(
                Counterexample.from_dict(c)
                for c in data.get("counterexamples", ())
            ),
            witnesses=tuple(
                Counterexample.from_dict(w)
                for w in data.get("witnesses", ())
            ),
            from_cache=from_cache,
        )


def verify_library(
    name: str,
    lib,
    *,
    models: dict[str, EndpointModel],
    cache: vcache.VerdictCache | None = None,
    hop_bound: int = HOP_BOUND,
    check_faults: bool = True,
    with_replay: bool = True,
    extra_sizes: Iterable[int] = (),
) -> LibraryVerdict:
    """Verify one instantiated library configuration."""
    config = default_config_for(lib)
    endpoint = lib.build(Engine(), config)[0]
    endpoint_name = type(endpoint).__name__
    model = models.get(endpoint_name)
    if model is None:
        raise KeyError(
            f"no compiled model for endpoint class {endpoint_name!r} "
            f"(library {name!r}); is its source on the analyzed paths?"
        )

    spec = getattr(lib, "spec", None)
    spec_obj = _NoSpec() if spec is None else spec
    sizes = sizes_for_spec(spec_obj, extra_sizes)

    key = None
    if cache is not None:
        key = vcache.entry_key(
            name, spec, sizes, hop_bound, check_faults,
            with_replay=with_replay,
        )
        cached = cache.get(key)
        if cached is not None:
            return LibraryVerdict.from_dict(cached, from_cache=True)

    paths_by_size = {}
    explosion: Counterexample | None = None
    for size in sizes:
        try:
            paths_by_size[size] = (
                enumerate_paths(model.leg("send"), spec_obj, size),
                enumerate_paths(model.leg("recv"), spec_obj, size),
            )
        except SpecNotApplicable:
            # The library's own endpoint should always accept its own
            # spec; a mismatch means the model cannot vouch for it.
            raise RuntimeError(
                f"spec of library {name!r} is not applicable to its own "
                f"endpoint {endpoint_name!r} — model extraction is wrong"
            ) from None
        except PathExplosion as exc:
            explosion = Counterexample(
                prop="progress",
                endpoint=endpoint_name,
                library=name,
                size=size,
                message=f"model not exhaustively explorable: {exc}",
                anchors=((model.path, model.line, 1),),
                approx=True,
            )
            break

    if explosion is not None:
        verdict = LibraryVerdict(
            library=name,
            endpoint=endpoint_name,
            sizes=sizes,
            path_pairs=0,
            fault_runs=0,
            expected_stuck=0,
            counterexamples=(explosion,),
        )
    else:
        cexs, witnesses, stats = verify_pairing(
            endpoint_name,
            name,
            spec_obj,
            paths_by_size,
            hop_bound=hop_bound,
            check_faults=check_faults,
        )
        if with_replay and cexs:
            cexs = [
                replace(cex, replay=vreplay.confirm(cex, lib, config))
                for cex in cexs
            ]
        verdict = LibraryVerdict(
            library=name,
            endpoint=endpoint_name,
            sizes=sizes,
            path_pairs=stats.path_pairs,
            fault_runs=stats.fault_runs,
            expected_stuck=stats.expected_stuck,
            counterexamples=tuple(cexs),
            witnesses=tuple(witnesses),
        )

    if cache is not None and key is not None:
        # The compiled models are derived from mplib/verify/check
        # sources, which VerdictCache's generation salt already
        # digests — they are code, not a runtime input.
        # repro: allow[fp-unsalted-input] models are covered by the generation salt
        cache.put(key, verdict.to_dict())
    return verdict


@dataclass(frozen=True)
class UniverseReport:
    """Aggregate outcome of one verify pass."""

    verdicts: tuple[LibraryVerdict, ...]
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def counterexamples(self) -> tuple[Counterexample, ...]:
        return tuple(
            cex for v in self.verdicts for cex in v.counterexamples
        )

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def universe_factories(
    names: Iterable[str] | None = None,
) -> list[tuple[str, Callable[[], object]]]:
    """(name, factory) for the requested (default: all) libraries."""
    from repro.mplib.registry import REGISTRY, VARIANTS

    combined: dict[str, Callable[[], object]] = {**REGISTRY, **VARIANTS}
    if names is None:
        return sorted(combined.items())
    out = []
    for name in names:
        if name not in combined:
            known = ", ".join(sorted(combined))
            raise KeyError(f"unknown library {name!r}; known: {known}")
        out.append((name, combined[name]))
    return out


def verify_universe(
    names: Iterable[str] | None = None,
    *,
    cache_dir: str | Path | None = None,
    hop_bound: int = HOP_BOUND,
    check_faults: bool = True,
    with_replay: bool = True,
    extra_sizes: Iterable[int] = (),
    models: dict[str, EndpointModel] | None = None,
) -> UniverseReport:
    """Verify every (or the named) REGISTRY+VARIANTS configuration."""
    factories = universe_factories(names)
    cache = (
        vcache.VerdictCache(cache_dir) if cache_dir is not None else None
    )
    if models is None:
        models = build_models()
    verdicts = []
    for name, factory in factories:
        verdicts.append(verify_library(
            name,
            factory(),
            models=models,
            cache=cache,
            hop_bound=hop_bound,
            check_faults=check_faults,
            with_replay=with_replay,
            extra_sizes=extra_sizes,
        ))
    return UniverseReport(
        verdicts=tuple(verdicts),
        cache_hits=cache.hits if cache else 0,
        cache_misses=cache.misses if cache else 0,
    )
