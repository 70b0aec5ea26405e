"""Name resolution shared by scenario specs and serve queries.

Both a :class:`~repro.scenario.spec.ScenarioSpec` and a
:class:`~repro.serve.api.ServeQuery` name a library (a
:data:`~repro.mplib.registry.REGISTRY` or
:data:`~repro.mplib.registry.VARIANTS` key), a cluster config (a
factory in :mod:`repro.experiments.configs`) and the ``tuned``/``mtu``
tunables.  This module resolves those names for both.  A failure is a
:class:`ResolveError` naming the offending field, which each caller
turns into its own error type.
"""

from __future__ import annotations

import functools
from typing import Callable

from repro.hw.cluster import DEFAULT_SYSCTL, TUNED_SYSCTL, ClusterConfig


class ResolveError(ValueError):
    """A name or tunable that does not resolve.

    ``field`` is ``"library"``, ``"config"`` or ``"mtu"``.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(message)


@functools.lru_cache(maxsize=None)
def config_names() -> tuple[str, ...]:
    """The cluster-config factory names a spec or query may reference."""
    from repro.experiments import configs

    return tuple(sorted(
        name
        for name in dir(configs)
        if not name.startswith("_")
        and callable(getattr(configs, name))
        and getattr(getattr(configs, name), "__module__", "")
        == configs.__name__
    ))


def library_factory(name: str) -> Callable:
    """The factory of the library ``name`` (registry or variants)."""
    from repro.mplib.registry import REGISTRY, VARIANTS

    factory = REGISTRY.get(name) or VARIANTS.get(name)
    if factory is None:
        known = ", ".join(sorted([*REGISTRY, *VARIANTS]))
        raise ResolveError("library",
                           f"unknown library {name!r}; known: {known}")
    return factory


def check_config(name: str) -> None:
    """Raise :class:`ResolveError` unless ``name`` is a config factory."""
    if name not in config_names():
        raise ResolveError("config",
                           f"unknown config {name!r}; known: "
                           f"{', '.join(config_names())}")


def build_config(name: str, tuned: bool | None = None,
                 mtu: int | None = None) -> ClusterConfig:
    """The config ``name`` builds, with the tunables applied.

    ``tuned`` forces the paper's sysctl tuning on or off (``None`` keeps
    the factory default); ``mtu`` overrides the configured MTU.
    """
    check_config(name)
    from repro.experiments import configs

    config = getattr(configs, name)()
    if tuned is not None:
        config = config.with_sysctl(TUNED_SYSCTL if tuned else DEFAULT_SYSCTL)
    if mtu is not None:
        try:
            config = config.with_mtu(mtu)
        except ValueError as exc:
            raise ResolveError("mtu", f"invalid mtu for {name}: {exc}")
    return config
