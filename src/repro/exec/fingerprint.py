"""Stable content fingerprints for sweep requests.

A sweep is fully determined by (library, cluster config, size schedule,
repeats) — the simulator is bit-for-bit deterministic, so two requests
with the same fingerprint produce the same curve.  The fingerprint is a
SHA-256 over a *canonical* textual form of the request, built by walking
dataclasses, enums and plain objects recursively.  It is independent of
``PYTHONHASHSEED``, process, and platform, which is what lets the
on-disk cache in :mod:`repro.exec.cache` be shared between runs.

A code-version salt (:func:`code_salt`) is folded into every digest.
It is *derived*: a content hash over the source files of the packages
whose code determines simulated timings (:data:`SALTED_PACKAGES`), so
any model edit automatically invalidates every previously cached curve
— nobody has to remember to bump a constant (see docs/PERFORMANCE.md).
:data:`CODE_SALT` survives as the version prefix and as the fallback
when the source tree is not readable (frozen/zipapp installs).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import types
from pathlib import Path
from typing import Any, Sequence

from repro.hw.cluster import ClusterConfig
from repro.mplib.base import MPLibrary

#: Version prefix of the derived salt, and the whole salt when the
#: source tree cannot be hashed.  Bump only on a semantic break in the
#: cache entry format itself; model edits are picked up automatically.
CODE_SALT = "repro-sweep-v1"

#: Sub-packages of ``repro`` whose source content determines simulated
#: timings.  Editing any ``.py`` file under these changes the derived
#: salt, so stale cache entries can never be replayed.  Orchestration
#: (``exec``), live benchmarking (``realnet``) and reporting layers are
#: deliberately absent: they cannot alter a curve.
SALTED_PACKAGES = ("sim", "net", "mplib", "hw", "core")


def source_digest(
    root: str | Path | None = None,
    packages: Sequence[str] = SALTED_PACKAGES,
) -> str | None:
    """SHA-256 over the source files of ``packages``.

    Walks ``<root>/<pkg>/**/*.py`` for each package in ``packages``
    (default :data:`SALTED_PACKAGES`) in sorted order, hashing relative
    path and raw bytes.  ``root`` defaults to the installed ``repro``
    package directory.  Returns ``None`` when no source files are found
    (e.g. running from a frozen archive), which callers treat as "fall
    back to the plain version prefix".  :mod:`repro.store` reuses it,
    with each store's own package list, to salt generation directories.
    """
    base = Path(root) if root is not None else Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    seen = False
    for pkg in packages:
        pkg_dir = base / pkg
        if not pkg_dir.is_dir():
            continue
        for path in sorted(pkg_dir.rglob("*.py")):
            seen = True
            rel = f"{pkg}/{path.relative_to(pkg_dir).as_posix()}"
            digest.update(rel.encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest() if seen else None


@functools.lru_cache(maxsize=None)
def code_salt() -> str:
    """The derived code-version salt folded into every fingerprint.

    ``<CODE_SALT>+<first 16 hex of the source digest>``, or just
    :data:`CODE_SALT` when the sources are unavailable.  Cached for the
    process lifetime — sources do not change under a running sweep.
    """
    digest = source_digest()
    return f"{CODE_SALT}+{digest[:16]}" if digest else CODE_SALT

#: Types emitted verbatim (via repr) into the canonical form.
_ATOMS = (int, float, bool, str, bytes, type(None))


def canonicalize(obj: Any) -> str:
    """Deterministic textual form of ``obj`` for hashing.

    Handles atoms, sequences, mappings, enums, dataclasses, and plain
    objects (``__dict__`` or ``__slots__``), always tagging composite
    values with their class' qualified name so two different library
    models with identical parameters never collide.  Raises
    ``TypeError`` for values with no stable representation (lambdas,
    open files, ...) rather than hashing something unstable.
    """
    if isinstance(obj, _ATOMS):
        return repr(obj)
    if isinstance(
        obj,
        (type, types.FunctionType, types.MethodType, types.BuiltinFunctionType),
    ):
        # A function's identity is its code, which the walk can't see;
        # hashing its (empty) __dict__ would make all lambdas collide.
        raise TypeError(
            f"cannot canonicalize {obj!r} for fingerprinting: functions and "
            "classes have no stable content representation"
        )
    if isinstance(obj, enum.Enum):
        return f"E({type(obj).__qualname__}.{obj.name})"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{f.name}={canonicalize(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"D({type(obj).__qualname__}:{fields})"
    if isinstance(obj, (list, tuple)):
        return f"L[{','.join(canonicalize(v) for v in obj)}]"
    if isinstance(obj, (set, frozenset)):
        return f"S[{','.join(sorted(canonicalize(v) for v in obj))}]"
    if isinstance(obj, dict):
        items = sorted(
            (canonicalize(k), canonicalize(v)) for k, v in obj.items()
        )
        return f"M[{','.join(f'{k}:{v}' for k, v in items)}]"
    state = _object_state(obj)
    if state is not None:
        fields = ",".join(f"{k}={canonicalize(v)}" for k, v in state)
        return f"O({type(obj).__qualname__}:{fields})"
    raise TypeError(
        f"cannot canonicalize {type(obj).__qualname__!r} for fingerprinting"
    )


def _object_state(obj: Any) -> list[tuple[str, Any]] | None:
    """Sorted (name, value) pairs from ``__dict__`` and/or ``__slots__``."""
    found: dict[str, Any] = {}
    if hasattr(obj, "__dict__"):
        found.update(obj.__dict__)
    for klass in type(obj).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if hasattr(obj, name):
                found.setdefault(name, getattr(obj, name))
    if not found and not hasattr(obj, "__dict__"):
        return None
    return sorted(found.items())


def sweep_fingerprint(
    library: MPLibrary,
    config: ClusterConfig,
    sizes: Sequence[int] | None,
    repeats: int = 1,
    salt: str = "",
) -> str:
    """Hex digest identifying one sweep's full input state.

    ``sizes=None`` (the default NetPIPE schedule) is expanded before
    hashing, so a request that spells the default schedule out and one
    that relies on the default share a cache entry — and a change to
    the default schedule invalidates previously cached sweeps.
    """
    if sizes is None:
        from repro.core.sizes import netpipe_sizes

        sizes = netpipe_sizes()
    sizes_part = canonicalize(list(sizes))
    payload = "|".join(
        (
            code_salt(),
            salt,
            canonicalize(library),
            canonicalize(config),
            sizes_part,
            repr(int(repeats)),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
