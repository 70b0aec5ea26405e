"""Registry mapping library names to default (paper-tuned) instances.

Besides the tuned :data:`REGISTRY`, this module enumerates
:data:`VARIANTS` — every *untuned/alternate* configuration the paper
measures (daemon routing, heterogeneous conversion, no-RPUT staging,
recompiled buffers, GM receive modes).  The variants are what make the
spec universe representative: :mod:`repro.verify` explores every
library reachable from here, and `repro check`'s ``verify-dead-branch``
rule reports a protocol branch as "dead" only if no shipped
configuration — tuned or not — can take it.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.mplib.base import MPLibrary
from repro.mplib.gm_libs import IpOverGm, MpichGm, MpiProGm, RawGm
from repro.mplib.lam import LamMode, LamMpi, LamParams
from repro.mplib.mpich import Mpich
from repro.mplib.mpich_mplite import MpichMpLite
from repro.mplib.mpipro import MpiPro
from repro.mplib.mplite import MpLite
from repro.mplib.pvm import Pvm
from repro.mplib.raw_tcp import RawTcp
from repro.mplib.tcgmsg import Tcgmsg
from repro.mplib.via_libs import MpLiteVia, MpiProVia, Mvich, MvichParams
from repro.net.gm import GmReceiveMode

#: name -> zero-argument factory producing the paper's *optimised*
#: configuration of each library (Sec. 8: "All graphs presented here
#: were after optimization of the available parameters").
REGISTRY: dict[str, Callable[[], MPLibrary]] = {
    "raw-tcp": RawTcp,
    "mpich": Mpich.tuned,
    "mpich-mplite": MpichMpLite,
    "lam": LamMpi.tuned,
    "mpipro": MpiPro.tuned,
    "mplite": MpLite.tuned,
    "pvm": Pvm.tuned,
    "tcgmsg": Tcgmsg,
    "raw-gm": RawGm,
    "mpich-gm": MpichGm,
    "mpipro-gm": MpiProGm,
    "ip-gm": IpOverGm,
    "mvich": Mvich.tuned,
    "mplite-via": MpLiteVia,
    "mpipro-via": MpiProVia,
}


def _lam_c2c() -> MPLibrary:
    """LAM -c2c on heterogeneous nodes: data conversion enabled."""
    return LamMpi(LamParams(mode=LamMode.C2C))


def _mvich_no_rput() -> MPLibrary:
    """MVICH built without -DVIADEV_RPUT_SUPPORT: serial staging copies."""
    return Mvich(MvichParams(rput_support=False))


def _mvich_low_spin() -> MPLibrary:
    """MVICH with a low VIADEV_SPIN_COUNT: receiver sleeps and pays wakeups."""
    return Mvich(MvichParams(spin_count=100))


def _raw_gm_blocking() -> MPLibrary:
    return RawGm(GmReceiveMode.BLOCKING)


def _raw_gm_polling() -> MPLibrary:
    return RawGm(GmReceiveMode.POLLING)


#: name -> factory for every *alternate* configuration the paper
#: measures alongside the tuned ones: library defaults before tuning,
#: daemon-routed paths, heterogeneous conversion, no-RPUT fallback.
#: Together with :data:`REGISTRY` this spans the reachable spec space.
VARIANTS: dict[str, Callable[[], MPLibrary]] = {
    "raw-tcp-untuned": RawTcp.untuned,
    "mpich-untuned": Mpich,
    "mpipro-untuned": MpiPro,
    "mplite-untuned": MpLite,
    "mvich-untuned": Mvich,
    "mpipro-via-untuned": MpiProVia,
    "pvm-default": Pvm,
    "pvm-direct": Pvm.direct,
    "lam-lamd": LamMpi.with_daemons,
    "lam-c2c": _lam_c2c,
    "tcgmsg-recompiled": Tcgmsg.recompiled,
    "mvich-no-rput": _mvich_no_rput,
    "mvich-low-spin": _mvich_low_spin,
    "raw-gm-blocking": _raw_gm_blocking,
    "raw-gm-polling": _raw_gm_polling,
}


def iter_spec_universe() -> Iterator[tuple[str, object]]:
    """Every (name, protocol spec) reachable from the registries.

    Yields the ``spec`` dataclass of each tuned and variant library
    configuration.  This is the universe `repro check`'s ``verify-*``
    rules (:mod:`repro.check.rules.verify`) model-check every endpoint
    against; ``verify-dead-branch`` reports a spec-dependent branch that
    no universe member can take as unreachable protocol code.
    """
    for name, factory in {**REGISTRY, **VARIANTS}.items():
        lib = factory()
        spec = getattr(lib, "spec", None)
        if spec is not None:
            yield name, spec


def library_names() -> list[str]:
    """All registered library names."""
    return sorted(REGISTRY)


def get_library(name: str) -> MPLibrary:
    """Instantiate the tuned configuration of a registered library."""
    try:
        factory = REGISTRY[name]
    except KeyError:
        known = ", ".join(library_names())
        raise KeyError(f"unknown library {name!r}; known: {known}") from None
    return factory()
