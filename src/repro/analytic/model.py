"""Closed-form ping-pong prediction: the curves without the events.

The discrete-event engine reproduces a NetPIPE curve by executing every
protocol step of every ping-pong exchange — thousands of scheduled
events per sweep.  But the endpoint state machines in
:mod:`repro.mplib` are *deterministic pipelines*: in a two-node
ping-pong nothing ever contends, so the critical path of one exchange
is a straight sum of the very same cost terms the endpoints yield to
the engine.  This module evaluates that sum directly — the analytic
shortcut of the classic TCP-throughput models (Mathis et al.'s
``msmo97``, Cardwell-Savage-Anderson's ``csa00``) applied to our
protocol compositions — and does it *vectorized*: one batch call
predicts a whole size sweep as a handful of numpy array operations.

Derivation (one direction of the ping-pong; the reverse direction is
identical, so the one-way time NetPIPE reports *is* this sum):

* **TCP libraries** (:class:`~repro.mplib.tcp_base.TcpLibSpec`)::

      oneway(n) = 2*daemon_hop(n)            [Route.DAEMON only]
                + tx_staging(n)
                + handshake                  [n >= eager_threshold]
                + occupancy(n + header)
                + latency0
                + rx_staging(n) + convert(n) + fragment(n)

  with ``handshake = 2*(occupancy(header) + latency0)`` — the RTS/CTS
  round trip — and ``occupancy`` the link's injection-serialisation
  time including the phased-in socket-buffer window stalls of
  :class:`~repro.net.tcp.TcpModel`.

* **OS-bypass libraries** (:class:`~repro.mplib.oslib_base.OsBypassSpec`)::

      eager:      bounce(n) + occupancy(n + header) + latency0 + bounce(n)
      rendezvous: 2*(occupancy(header) + latency0) + occupancy(n) + latency0
      no-RPUT:    bounce(n) + occupancy(n + header) + latency0 + copy(n)

* **raw GM** passes straight through: ``occupancy(n) + latency0``.

Every constant comes from the same :class:`~repro.net.base.LinkModel`
and spec objects the simulation consumes, so the two tiers can only
disagree through floating-point association order — which is exactly
what the tolerance bands in :mod:`repro.analytic.bands` pin, with the
event engine as the oracle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from repro.analytic.memo import PairMemo
from repro.core.results import NetPipeResult
from repro.core.sizes import netpipe_sizes
from repro.hw.cluster import ClusterConfig
from repro.mplib.base import MPLibrary
from repro.mplib.gm_libs import RawGm
from repro.mplib.oslib_base import OsBypassLibrary, OsBypassSpec
from repro.mplib.tcp_base import Route, TcpLibrary, TcpLibSpec
from repro.net.tcp import TcpModel
from repro.obs.recorder import NULL_RECORDER


class AnalyticUnsupported(ValueError):
    """The library model has no closed-form prediction.

    Raised for endpoint families :mod:`repro.analytic` has no derived
    formula for (custom/experimental libraries).  The scheduler treats
    this as "route to the event engine instead".
    """


def supports(library: MPLibrary) -> bool:
    """Can :func:`predict_oneway_times` handle this library model?"""
    return isinstance(library, (TcpLibrary, OsBypassLibrary, RawGm))


def _compile_tcp(
    spec: TcpLibSpec, config: ClusterConfig, link: TcpModel
) -> Callable[[np.ndarray], np.ndarray]:
    """Build the one-way predictor for a TCP-family library.

    Every link constant is hoisted at compile time: a :class:`TcpModel`
    property access re-derives its min-of-subrates, which would
    otherwise cost more than the vector math itself.  The local
    ``occ`` closure is the vectorized twin of
    :meth:`TcpModel.stream_time` — same terms, same association order —
    so hoisting cannot move a float bit (for ``wire_bytes`` at or under
    the grace burst the window term is an exact ``+ 0.0``).
    """
    memcpy_bw = config.host.memcpy_bandwidth
    pipe = link.pipeline_rate
    win = link.window_rate
    latency = link.latency0
    header = float(spec.header_bytes)
    if win < pipe:
        grace = min(link.sockbuf, link.WINDOW_GRACE_BYTES)
        inv_gap = 1.0 / win - 1.0 / pipe

        def occ(wire_bytes):
            t = wire_bytes / pipe
            return t + np.maximum(wire_bytes - grace, 0.0) * inv_gap

    else:

        def occ(wire_bytes):
            return wire_bytes / pipe

    eager_threshold = spec.eager_threshold
    handshake_time = (
        2.0 * (occ(header) + latency)
        if eager_threshold is not None
        else 0.0
    )
    staging_copies = spec.tx_staging_copies + spec.rx_staging_copies
    overlap_chunk = spec.overlap_copy_chunk
    daemon = spec.route is Route.DAEMON
    daemon_latency = spec.daemon_latency
    daemon_bandwidth = spec.daemon_bandwidth
    if daemon:
        assert daemon_bandwidth is not None
    conversion_rate = spec.conversion_rate
    fragment_size = spec.fragment_size
    fragment_cost = spec.fragment_cost

    def predict(n: np.ndarray) -> np.ndarray:
        total = occ(n + header) + latency
        if eager_threshold is not None:
            total = total + np.where(n >= eager_threshold, handshake_time, 0.0)
        if staging_copies:
            if overlap_chunk is not None:
                per_copy = np.minimum(n, overlap_chunk) / memcpy_bw
            else:
                per_copy = n / memcpy_bw
            total = total + staging_copies * per_copy
        if daemon:
            total = total + 2.0 * (daemon_latency + n / daemon_bandwidth)
        if conversion_rate is not None:
            total = total + n / conversion_rate
        if fragment_size is not None:
            total = total + np.ceil(n / fragment_size) * fragment_cost
        return total

    return predict


def _compile_osbypass(
    spec: OsBypassSpec, config: ClusterConfig, library: OsBypassLibrary
) -> Callable[[np.ndarray], np.ndarray]:
    """Build the one-way predictor for a GM/VIA library.

    GM and VIA link models stream at a size-independent rate (their
    per-fragment costs are folded into the rate itself), so occupancy
    is a single division.
    """
    link = library.link_model(config)
    stream_rate = link.rate(0)
    latency = link.latency0
    memcpy_bw = config.host.memcpy_bandwidth
    header = float(spec.header_bytes)
    chunk = spec.eager_copy_chunk
    zero_copy_large = spec.zero_copy_large
    eager_threshold = spec.eager_threshold
    # The scalar RTS/CTS handshake, precomputed with the original
    # association order (2*(occ(header) + L)).
    handshake = 2.0 * (spec.header_bytes / stream_rate + latency)

    def predict(n: np.ndarray) -> np.ndarray:
        bounce_time = np.minimum(n, chunk) / memcpy_bw
        eager = bounce_time + (n + header) / stream_rate + latency
        if not zero_copy_large:
            # No RPUT: every message is staged, with a serial receive copy.
            return eager + n / memcpy_bw
        rendezvous = handshake + n / stream_rate + latency
        return np.where(n < eager_threshold, eager + bounce_time, rendezvous)

    return predict


def _compile(
    library: MPLibrary, config: ClusterConfig
) -> Callable[[np.ndarray], np.ndarray]:
    """Dispatch to the family's compiler (raises for unknown families)."""
    if isinstance(library, TcpLibrary):
        return _compile_tcp(library.spec, config, library.link_model(config))
    if isinstance(library, OsBypassLibrary):
        return _compile_osbypass(library.spec, config, library)
    if isinstance(library, RawGm):
        link = library.link_model(config)
        rate = link.rate(0)
        latency = link.latency0
        return lambda n: n / rate + latency
    raise AnalyticUnsupported(
        f"no closed-form model for {type(library).__name__} "
        f"({library.display_name}); use the event-engine tier"
    )


#: Compiled predictors, keyed by the identity of the (library, config)
#: object pair.  Compiling re-derives every link rate (each a min over
#: subrates read from the spec tree), which costs as much as several
#: curve evaluations; tier routing predicts for the same spec objects
#: on every call.  Identity keys keep the memo sound — an entry is only
#: reachable while the very objects it was compiled from are alive, and
#: equal-comparing configs never share one (see
#: :mod:`repro.analytic.memo`).
_PREDICTORS: "PairMemo[Callable[[np.ndarray], np.ndarray]]" = PairMemo()


def _predictor(
    library: MPLibrary, config: ClusterConfig
) -> Callable[[np.ndarray], np.ndarray]:
    fn = _PREDICTORS.get(library, config)
    if fn is None:
        fn = _compile(library, config)
        _PREDICTORS.put(library, config, fn)
    return fn


def predict_oneway_times(
    library: MPLibrary, config: ClusterConfig, sizes: Sequence[int]
) -> np.ndarray:
    """One-way times (seconds) for ``sizes``-byte ping-pongs, batched.

    This is the closed-form twin of running
    :func:`repro.core.pingpong.measure_sweep` on a fresh engine —
    microseconds for a whole schedule instead of milliseconds of event
    processing — valid for every library family shipped in
    :data:`repro.mplib.registry.REGISTRY`/``VARIANTS``.

    :raises AnalyticUnsupported: for library models with no derived
        closed form.
    """
    n = np.asarray(sizes, dtype=np.float64)
    if n.ndim != 1:
        raise ValueError("sizes must be a flat sequence")
    if n.size and n.min() < 0:
        raise ValueError("message sizes must be non-negative")
    return _predictor(library, config)(n)


@lru_cache(maxsize=1)
def _default_schedule() -> tuple[tuple[int, ...], np.ndarray]:
    """The default NetPIPE schedule as native ints and as the read-only
    float array the predictors take — built once, not per curve."""
    sizes = tuple(netpipe_sizes())
    n = np.array(sizes, dtype=np.float64)
    n.setflags(write=False)
    return sizes, n


def predict_sweep(
    library: MPLibrary,
    config: ClusterConfig,
    sizes: Sequence[int] | None = None,
    repeats: int = 1,
    obs=NULL_RECORDER,
) -> NetPipeResult:
    """A full analytic NetPIPE curve, interchangeable with a simulated one.

    Returns the same :class:`~repro.core.results.NetPipeResult` shape
    :func:`repro.exec.scheduler._run_sweep` produces, so callers (cache,
    audits, comparisons) cannot tell the tiers apart — except by wall
    clock.  ``repeats`` is accepted for request parity: ping-pong
    rounds on an idle channel are identical, so the mean over repeats
    equals the single-round time.

    ``obs`` takes a :class:`~repro.obs.Recorder` to file one
    ``analytic.predict`` span per batch (the analytic tier's
    observability hook); the default null recorder costs one branch.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if sizes is None:
        # Known valid: skip predict_oneway_times' conversion and checks.
        int_sizes, n = _default_schedule()
        times = _predictor(library, config)(n)
    else:
        int_sizes = list(map(int, sizes))
        times = predict_oneway_times(library, config, sizes)
    if obs.enabled:
        obs.point(
            "analytic.predict", cat="analytic",
            library=library.display_name, points=len(times),
        )
    # tolist() yields native floats in one pass.  The result keeps the
    # columns and builds its points on first read: allocating them
    # would cost several times the curve evaluation.
    return NetPipeResult.from_columns(
        library.display_name, config.describe(), int_sizes, times.tolist()
    )
