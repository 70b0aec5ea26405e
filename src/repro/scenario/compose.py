"""The composer: one spec, one engine, everything running together.

:func:`compose_run` instantiates a validated
:class:`~repro.scenario.spec.ScenarioSpec` onto a single
:class:`~repro.sim.Engine`: the switch topology, the library protocol,
the background traffic generators, optional per-rank CPU contention,
and the foreground workload — then runs the workload to completion
while the traffic keeps competing for ports.

Two execution shapes:

* **Two-node baseline** (:meth:`ScenarioSpec.is_two_node_baseline`):
  the quiet 2-rank crossbar ping-pong degenerates to *exactly* the
  code path the figures use — ``library.build`` two connected
  endpoints, :func:`~repro.core.pingpong.measure_sweep` — so the curve
  is bit-identical to :func:`repro.exec.execute_sweeps` for the same
  library and config.
* **Fabric path**: everything else goes through
  :class:`repro.fabric.Fabric` (with the spec's topology), where
  ping-pong runs over ``library.build_endpoint`` pair views and
  ``halo``/``alltoall`` run on full
  :func:`repro.cluster.build_world` communicators.

Traffic generators start before the workload in spec order, so a given
spec always produces the same event interleaving, event for event.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pingpong import measure_sweep
from repro.core.results import NetPipePoint, NetPipeResult
from repro.core.sizes import netpipe_sizes
from repro.experiments import names
from repro.scenario.result import FlowResult
from repro.scenario.spec import ScenarioSpec, SpecError
from repro.sim import Engine


@dataclass(frozen=True)
class ComposedRun:
    """Raw outcome of one composed simulation (pre-store shape)."""

    library: str
    config: str
    topology: str
    completion_time: float
    events_processed: int
    curve: NetPipeResult | None
    flows: tuple[FlowResult, ...]


def _start_traffic(spec: ScenarioSpec, fabric) -> list:
    """Start every background generator; returns the live FlowStats.

    Spec order, then rank order within a block — the deterministic
    startup sequence the fingerprint promises.
    """
    from repro.scenario.traffic import build_traffic

    all_stats = []
    for index, entry in enumerate(spec.traffic):
        generators, stats = build_traffic(entry, index, spec.seed, fabric)
        for generator in generators:
            fabric.engine.process(generator)
        all_stats.append(stats)
    return all_stats


def _freeze_flows(all_stats, completion_time: float) -> tuple[FlowResult, ...]:
    """FlowStats counters -> immutable per-flow results."""
    flows = []
    for stats in all_stats:
        achieved = (
            8.0 * stats.bytes / completion_time / 1e6
            if completion_time > 0
            else 0.0
        )
        flows.append(
            FlowResult(
                name=stats.name,
                kind=stats.kind,
                offered_rate=stats.offered_rate,
                messages=stats.messages,
                bytes=stats.bytes,
                achieved_mbps=achieved,
            )
        )
    return tuple(flows)


def _compute_scales(spec: ScenarioSpec) -> dict[int, float]:
    """{rank: compute dilation} from the cpu block (empty when quiet)."""
    if spec.cpu is None:
        return {}
    ranks = (
        spec.cpu.ranks if spec.cpu.ranks is not None
        else tuple(range(spec.nranks))
    )
    factor = spec.cpu.dilation()
    return {rank: factor for rank in ranks}


def _curve_from_samples(library, config, samples) -> NetPipeResult:
    """Samples -> NetPipeResult, exactly as the sweep executor does."""
    return NetPipeResult(
        library=library.display_name,
        config=config.describe(),
        points=[NetPipePoint(size=s, oneway_time=t) for s, t in samples],
    )


def compose_run(spec: ScenarioSpec, recorder=None) -> ComposedRun:
    """Instantiate and run one scenario on a fresh engine.

    ``recorder`` is an optional :class:`repro.obs.Recorder` attached as
    the engine's observer (the ``--trace`` path).  The spec must be
    validated; :func:`repro.scenario.runner.run_scenario` is the
    retrying, caching front door.
    """
    try:
        library = names.library_factory(spec.library)()
        config = names.build_config(spec.config, spec.tuned, spec.mtu)
    except names.ResolveError as exc:
        raise SpecError(exc.field, exc.message)
    workload = spec.workload
    sizes = workload.sizes if workload.sizes is not None else netpipe_sizes()

    if spec.is_two_node_baseline():
        # The figures' exact two-node path: same construction order,
        # same calls, bit-identical curve (see exec scheduler).
        engine = Engine(obs=recorder)
        a, b = library.build(engine, config)
        samples = measure_sweep(engine, a, b, sizes, repeats=workload.repeats)
        return ComposedRun(
            library=library.display_name,
            config=config.describe(),
            topology=_crossbar_describe(),
            completion_time=engine.now,
            events_processed=engine.events_processed,
            curve=_curve_from_samples(library, config, samples),
            flows=(),
        )

    engine = Engine(obs=recorder)
    topology = spec.topology.build()

    if workload.kind == "pingpong":
        from repro.fabric import Fabric

        fabric = Fabric(engine, library.link_model(config), spec.nranks,
                        topology=topology)
        all_stats = _start_traffic(spec, fabric)
        rank_a, rank_b = workload.pair(spec.nranks)
        ep_a = library.build_endpoint(config, fabric.pair(rank_a, rank_b))
        ep_b = library.build_endpoint(config, fabric.pair(rank_b, rank_a))
        samples = measure_sweep(engine, ep_a, ep_b, sizes,
                                repeats=workload.repeats)
        completion = engine.now
        curve = _curve_from_samples(library, config, samples)
    else:
        from repro.cluster import build_world, run_ranks

        comms = build_world(engine, library, config, spec.nranks,
                            topology=topology)
        all_stats = _start_traffic(spec, comms[0].fabric)
        if workload.kind == "halo":
            from repro.apps.halo import halo_program

            program = halo_program(
                spec.nranks,
                local_nx=workload.cells,
                local_ny=workload.cells,
                iterations=workload.iterations,
                compute_scale=_compute_scales(spec),
            )
        else:  # alltoall
            iterations = workload.iterations
            nbytes = workload.message_bytes

            def program(comm):
                yield from comm.barrier()
                t0 = comm.engine.now
                for _ in range(iterations):
                    yield from comm.alltoall(nbytes)
                yield from comm.barrier()
                return comm.engine.now - t0

        elapsed = run_ranks(engine, comms, program)
        completion = max(elapsed)
        curve = None

    return ComposedRun(
        library=library.display_name,
        config=config.describe(),
        topology=(topology.describe() if topology is not None
                  else _crossbar_describe()),
        completion_time=completion,
        events_processed=engine.events_processed,
        curve=curve,
        flows=_freeze_flows(all_stats, completion),
    )


def _crossbar_describe() -> str:
    from repro.fabric.topology import Crossbar

    return Crossbar().describe()
