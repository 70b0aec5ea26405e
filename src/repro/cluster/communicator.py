"""Communicator: MPI-shaped rank API over the simulated fabric.

Each rank gets a :class:`Communicator` carrying one protocol endpoint
per peer it talks to (built by the library model the first time the
rank uses that peer, so every byte still pays the library's copies,
handshakes and window behaviour) plus:

* ``compute(seconds)`` — application CPU work;
* ``isend``/``irecv``/``wait`` with **progress semantics**: for
  libraries whose transfers only progress inside library calls
  (``progress_independent = False`` — MPICH's p4, LAM, PVM, TCGMSG),
  an isend posted before ``compute`` does not move until ``wait``; for
  MP_Lite (SIGIO), MPI/Pro (progress thread) and the NIC-driven GM/VIA
  stacks, it proceeds concurrently.  This is the paper's Sec. 7
  prediction — "A message-passing library like MPI/Pro that has a
  message progress thread, or MP_Lite that is SIGIO interrupt driven,
  will keep data flowing more readily" — made executable;
* collective operations (:mod:`repro.collectives`), which always make
  progress because the application is inside the library while they
  run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional, Sequence

from repro.fabric import Fabric
from repro.hw.cluster import ClusterConfig
from repro.mplib.base import LibEndpoint, MPLibrary
from repro.sim import Engine, Process


@dataclass
class Request:
    """Handle for a non-blocking operation; complete it with wait().

    For blocking-progress libraries the operation starts *deferred*: it
    is launched the next time the application enters any library call
    (wait, recv, a collective, ...), because that is when such a
    library's progress engine actually runs.  Progress-independent
    libraries launch immediately.
    """

    kind: str  # "send" | "recv"
    process: Optional[Process] = None  # running operation
    deferred: Optional[Generator] = None  # not-yet-started operation
    done: bool = False
    value: object = None
    nbytes: int = 0  # payload size, for CPU-contention accounting
    cpu_remaining: Optional[float] = None  # uncharged stack CPU seconds


class Communicator:
    """One rank's handle on the world."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        rank: int,
        library: MPLibrary,
        config: ClusterConfig,
        tracer=None,
        cpu_contention: bool = False,
    ):
        self.engine = engine
        self.fabric = fabric
        self.rank = rank
        self.size = fabric.nranks
        self.config = config
        self.progress_independent = library.progress_independent
        self.library_name = library.display_name
        self._library = library
        #: peer -> protocol endpoint, built on first use by _ep()
        self._endpoints: dict[int, LibEndpoint] = {}
        self._pending: list[Request] = []
        #: optional repro.cluster.trace.Tracer recording this rank
        self.tracer = tracer
        #: model compute slowdown from background transfers on a
        #: single-CPU host (opt-in; see compute())
        self.cpu_contention = cpu_contention
        self._inflight: list[Request] = []
        # Instrumentation for app-level reports.
        self.bytes_sent = 0
        self.compute_time = 0.0

    def _ep(self, peer: int) -> LibEndpoint:
        ep = self._endpoints.get(peer)
        if ep is None:
            if not 0 <= peer < self.size or peer == self.rank:
                raise ValueError(
                    f"rank {self.rank} has no endpoint for peer {peer} "
                    f"(world size {self.size})"
                )
            ep = self._library.build_endpoint(
                self.config, self.fabric.pair(self.rank, peer)
            )
            self._endpoints[peer] = ep
        return ep

    def _enter_library(self) -> None:
        """Entering any library call runs the progress engine: every
        deferred operation is launched."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        for req in pending:
            if not req.done and req.process is None:
                req.process = self.engine.process(req.deferred)
                req.deferred = None

    def _record(self, kind: str, detail: str, t0: float) -> None:
        if self.tracer is not None:
            self.tracer.record(self.rank, kind, detail, t0, self.engine.now)

    # -- blocking point-to-point --------------------------------------------------
    def send(self, dst: int, nbytes: int) -> Generator:
        """Blocking send to rank ``dst`` through the library protocol."""
        self._enter_library()
        self.bytes_sent += nbytes
        t0 = self.engine.now
        yield from self._ep(dst).send(nbytes)
        self._record("send", f"->{dst} {nbytes}B", t0)

    def recv(self, src: int, nbytes: int) -> Generator:
        """Blocking receive from rank ``src``."""
        self._enter_library()
        t0 = self.engine.now
        msg = yield from self._ep(src).recv(nbytes)
        self._record("recv", f"<-{src} {nbytes}B", t0)
        return msg

    def sendrecv(
        self, dst: int, send_bytes: int, src: int, recv_bytes: int
    ) -> Generator:
        """Simultaneous send+recv (always progressed: it is one call)."""
        self._enter_library()
        self.bytes_sent += send_bytes
        send_proc = self.engine.process(self._ep(dst).send(send_bytes))
        msg = yield from self._ep(src).recv(recv_bytes)
        yield send_proc
        return msg

    # -- non-blocking with progress semantics ------------------------------------------
    def isend(self, dst: int, nbytes: int) -> Request:
        """Non-blocking send; deferred until the next library call for
        blocking-progress libraries (the paper's Sec. 7 distinction)."""
        self.bytes_sent += nbytes
        gen = self._ep(dst).send(nbytes)
        if self.progress_independent:
            req = Request(
                kind="send", process=self.engine.process(gen), nbytes=nbytes
            )
            self._inflight.append(req)
            return req
        req = Request(kind="send", deferred=gen, nbytes=nbytes)
        self._pending.append(req)
        return req

    def irecv(self, src: int, nbytes: int) -> Request:
        """Receives complete when the *sender's* transfer lands; the
        local library only has to match, so irecv always progresses."""
        gen = self._ep(src).recv(nbytes)
        req = Request(
            kind="recv", process=self.engine.process(gen), nbytes=nbytes
        )
        self._inflight.append(req)
        return req

    def wait(self, request: Request) -> Generator:
        """Complete a non-blocking operation (runs the progress engine)."""
        self._enter_library()
        if request.done:
            return request.value
        t0 = self.engine.now
        value = yield request.process
        request.done = True
        request.value = value
        if request in self._inflight:
            self._inflight.remove(request)
        self._record("wait", request.kind, t0)
        return value

    def waitall(self, requests: Sequence[Request]) -> Generator:
        """Complete several non-blocking operations."""
        self._enter_library()
        for req in requests:
            if not req.done:
                yield from self.wait(req)
        return [r.value for r in requests]

    # -- derived datatypes ---------------------------------------------------------------
    def send_layout(self, dst: int, layout) -> Generator:
        """Send a (possibly strided) layout, paying the pack strategy
        of this library (see :mod:`repro.mplib.datatypes`)."""
        from repro.mplib.datatypes import DatatypeSupport, exposed_pack_time, support_for

        support = support_for(self.library_name)
        pack = exposed_pack_time(layout, self.config.host, support)
        if pack > 0:
            if support is DatatypeSupport.USER_PACK:
                self.compute_time += pack  # the application does the packing
            yield self.engine.timeout(pack)
        yield from self.send(dst, layout.nbytes)

    def recv_layout(self, src: int, layout) -> Generator:
        """Receive into a (possibly strided) layout; the unpack mirrors
        the sender's pack strategy."""
        from repro.mplib.datatypes import DatatypeSupport, exposed_pack_time, support_for

        support = support_for(self.library_name)
        msg = yield from self.recv(src, layout.nbytes)
        unpack = exposed_pack_time(layout, self.config.host, support)
        if unpack > 0:
            if support is DatatypeSupport.USER_PACK:
                self.compute_time += unpack
            yield self.engine.timeout(unpack)
        return msg

    # -- application CPU work ---------------------------------------------------------
    def _background_cpu_charge(self, seconds: float) -> float:
        """Stack CPU seconds the single CPU must execute during a
        ``seconds``-long compute window on behalf of in-flight
        overlapped transfers.

        Each running request contributes at most its side's stack CPU
        rate (capped at one CPU) times the window, and never more than
        its remaining uncharged stack work — so a transfer's CPU cost
        is charged exactly once however many compute calls it spans.
        """
        link = self.fabric.link
        extra = 0.0
        for req in self._inflight:
            if req.done or req.process is None or not req.process.is_alive:
                continue
            if req.nbytes <= 0:
                continue
            if req.cpu_remaining is None:
                try:
                    tx, rx = link.cpu_times(req.nbytes)
                except NotImplementedError:
                    req.cpu_remaining = 0.0
                    continue
                req.cpu_remaining = tx if req.kind == "send" else rx
            wall = link.transfer_time(req.nbytes)
            if wall <= 0 or req.cpu_remaining <= 0:
                continue
            rate = min(1.0, req.cpu_remaining / wall)
            take = min(req.cpu_remaining, rate * seconds)
            req.cpu_remaining -= take
            extra += take
        return extra

    def compute(self, seconds: float) -> Generator:
        """Spend CPU time in the application (no library progress for
        blocking-progress libraries — that is the whole point).

        With ``cpu_contention`` enabled on a single-CPU host, compute
        time stretches by the CPU demand of transfers progressing in
        the background — the uniprocessor progress-thread tax the era
        debated.  Dual-CPU hosts (the DS20s) are exempt: the second
        processor absorbs the stack work.
        """
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        effective = seconds
        if (
            self.cpu_contention
            and self.config.host.cpus == 1
            and self.progress_independent
        ):
            effective = seconds + self._background_cpu_charge(seconds)
        self.compute_time += seconds
        t0 = self.engine.now
        yield self.engine.timeout(effective)
        self._record("compute", f"{1e6 * seconds:.0f}us", t0)

    # -- collectives -------------------------------------------------------------------
    def barrier(self) -> Generator:
        """Dissemination barrier over this library's point-to-point."""
        from repro.collectives import barrier

        self._enter_library()
        t0 = self.engine.now
        yield from barrier(self)
        self._record("collective", "barrier", t0)

    def bcast(self, root: int, nbytes: int) -> Generator:
        """Binomial-tree broadcast from ``root``."""
        from repro.collectives import bcast

        yield from bcast(self, root, nbytes)

    def reduce(self, root: int, nbytes: int) -> Generator:
        """Binomial-tree reduction to ``root``."""
        from repro.collectives import reduce

        yield from reduce(self, root, nbytes)

    def allreduce(self, nbytes: int) -> Generator:
        """Recursive-doubling allreduce (reduce+bcast off powers of two)."""
        from repro.collectives import allreduce

        yield from allreduce(self, nbytes)

    def allgather(self, nbytes_per_rank: int) -> Generator:
        """Ring allgather of one block per rank."""
        from repro.collectives import allgather

        yield from allgather(self, nbytes_per_rank)

    def alltoall(self, nbytes_per_pair: int) -> Generator:
        """Pairwise-exchange alltoall."""
        from repro.collectives import alltoall

        yield from alltoall(self, nbytes_per_pair)


def build_world(
    engine: Engine,
    library: MPLibrary,
    config: ClusterConfig,
    nranks: int,
    tracer=None,
    cpu_contention: bool = False,
    topology=None,
) -> list[Communicator]:
    """One fabric, ``nranks`` communicators.

    Each communicator builds a peer's protocol endpoint the first time
    it talks to that peer: a halo touches ~4 peers per rank, not all
    ``nranks - 1``.  Endpoints are pure wrappers, so building one later
    schedules nothing and changes no timing.

    Pass a :class:`repro.cluster.trace.Tracer` to record a timeline of
    every rank's activity, and/or a
    :class:`repro.fabric.TwoTierTree` topology for cascaded switches.
    """
    fabric = Fabric(engine, library.link_model(config), nranks, topology=topology)
    return [
        Communicator(
            engine=engine,
            fabric=fabric,
            rank=rank,
            library=library,
            config=config,
            tracer=tracer,
            cpu_contention=cpu_contention,
        )
        for rank in range(nranks)
    ]


def run_ranks(
    engine: Engine,
    comms: Sequence[Communicator],
    program: Callable[[Communicator], Generator],
) -> list:
    """Run ``program(comm)`` on every rank to completion.

    Returns each rank's return value, in rank order.
    """
    procs = [engine.process(program(comm)) for comm in comms]
    engine.run(until=engine.all_of(procs))
    return [p.value for p in procs]
