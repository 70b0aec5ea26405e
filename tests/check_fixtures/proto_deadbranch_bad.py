# repro: module=repro.mplib.fixture_proto_deadbranch_bad
"""Seeded mutant: a protocol branch no registry spec can ever take.

``TcpLibSpec.__post_init__`` rejects negative ``header_bytes`` and
``OsBypassSpec`` defaults are non-negative too, so the guarded stall
(``verify-dead-branch``) is dead code under every configuration in
:func:`repro.mplib.registry.iter_spec_universe`.  The handshake legs
themselves are fully paired and the active side sends first.
"""


class DeadBranchEndpoint:
    """Carries an unreachable spec-conditioned protocol branch."""

    def __init__(self, spec, endpoint, engine):
        self.spec = spec
        self.ep = endpoint
        self.engine = engine

    def send(self, nbytes):
        spec = self.spec
        if spec.header_bytes < 0:  # verify-dead-branch: never satisfiable
            yield self.engine.timeout(spec.latency_adder)
        yield from self.ep.send(spec.header_bytes, tag="rts")
        yield from self.ep.recv(tag="cts")
        yield from self.ep.send(nbytes, tag="data")

    def recv(self, nbytes):
        yield from self.ep.recv(tag="rts")
        yield from self.ep.send(self.spec.header_bytes, tag="cts")
        msg = yield from self.ep.recv(tag="data")
        return msg
