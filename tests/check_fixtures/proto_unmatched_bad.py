# repro: module=repro.mplib.fixture_proto_unmatched_bad
"""Seeded mutant: rendezvous endpoint whose CTS reply leg was deleted.

The active side sends RTS and blocks on CTS; the passive side consumes
the RTS but never answers, so ``verify-deadlock`` reports the sender
blocked on CTS.  Nothing else is wrong: the active side sends first
and there are no spec branches.
"""


class BrokenRendezvousEndpoint:
    """send() awaits a 'cts' that recv() never issues."""

    def __init__(self, spec, endpoint):
        self.spec = spec
        self.ep = endpoint

    def send(self, nbytes):
        yield from self.ep.send(self.spec.header_bytes, tag="rts")
        yield from self.ep.recv(tag="cts")  # verify-deadlock: no reply leg
        yield from self.ep.send(nbytes, tag="data")

    def recv(self, nbytes):
        yield from self.ep.recv(tag="rts")
        # BUG (seeded): the CTS reply that belongs here was deleted.
        msg = yield from self.ep.recv(tag="data")
        return msg
