# repro: module=repro.mplib.fixture_proto_unreceived_bad
"""Seeded mutant: the active side sends a message its peer never receives.

send() closes the transfer with a 'fin' token, but recv() was never
taught to consume it.  Both legs finish, so nothing deadlocks, yet
every transfer leaves the token in flight on the channel, where it
is picked up by whatever receive comes next.  ``verify-progress``
reports the completed pair's leftover message at the send that
produced it.
"""


class UnreceivedFinEndpoint:
    """send() ends with a 'fin' that recv() never receives."""

    def __init__(self, spec, endpoint):
        self.spec = spec
        self.ep = endpoint

    def send(self, nbytes):
        yield from self.ep.send(nbytes + self.spec.header_bytes, tag="data")
        yield from self.ep.send(0, tag="fin")  # verify-progress: never received

    def recv(self, nbytes):
        msg = yield from self.ep.recv(tag="data")
        return msg
