# repro: module=repro.mplib.fixture_proto_deadlock_bad
"""Seeded mutant: both protocol legs block on a receive first.

Every tag is perfectly paired, but send() waits for a 'go' token that
recv() only sends *after* its own receive completes — with both ranks
parked on a receive, neither ever sends, the simulated benchmark
hangs, and ``verify-deadlock`` reports the sender's blocked receive.
"""


class DeadlockingEndpoint:
    """send() and recv() both open with a blocking channel receive."""

    def __init__(self, endpoint):
        self.ep = endpoint

    def send(self, nbytes):
        yield from self.ep.recv(tag="go")  # verify-deadlock: recv-first
        yield from self.ep.send(nbytes, tag="data")

    def recv(self, nbytes):
        msg = yield from self.ep.recv(tag="data")
        yield from self.ep.send(0, tag="go")
        return msg
