import pytest

from srpsim import KeyRing, NodeState, SimConfig, rings_for


@pytest.fixture
def cfg():
    return SimConfig(tau=1.0, tx_time=1.0, end_time=100.0, seed=1,
                     reply_wait_min=8.0, reply_wait_max=64.0)


class CallLog:
    """An engine stand-in that logs each step-method call it is given, as
    (method name, arguments), in order."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args: self.calls.append((name, args))


def make_table(*pairs):
    """Each node's KeyRing over the keys of `pairs`, by node."""
    return rings_for(sorted({node for pair in pairs for node in pair}), pairs)


def make_state(node, table=None):
    """`node`'s state over `table` (S and T sharing a key by default); a node
    with no ring there holds no key."""
    table = make_table(("S", "T")) if table is None else table
    return NodeState(self_id=node, keys=table.get(node) or rings_for((node,), ())[node])


@pytest.fixture
def st_table():
    return make_table(("S", "T"))


@pytest.fixture
def mac_calls(monkeypatch):
    """(holder, key pair, digest) of every authenticator any KeyRing
    computes during the test."""
    calls = []
    mac = KeyRing.mac

    def recording(ring, peer, fields):
        digest = mac(ring, peer, fields)
        calls.append((ring.holder, tuple(sorted((ring.holder, peer))), digest))
        return digest
    monkeypatch.setattr(KeyRing, "mac", recording)
    return calls
