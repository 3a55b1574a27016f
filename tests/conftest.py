import pytest

from srpsim import KeyTable, NodeState, SimConfig


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
    table = KeyTable()
    for a, b in pairs:
        table.grant(a, b)
    return table


def make_state(node, table=None):
    table = table or make_table(("S", "T"))
    return NodeState(self_id=node, keys=table.ring(node))


@pytest.fixture
def st_table():
    return make_table(("S", "T"))


@pytest.fixture
def mac_calls(monkeypatch):
    """(holder, key pair, digest) of every authenticator any KeyTable
    computes during the test."""
    calls = []
    mac = KeyTable._mac

    def recording(table, holder, peer, fields):
        digest = mac(table, holder, peer, fields)
        calls.append((holder, tuple(sorted((holder, peer))), digest))
        return digest
    monkeypatch.setattr(KeyTable, "_mac", recording)
    return calls
