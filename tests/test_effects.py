"""Effects and the engine's step methods: `srp.Recorder` records each call as
the effect that `srp.execute` maps back to it, `execute` refuses any other
effect, and the correct-node driver builds no effect at all."""

import pytest

from srpsim import TunnelSend, harness, load_scenario, run_scenario, srp
from srpsim.srp import Recorder, RouteRecord, Rrep, Rreq, execute

RREQ = Rreq("S", "T", 1, 7, ("a",), None)
RREP = Rrep("S", "T", 1, ("a",), 9, None)
RECORD = RouteRecord(route=("S", "a", "T"), t1=1.0, t2=4.0, qid=1)

# (step method, its arguments as the act code passes them, the call that
# `execute` makes of the recorded effect)
CALLS = [
    ("trace_step", ("S", "relay", "2.2.4", RREQ), ("S", "relay", "2.2.4", RREQ)),
    ("trace_step", ("S", "conclude", "dst=T qid=1 accepted=0"),
     ("S", "conclude", "dst=T qid=1 accepted=0", None)),
    ("bcast_l", ("S", RREQ), ("S", RREQ)),
    ("send_l", ("S", "a", RREP), ("S", "a", RREP)),
    ("arm_timer", ("S", 9.0, ("replywait", "T", 1)), ("S", 9.0, ("replywait", "T", 1))),
    ("accept_route", ("S", RECORD), ("S", RECORD)),
]


class CallLog:
    """An engine that logs each step-method call it is given."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args: self.calls.append((name, args))


@pytest.mark.parametrize("method, args, replayed", CALLS, ids=[c[0] for c in CALLS])
def test_a_recorded_call_replays_through_execute_as_the_same_call(method, args, replayed):
    recorder = Recorder()
    getattr(recorder, method)(*args)
    (effect,) = recorder.effects
    engine = CallLog()
    execute(engine, args[0], [effect])
    assert engine.calls == [(method, replayed)]


def test_execute_refuses_an_unknown_effect_naming_the_node():
    engine = CallLog()
    with pytest.raises(RuntimeError, match=r"^unexpected effect TunnelSend\(.*\) from M$"):
        execute(engine, "M", [srp.Broadcast(RREQ), TunnelSend(RREQ), srp.Broadcast(RREQ)])
    assert engine.calls == [("bcast_l", ("M", RREQ))]  # the effects before it ran


@pytest.mark.parametrize("stem", ["benign_basic", "benign_augmented", "benign_single_hop"])
def test_correct_nodes_build_no_effect(monkeypatch, stem):
    scen = load_scenario(next(p for p in harness.bundled_scenarios() if p.stem == stem))
    want = run_scenario(scen)

    def refused(*args, **kwargs):
        raise AssertionError("an effect was built on the correct-node path")
    for name in ("Note", "Broadcast", "Unicast", "ArmTimer", "Accept"):
        monkeypatch.setattr(srp, name, refused)
    got = run_scenario(scen)
    assert got.records and got.digest == want.digest
