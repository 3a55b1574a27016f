"""Effects: `AdversaryNode._execute` refuses any object an attack script
returns that is not an effect, and the correct-node driver builds no effect
at all."""

import pytest

from srpsim import (AdversaryClass, Broadcast, RouteRecord, Rreq, SimConfig, adversary,
                    attack, harness, load_scenario, run_scenario)
from srpsim.adversary import AdversaryNode

from conftest import CallLog, make_state

RREQ = Rreq("S", "T", 1, 7, ("a",), None)
CFG = SimConfig(tau=1.0, tx_time=1.0, end_time=100.0, seed=1,
                reply_wait_min=8.0, reply_wait_max=64.0)


def test_execute_refuses_an_unknown_effect_naming_the_node():
    node = AdversaryNode("M", AdversaryClass.ARBITRARY, attack("passive"), make_state("M"),
                         CFG, roster=("S", "a", "M", "T"))
    engine = CallLog()
    record = RouteRecord(route=("S", "a", "T"), t1=1.0, t2=4.0, qid=1)
    with pytest.raises(RuntimeError, match=r"^unexpected effect RouteRecord\(.*\) from M$"):
        node._execute(engine, [Broadcast(RREQ), record, Broadcast(RREQ)])
    assert engine.calls == [("note_adversary_emission", ("M", RREQ)), ("bcast_l", ("M", RREQ))]


@pytest.mark.parametrize("stem", ["benign_basic", "benign_augmented", "benign_single_hop"])
def test_correct_nodes_build_no_effect(monkeypatch, stem):
    scen = load_scenario(next(p for p in harness.bundled_scenarios() if p.stem == stem))
    want = run_scenario(scen)

    def refused(*args, **kwargs):
        raise AssertionError("an effect was built on the correct-node path")
    for name in ("Broadcast", "Unicast"):
        monkeypatch.setattr(adversary, name, refused)
    got = run_scenario(scen)
    assert got.records and got.digest == want.digest
