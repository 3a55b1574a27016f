"""The process-wide memos behind `simcore.message_digest`, `identity.f_k`,
`Scenario.schedule_map` and `Scenario.key_rings`: what reaches them is
exact, they change no trace digest however warm or small they are, none
grows past its cap, and `identity.clear_memos` empties every one."""

import importlib
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest

from srpsim import (AdversaryClass, GKind, LinkSchedule, Rrep, Rreq,
                    ScenarioError, ScheduleError, build, bundled_scenarios,
                    encode_fields, identity, load_scenario, rings_for,
                    run_scenario, scenario_from_dict, simcore)
from srpsim import scenario as scenario_module
from srpsim.harness import accuracy_scenario, random_scenario

HERE = Path(__file__).resolve().parent


def sweep():
    """The bundled corpus under its authored seeds, a fuzz sweep in both
    classes and both modes, and accuracy lines with chained liars."""
    for path in bundled_scenarios():
        yield path.stem, load_scenario(path)
    for klass in AdversaryClass:
        for mode in ("basic", "augmented"):
            for s in range(12):
                sc = random_scenario(random.Random(f"fuzz-scenario|{s}"), klass, mode, 8, s)
                yield f"fuzz-{klass.value}-{mode}-{s}", sc
    for kind in GKind:
        for s in range(3):
            yield f"accuracy-{kind.value}-{s}", accuracy_scenario(
                kind, 6, 0.1, 0.05, s, random.Random(f"accuracy|{kind.value}|{s}"))


def sweep_digests() -> dict:
    return {name: f"{run_scenario(sc).digest:016x}" for name, sc in sweep()}


def _exact(value) -> bool:
    t = type(value)
    if t is tuple:
        return all(map(_exact, value))
    return t is str or t is int or value is None


def test_memo_keys_hold_only_exact_values(monkeypatch):
    """Equal keys must encode identically, so no bool, float, list or
    subclass may reach a memo: `True == 1` and `1.0 == 1`."""
    wire, macs, headers = [], [], []
    digest, f_k = simcore.message_digest, identity.f_k

    class RecordingHeaders(dict):
        def get(self, key, default=None):
            headers.append(key)
            return super().get(key, default)

    def recording_digest(msg):
        if msg is not None:
            wire.append(msg.wire_fields())
        return digest(msg)

    def recording_f_k(key, fields):
        macs.append(fields)
        return f_k(key, fields)

    monkeypatch.setattr(simcore, "message_digest", recording_digest)
    monkeypatch.setattr(identity, "f_k", recording_f_k)
    monkeypatch.setattr(simcore, "_HEADERS", RecordingHeaders())
    for name, sc in sweep():
        wire.clear()
        macs.clear()
        headers.clear()
        identity.clear_memos()  # else warm digests reach no header
        build(sc).run()
        assert wire and headers, name
        bad = [f for f in wire + macs + headers if type(f) is not tuple or not _exact(f)]
        assert not bad, (name, bad[:3])


def test_warm_and_starved_memos_give_a_cold_process_the_same_digests(monkeypatch):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(HERE.parent / "src"), str(HERE), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import json; from test_memos import sweep_digests; "
         "print(json.dumps(sweep_digests()))"],
        env=env, capture_output=True, text=True, check=True, timeout=300)
    cold = json.loads(out.stdout)
    sweep_digests()  # warm every memo
    assert sweep_digests() == cold
    # a cap of 2 clears each memo many times within a run
    monkeypatch.setattr(simcore, "DIGEST_MEMO_CAP", 2)
    monkeypatch.setattr(simcore, "HEADER_MEMO_CAP", 2)
    monkeypatch.setattr(identity, "MAC_MEMO_CAP", 2)
    monkeypatch.setattr(identity, "STR_MEMO_CAP", 2)
    # a cap of 1 keeps only the last scenario's map and rings
    monkeypatch.setattr(scenario_module, "SCHEDULE_MAP_MEMO_CAP", 1)
    monkeypatch.setattr(scenario_module, "KEY_RINGS_MEMO_CAP", 1)
    identity.clear_memos()  # else the warm entries answer every lookup
    assert sweep_digests() == cold
    assert len(simcore._DIGESTS) <= 2 and len(identity._MACS) <= 2
    assert len(simcore._HEADERS) <= 2
    assert len(identity._STR_BYTES) <= 2
    assert len(scenario_module._SCHEDULE_MAPS) == len(scenario_module._KEY_RINGS) == 1


def test_digest_memo_never_exceeds_its_cap():
    most = most_headers = 0
    for i in range(max(simcore.DIGEST_MEMO_CAP, simcore.HEADER_MEMO_CAP) + 100):
        simcore.message_digest(Rreq("S", "T", i, 7, ("a",)))  # a new header each
        most = max(most, len(simcore._DIGESTS))
        most_headers = max(most_headers, len(simcore._HEADERS))
    assert (most, most_headers) == (simcore.DIGEST_MEMO_CAP, simcore.HEADER_MEMO_CAP)


def test_a_relay_is_encoded_from_its_querys_header():
    """Digest input is `encode_fields` of the wire fields, whether the
    header's encoding is memoised or not; a relay adds no header entry."""
    identity.clear_memos()
    msgs = [Rreq("S", "T", 3, 2**63 + 1, (), (2500,)),  # the query, then relays
            Rreq("S", "T", 3, 2**63 + 1, ("a",), (2500, 1)),
            Rreq("S", "T", 3, 2**63 + 1, ("a", "b"), None),
            Rrep("S", "T", 3, ("b", "a"), 2**63 + 1, None),
            Rrep("S", "T", 3, ("b", "a"), 2**63 + 1, (1, 2, 3))]
    for msg in msgs:
        fields = msg.wire_fields()
        assert simcore._wire_bytes(fields) == encode_fields(fields)
    assert list(simcore._HEADERS) == [("rreq", "S", "T", 3, 2**63 + 1),
                                      ("rrep", "S", "T", 3, 2**63 + 1)]


def test_clear_memos_empties_every_memo_filled_through_remember():
    """A memo is a module-level dict that `remember` fills: each one the
    sources fill must be registered, so `clear_memos` reaches it."""
    src = Path(identity.__file__).parent
    filled = set()
    for path in sorted(src.glob("*.py")):
        for name in re.findall(r"(?<!def )\bremember\(\s*(\w+)", path.read_text()):
            filled.add((path.stem, name))
            memo = getattr(importlib.import_module(f"srpsim.{path.stem}"), name)
            assert any(memo is m for m in identity._MEMOS), (path.stem, name)
    assert filled == {("identity", "_STR_BYTES"), ("identity", "_MACS"),
                      ("simcore", "_DIGESTS"), ("simcore", "_HEADERS"),
                      ("scenario", "_SCHEDULE_MAPS"), ("scenario", "_KEY_RINGS")}
    run_scenario(load_scenario(bundled_scenarios()[0]))
    assert all(identity._MEMOS)
    identity.clear_memos()
    assert not any(identity._MEMOS)


def test_mac_memo_never_exceeds_its_cap():
    key = bytes(32)
    most = 0
    for i in range(identity.MAC_MEMO_CAP + 100):
        identity.f_k(key, ("S", "T", i))
        most = max(most, len(identity._MACS))
    assert most == identity.MAC_MEMO_CAP


MINIMAL = {"nodes": ["S", "T"], "links": [["S", "T", [[0, 40]]]], "keys": [["S", "T"]],
           "config": {"end_time": 40.0}, "discoveries": [{"src": "S", "dst": "T"}]}


def test_schedule_map_memo_never_exceeds_its_cap():
    scen = scenario_from_dict(MINIMAL)
    most = 0
    for i in range(scenario_module.SCHEDULE_MAP_MEMO_CAP + 5):
        links = (LinkSchedule(("S", "T"), ((0.0, 40.0 + i),)),)
        replace(scen, links=links).schedule_map
        most = max(most, len(scenario_module._SCHEDULE_MAPS))
    assert most == scenario_module.SCHEDULE_MAP_MEMO_CAP


def test_key_rings_memo_never_exceeds_its_cap():
    most = 0
    for i in range(scenario_module.KEY_RINGS_MEMO_CAP + 5):
        scenario_from_dict({**MINIMAL, "nodes": ["S", "T", f"n{i}"]}).key_rings
        most = max(most, len(scenario_module._KEY_RINGS))
    assert most == scenario_module.KEY_RINGS_MEMO_CAP


def test_a_map_or_rings_that_fail_to_build_leave_no_entry(monkeypatch):
    monkeypatch.setattr(scenario_module, "_SCHEDULE_MAPS", {})
    monkeypatch.setattr(scenario_module, "_KEY_RINGS", {})
    with pytest.raises(ScenarioError, match="undeclared node"):
        scenario_from_dict({**MINIMAL, "links": [["S", "ghost", [[0, 40]]]]})
    with pytest.raises(ScenarioError, match="duplicate schedule"):
        scenario_from_dict({**MINIMAL, "links": [["S", "T", [[0, 40]]]] * 2})
    assert scenario_module._SCHEDULE_MAPS == {}
    scen = scenario_from_dict(MINIMAL)
    with pytest.raises(ValueError, match="with itself"):
        replace(scen, keys=(("S", "T"), ("T", "T"))).key_rings
    with pytest.raises(ScheduleError):
        replace(scen, links=scen.links * 2).schedule_map
    assert len(scenario_module._SCHEDULE_MAPS) == 1 and scenario_module._KEY_RINGS == {}


def test_a_ring_refuses_a_new_key():
    """Rings are shared by every scenario of one roster and key pairs."""
    ring = scenario_from_dict(MINIMAL).key_rings["S"]
    with pytest.raises(TypeError):
        ring.keys["M"] = ring.keys["T"]
    with pytest.raises(FrozenInstanceError):
        ring.keys = {}
    assert not ring.holds("M")


@pytest.mark.parametrize("fields", [("S", "T", [1, 2]), ["S", "T", 1]],
                         ids=["nested-list", "list"])
def test_fields_given_as_lists_digest_as_tuples(fields):
    as_tuples = tuple(tuple(f) if isinstance(f, list) else f for f in fields)
    ring = rings_for(("S", "T"), (("S", "T"),))["S"]
    # the encoding does not tell a list from a tuple; a nested list is no
    # memo key, so that call is digested unmemoised
    assert ring.mac("T", fields) == ring.mac("T", as_tuples)


def test_a_message_holding_a_list_digests_as_with_a_tuple():
    assert simcore.message_digest(Rreq("S", "T", 1, 7, ["a", "b"])) \
        == simcore.message_digest(Rreq("S", "T", 1, 7, ("a", "b")))
