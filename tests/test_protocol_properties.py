"""End-to-end protocol properties over whole simulation runs: single relay
per query, recovery across link churn, concurrent discoveries, and the
tunnel's up-in-sequence precondition."""

from collections import Counter

from srpsim import edge_key, run_scenario, scenario_from_dict
from srpsim.scenario import build


def _run(d):
    return run_scenario(scenario_from_dict(d))


def test_correct_node_relays_each_query_at_most_once():
    # diamond: m hears the same query via a and via b
    d = {
        "name": "diamond",
        "nodes": ["S", "a", "b", "m", "T"],
        "config": {"seed": 4, "end_time": 80.0},
        "links": [["S", "a", [[0, 80]]], ["S", "b", [[0, 80]]],
                  ["a", "m", [[0, 80]]], ["b", "m", [[0, 80]]],
                  ["m", "T", [[0, 80]]]],
        "keys": [["S", "T"]],
        "discoveries": [{"src": "S", "dst": "T", "at": 1.0}],
        "expect": {"min_accepted": 1, "fresh": "all"},
    }
    res = _run(d)
    assert not res.expect_failures
    relays = Counter()
    for te in res.trace:
        if te.primitive == "step" and te.outcome == "relay" and te.detail.startswith("2.2.4"):
            relays[te.node] += 1
    assert all(c == 1 for c in relays.values()), relays
    # the second copy was discarded as already processed
    assert any(te.node == "m" and te.outcome == "discard"
               and "2.2.1" in te.detail for te in res.trace)


def test_discovery_recovers_after_link_churn():
    # the only path is down for the whole first reply-wait window; a retry
    # succeeds once the link comes back
    d = {
        "name": "churn",
        "nodes": ["S", "a", "T"],
        "config": {"seed": 4, "end_time": 120.0, "reply_wait_min": 10.0,
                   "reply_wait_max": 160.0},
        "links": [["S", "a", [[0, 120]]], ["a", "T", [[30, 120]]]],
        "keys": [["S", "T"]],
        "discoveries": [{"src": "S", "dst": "T", "at": 1.0}],
        "expect": {"min_accepted": 1, "fresh": "all"},
    }
    res = _run(d)
    assert not res.expect_failures
    (rec,) = res.records
    assert rec.t1 >= 30.0 - 10.0  # accepted by a retry attempt, not the first
    assert rec.qid > 1
    assert any(te.outcome == "retry" for te in res.trace)


def test_simultaneous_discoveries_in_both_directions():
    d = {
        "name": "bidir",
        "nodes": ["S", "a", "T"],
        "config": {"seed": 6, "end_time": 100.0},
        "links": [["S", "a", [[0, 100]]], ["a", "T", [[0, 100]]]],
        "keys": [["S", "T"]],
        "discoveries": [{"src": "S", "dst": "T", "at": 1.0},
                        {"src": "T", "dst": "S", "at": 1.5}],
        "expect": {"min_accepted": 2, "fresh": "all", "loop_free": "all"},
    }
    res = _run(d)
    assert not res.expect_failures
    routes = {r.route for r in res.records}
    assert ("S", "a", "T") in routes and ("T", "a", "S") in routes


def test_tunnel_requires_path_links_up_in_sequence():
    # the relay path to the colluder dies before the query can cross it, so
    # the fabricated link is never certified and nothing is accepted
    d = {
        "name": "fig1a-dead-path",
        "nodes": ["S", "x", "M1", "y", "M2", "z", "T"],
        "config": {"seed": 3, "end_time": 120.0},
        "links": [["S", "x", [[0, 120]]], ["x", "M1", [[0, 120]]],
                  ["M1", "y", [[0, 120]]], ["y", "M2", [[0, 2]]],
                  ["M2", "z", [[0, 120]]], ["z", "T", [[0, 120]]]],
        "keys": [["S", "T"]],
        "adversaries": {
            "M1": {"class": "arbitrary", "attack": "fig1a_tunnel",
                   "params": {"role": "entry", "path": ["M1", "y", "M2"]}},
            "M2": {"class": "arbitrary", "attack": "fig1a_tunnel",
                   "params": {"role": "exit", "path": ["M2", "y", "M1"]}},
        },
        "discoveries": [{"src": "S", "dst": "T", "at": 1.0}],
        "expect": {"max_accepted": 0, "victim_link": ["M1", "M2"],
                   "victim_link_accepted": "none"},
    }
    res = _run(d)
    assert not res.expect_failures
    assert any(te.primitive == "tunnel" and te.outcome == "dropped"
               for te in res.trace)


def test_attack_traces_carry_rule_numbered_discards():
    from srpsim import bundled_scenarios, load_scenario
    by_name = {p.stem: p for p in bundled_scenarios()}
    expectations = {
        "shortcut_relay_independent": "4.1",
        "tamper_metriclist_rrep_independent": "4.2.2",
        "tamper_rrep_route_independent": "4.5",
        "tamper_metriclist_rreq_downstream_independent": "2.2.4.a",
        "loop_inject_rreq_independent": "2.2.3",
    }
    for name, rule in expectations.items():
        res = run_scenario(load_scenario(by_name[name]))
        hits = [te for te in res.trace
                if te.outcome == "discard" and te.detail.startswith(rule + ":")]
        assert hits, f"{name}: no discard with rule id {rule} in the trace"


def test_accepted_route_times_bracket_the_discovery():
    d = {
        "name": "t1t2",
        "nodes": ["S", "a", "T"],
        "config": {"seed": 9, "end_time": 60.0},
        "links": [["S", "a", [[0, 60]]], ["a", "T", [[0, 60]]]],
        "keys": [["S", "T"]],
        "discoveries": [{"src": "S", "dst": "T", "at": 2.0}],
    }
    res = _run(d)
    (rec,) = res.records
    assert rec.t1 == 2.0
    assert rec.t1 < rec.t2 <= 2.0 + 4 * 1.0 + 1e-9  # at most 4 hops of delay


def test_unforgeable_acceptance_under_every_bundled_attack(mac_calls):
    """Any accepted reply's authenticator must have been computed by one of
    the end nodes (the key-access rule makes third-party digests impossible)."""
    from srpsim import bundled_scenarios, load_scenario
    for p in bundled_scenarios():
        scen = load_scenario(p)
        mac_calls.clear()
        engine = build(scen)
        engine.run()
        for rec in engine.accepted:
            src, dst = rec.route[0], rec.route[-1]
            holders = {h for h, pair, d in mac_calls
                       if pair == tuple(sorted((src, dst)))}
            assert holders <= {src, dst}
