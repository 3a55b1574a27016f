"""Route property checks against the link-schedule oracle, including the
exhaustive-search cross-check for weak freshness."""

import random
from dataclasses import asdict

import pytest

from srpsim import (GKind, LinkMetricModel, LinkSchedule, RouteRecord,
                    ScheduleMap, check_accuracy, check_fresh, check_loop_free,
                    check_weakly_fresh, to_scaled, verdict_all)


def smap(entries, nodes=None):
    links = [LinkSchedule(edge=tuple(sorted((u, v))), up_intervals=tuple(iv))
             for u, v, iv in entries]
    roster = nodes or sorted({n for u, v, _ in entries for n in (u, v)})
    return ScheduleMap(roster, links)


class TestLoopFree:
    def test_distinct_nodes(self):
        assert check_loop_free(["S", "v1", "v2", "T"])

    def test_repeat_detected(self):
        assert not check_loop_free(["S", "v1", "v2", "v1", "T"])

    def test_two_node_route(self):
        assert check_loop_free(["S", "T"])

    def test_empty_invalid(self):
        with pytest.raises(ValueError):
            check_loop_free([])


class TestFresh:
    def test_links_up_throughout(self):
        s = smap([("S", "a", [(0, 100)]), ("a", "T", [(0, 100)])])
        ok, witness = check_fresh(["S", "a", "T"], s, 1, 10)
        assert ok and witness == ()

    def test_link_up_only_after_window(self):
        s = smap([("S", "a", [(0, 100)]), ("a", "T", [(11, 20)])])
        ok, witness = check_fresh(["S", "a", "T"], s, 1, 10)
        assert not ok and witness == (("a", "T"),)

    def test_brief_up_inside_window_counts(self):
        s = smap([("S", "a", [(0, 100)]), ("a", "T", [(4, 5)])])
        ok, _ = check_fresh(["S", "a", "T"], s, 1, 10)
        assert ok

    def test_interval_touching_only_window_edge_does_not_count(self):
        s = smap([("S", "a", [(0, 1)]), ("a", "T", [(10, 20)])])
        ok, witness = check_fresh(["S", "a", "T"], s, 1, 10)
        assert not ok and ("S", "a") in witness

    def test_bad_interval_rejected(self):
        s = smap([("S", "a", [(0, 100)])])
        with pytest.raises(ValueError):
            check_fresh(["S", "a"], s, 10, 10)

    def test_self_edge_is_a_link_never_up(self):
        # a stored route may repeat a node back to back; the hop is no link
        s = smap([("S", "a", [(0, 100)]), ("a", "T", [(0, 100)])])
        ok, witness = check_fresh(["S", "a", "a", "T"], s, 1, 10)
        assert not ok and witness == (("a", "a"),)
        (v,) = verdict_all([RouteRecord(route=("S", "a", "a", "T"), t1=1.0,
                                        t2=9.0, qid=1)], s)
        assert not v.loop_free and not v.fresh and v.never_up_links == (("a", "a"),)


class TestWeaklyFresh:
    def test_fresh_route_is_weakly_fresh(self):
        s = smap([("S", "a", [(0, 100)]), ("a", "T", [(0, 100)])])
        ok, witness = check_weakly_fresh(["S", "a", "T"], s, 1, 10)
        assert ok and witness is None

    def test_detour_around_never_up_link(self):
        # claimed S-x-m1-m2-z-T with (m1,m2) never up; real path m1-y-m2
        s = smap([
            ("S", "x", [(0, 100)]), ("x", "m1", [(0, 100)]),
            ("m1", "y", [(0, 100)]), ("y", "m2", [(0, 100)]),
            ("m2", "z", [(0, 100)]), ("z", "T", [(0, 100)]),
        ])
        ok, witness = check_weakly_fresh(["S", "x", "m1", "m2", "z", "T"], s, 1, 50)
        assert ok
        j, k, detour = witness
        assert (j, k) == (2, 3) and detour == ("m1", "y", "m2")

    def test_no_detour_means_not_weakly_fresh(self):
        # (m1,m2) never up and no alternative connection between them
        s = smap([
            ("S", "m1", [(0, 100)]), ("m2", "T", [(0, 100)]),
            ("w", "S", [(0, 100)]),
        ], nodes=["S", "m1", "m2", "T", "w"])
        ok, witness = check_weakly_fresh(["S", "m1", "m2", "T"], s, 1, 50)
        assert not ok and witness is None

    def test_single_link_route_has_no_interior_segment(self):
        s = smap([("S", "T", [(20, 30)])])
        ok, _ = check_weakly_fresh(["S", "T"], s, 1, 10)
        assert not ok
        s2 = smap([("S", "T", [(0, 30)])])
        ok2, _ = check_weakly_fresh(["S", "T"], s2, 1, 10)
        assert ok2

    def test_prefix_and_suffix_must_be_fresh(self):
        # detour exists but a suffix link is also never up inside the window
        s = smap([
            ("S", "m1", [(0, 100)]), ("m1", "y", [(0, 100)]),
            ("y", "m2", [(0, 100)]), ("m2", "T", [(60, 100)]),
        ])
        ok, _ = check_weakly_fresh(["S", "m1", "m2", "T"], s, 1, 50)
        assert not ok


class TestAccuracy:
    def model(self, **kw):
        defaults = dict(kind=GKind.ADD, epsilon=0.1, delta_tilde=0.05,
                        actual={("S", "a"): 1.0, ("a", "T"): 1.0})
        defaults.update(kw)
        return LinkMetricModel(**defaults)

    def test_small_error_within_bound(self):
        ok, err, bound = check_accuracy(
            ["S", "a", "T"], (to_scaled(1.0), to_scaled(1.1)), self.model())
        assert ok and err == pytest.approx(0.1) and bound == pytest.approx(0.5)

    def test_exact_report_zero_error(self):
        ok, err, _ = check_accuracy(
            ["S", "a", "T"], (to_scaled(1.0), to_scaled(1.0)), self.model())
        assert ok and err == 0.0

    def test_error_beyond_bound_fails(self):
        ok, err, bound = check_accuracy(
            ["S", "a", "T"], (to_scaled(1.5), to_scaled(1.1)), self.model())
        assert err == pytest.approx(0.6) and not ok

    def test_missing_actual_is_not_evaluable(self):
        m = self.model(actual={("S", "a"): 1.0})
        ok, err, _ = check_accuracy(["S", "a", "T"], (to_scaled(1.0),) * 2, m)
        assert ok is None and err is None

    def test_report_beyond_float_range_is_inaccurate(self):
        # a stored record's `reported` is read as given; it must not crash
        # the verifier
        ok, err, _ = check_accuracy(["S", "a", "T"], (10 ** 400, 1), self.model())
        assert ok is False and err == float("inf")

    def test_length_mismatch_invalid(self):
        with pytest.raises(ValueError):
            check_accuracy(["S", "a", "T"], (to_scaled(1.0),), self.model())

    def test_product_error_in_log_domain(self):
        m = self.model(kind=GKind.MUL)
        ok, err, bound = check_accuracy(
            ["S", "a", "T"], (to_scaled(1.2), to_scaled(1.0)), m)
        import math
        assert err == pytest.approx(abs(math.log(1.2)), rel=1e-6)

    @pytest.mark.parametrize("links, reported", [(60, 1), (2, 10 ** 306)],
                             ids=["underflow", "overflow"])
    def test_product_beyond_float_range_is_judged(self, links, reported):
        # the product of the reported metrics leaves float range (1e-360,
        # 1e600); the error is then the distance of the sums of logs
        import math
        route = [f"n{i}" for i in range(links + 1)]
        m = self.model(kind=GKind.MUL,
                       actual={tuple(sorted(e)): 1.0 for e in zip(route, route[1:])})
        ok, err, _ = check_accuracy(route, (reported,) * links, m)
        assert ok is False
        assert err == pytest.approx(links * abs(math.log(reported / 10 ** 6)))


_MUL = LinkMetricModel(kind=GKind.MUL, epsilon=0.1,
                      actual={("S", "a"): 1.0, ("a", "T"): 1.0})


@pytest.mark.parametrize("call, expected", [
    (lambda s: check_fresh(("S", "a"), s, 5.0, 5.0), "need t1 < t2"),
    (lambda s: check_weakly_fresh(("S", "a", "T"), s, 6.0, 5.0), "need t1 < t2"),
    (lambda s: check_accuracy(("S",), (), _MUL), "route has no links"),
    (lambda s: check_accuracy(("S", "a", "T"), (to_scaled(1.0), 0), _MUL)[:2],
     (False, float("inf"))),
], ids=["fresh-t1-not-before-t2", "weakly-fresh-t1-not-before-t2",
        "route-of-one-node", "product-of-a-nonpositive-report"])
def test_guard_on_input_no_run_yields(call, expected):
    # a string is the ValueError's message
    s = smap([("S", "a", [(0, 10)]), ("a", "T", [(0, 10)])])
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            call(s)
    else:
        assert call(s) == expected


class TestVerdictAll:
    def test_verifier_is_read_only_and_repeatable(self):
        s = smap([("S", "a", [(0, 100)]), ("a", "T", [(0, 100)])])
        rec = RouteRecord(route=("S", "a", "T"), t1=1.0, t2=9.0, qid=1)
        before = [(sch.edge, sch.up_intervals) for sch in
                  (s.get("S", "a"), s.get("a", "T"))]
        v1 = verdict_all([rec], s)
        v2 = verdict_all([rec], s)
        assert [asdict(x) for x in v1] == [asdict(x) for x in v2]
        after = [(sch.edge, sch.up_intervals) for sch in
                 (s.get("S", "a"), s.get("a", "T"))]
        assert before == after

    def test_faulty_endpoints_tagged(self):
        s = smap([("S", "a", [(0, 100)]), ("a", "T", [(0, 100)])])
        rec = RouteRecord(route=("S", "a", "T"), t1=1.0, t2=9.0, qid=1)
        (v,) = verdict_all([rec], s, faulty_endpoints={"S"})
        assert v.endpoints_faulty


# --- exhaustive oracle ------------------------------------------------------

def brute_weakly_fresh(route, schedules, t1, t2):
    """Independent re-derivation: enumerate every (j, k) segment and every
    simple path between its endpoints over links up inside the window."""
    links = list(zip(route, route[1:]))
    fresh = [schedules.up_within(u, v, t1, t2) for u, v in links]
    if all(fresh):
        return True
    n = len(links)
    adj = {x: {y for y, s in schedules.neighbours(x) if s.up_within(t1, t2)}
           for x in schedules.nodes}

    def any_simple_path(a, b):
        if a not in adj or b not in adj:
            return False
        stack = [(a, {a})]
        while stack:
            x, seen = stack.pop()
            if x == b:
                return True
            for y in adj[x]:
                if y not in seen:
                    stack.append((y, seen | {y}))
        return False

    for j in range(1, n):
        for k in range(j + 1, n):
            if all(fresh[:j]) and all(fresh[k:]) and any_simple_path(route[j], route[k]):
                return True
    return False


def random_topology_and_route(rng):
    n_nodes = rng.randint(3, 6)
    nodes = [f"n{i}" for i in range(n_nodes)]
    entries = []
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            r = rng.random()
            if r < 0.35:
                entries.append((u, v, [(0.0, 10.0)]))       # fresh in window
            elif r < 0.55:
                entries.append((u, v, [(20.0, 30.0)]))      # up, but too late
            elif r < 0.65:
                entries.append((u, v, [(4.0, 6.0)]))        # briefly fresh
    s = smap(entries, nodes=nodes)
    k = rng.randint(2, min(5, n_nodes))
    route = rng.sample(nodes, k)
    return s, route


def test_weakly_fresh_matches_exhaustive_enumeration():
    rng = random.Random(20240817)
    checked = disagreements = 0
    for _ in range(200):
        s, route = random_topology_and_route(rng)
        got, witness = check_weakly_fresh(route, s, 0.0, 10.0)
        want = brute_weakly_fresh(route, s, 0.0, 10.0)
        checked += 1
        if got != want:
            disagreements += 1
        if witness is not None:
            j, k, detour = witness
            # the witness itself must be valid
            assert detour[0] == route[j] and detour[-1] == route[k]
            for u, v in zip(detour, detour[1:]):
                assert s.up_within(u, v, 0.0, 10.0)
    assert checked == 200 and disagreements == 0


def test_fresh_implies_weakly_fresh_on_random_inputs():
    rng = random.Random(77)
    for _ in range(300):
        s, route = random_topology_and_route(rng)
        fresh, _ = check_fresh(route, s, 0.0, 10.0)
        weakly, _ = check_weakly_fresh(route, s, 0.0, 10.0)
        if fresh:
            assert weakly
