"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and campaign sizes.  The campaigns are seeded and deterministic.
"""

import random
import time
from dataclasses import asdict

from srpsim import (AdversaryClass, FuzzConfig, GKind, accuracy_campaign,
                    bundled_scenarios, check_fresh, check_weakly_fresh,
                    edge_key, from_scaled, fuzz_campaign, load_scenario,
                    run_scenario)
from srpsim.harness import random_scenario
from srpsim.scenario import build
from srpsim.srp import RULES

from step_cases import DISCARD_CASES
from test_verifier import brute_weakly_fresh, random_topology_and_route

FUZZ_RUNS = 10_000
ACCURACY_RUNS_PER_CELL = 1_000


def _report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 1: loop-freedom under arbitrary adversaries
# ---------------------------------------------------------------------------

def test_criterion_1_loop_freedom_under_arbitrary_adversaries():
    t0 = time.time()
    looped = []
    corpus_routes = 0
    for p in bundled_scenarios():
        res = run_scenario(load_scenario(p))
        corpus_routes += len(res.records)
        looped += [v.route for v in res.verdicts if not v.loop_free]
    report = fuzz_campaign(FuzzConfig(
        runs=FUZZ_RUNS, klass=AdversaryClass.ARBITRARY, mode="basic",
        max_nodes=8, seed=100))
    elapsed = time.time() - t0
    loops = report.by_kind()["loop"]
    ok = not looped and not loops and report.accepted_routes > 2000 and elapsed < 300
    _report(
        "1 (loop-freedom, arbitrary adversaries)", ok,
        f"corpus routes={corpus_routes}, fuzz runs={report.runs}, "
        f"fuzz accepted={report.accepted_routes}, repeated-node routes="
        f"{len(looped) + len(loops)}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 2: freshness under independent adversaries
# ---------------------------------------------------------------------------

FRESHNESS_ATTACK_FAMILIES = [
    ("tamper_nodelist_downstream_independent", ("u", "v")),
    ("shortcut_relay_independent", ("u", "v")),
    ("tamper_nodelist_upstream_independent", ("u", "M")),
    ("tamper_rrep_route_independent", ("u", "v")),
    ("impersonate_t_independent", ("u", "v")),
    ("forge_rrep_independent", ("u", "v")),
    ("replay_stale_rrep_independent", ("b", "T")),
]


def test_criterion_2_freshness_under_independent_adversaries():
    t0 = time.time()
    by_name = {p.stem: p for p in bundled_scenarios()}
    family_violations = []
    for name, victim in FRESHNESS_ATTACK_FAMILIES:
        res = run_scenario(load_scenario(by_name[name]))
        want = edge_key(*victim)
        for v in res.verdicts:
            # a victim link may legitimately appear only while it was up:
            # any acceptance must still verify fresh in its own window
            if not v.fresh:
                family_violations.append((name, v.route))
        if name != "replay_stale_rrep_independent":
            for r in res.records:
                if any(edge_key(a, b) == want for a, b in zip(r.route, r.route[1:])):
                    family_violations.append((name, r.route))
    report = fuzz_campaign(FuzzConfig(
        runs=FUZZ_RUNS, klass=AdversaryClass.INDEPENDENT, mode="basic",
        max_nodes=8, seed=200))
    elapsed = time.time() - t0
    kinds = report.by_kind()
    ok = (not family_violations and not kinds["freshness"]
          and not kinds["loop"] and report.accepted_routes > 2000)
    _report(
        "2 (freshness, independent adversaries)", ok,
        f"families={len(FRESHNESS_ATTACK_FAMILIES)}, family violations="
        f"{family_violations}, fuzz runs={report.runs}, fuzz accepted="
        f"{report.accepted_routes}, freshness violations="
        f"{len(kinds['freshness'])}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 3: the arbitrary-adversary boundary (weak freshness)
# ---------------------------------------------------------------------------

def test_criterion_3_weak_freshness_boundary():
    by_name = {p.stem: p for p in bundled_scenarios()}
    problems = []
    timings = {}

    t0 = time.time()
    res = run_scenario(load_scenario(by_name["fig1a_tunnel"]))
    timings["fig1a"] = time.time() - t0
    tunneled = [r for r in res.records
                if any(edge_key(a, b) == ("M1", "M2")
                       for a, b in zip(r.route, r.route[1:]))]
    if not tunneled:
        problems.append("fig1a: no accepted route over the never-up link")
    for v in res.verdicts:
        if not (v.loop_free and not v.fresh and v.weakly_fresh):
            problems.append(f"fig1a verdict pattern wrong: {asdict(v)}")
        elif v.weak_witness is None or set(v.weak_witness[2]) != {"M1", "y", "M2"}:
            problems.append(f"fig1a witness is not the relay path: {v.weak_witness}")

    t0 = time.time()
    res = run_scenario(load_scenario(by_name["fig1b_chain"]))
    timings["fig1b"] = time.time() - t0
    fabricated = [r for r in res.records
                  if any(edge_key(a, b) == ("u", "v")
                         for a, b in zip(r.route, r.route[1:]))]
    if not fabricated:
        problems.append("fig1b: no accepted route with the fabricated segment")
    for v in res.verdicts:
        if not (v.loop_free and not v.fresh and v.weakly_fresh):
            problems.append(f"fig1b verdict pattern wrong: {asdict(v)}")

    for name in ("fig1a_demoted_independent", "fig1b_demoted_independent"):
        res = run_scenario(load_scenario(by_name[name]))
        if res.records:
            problems.append(f"{name}: accepted {len(res.records)} routes")

    slow = {k: v for k, v in timings.items() if v >= 1.0}
    ok = not problems and not slow
    _report("3 (weak-freshness boundary)", ok,
            f"fig1a={timings['fig1a'] * 1000:.0f}ms, "
            f"fig1b={timings['fig1b'] * 1000:.0f}ms, problems={problems}")


# ---------------------------------------------------------------------------
# Criterion 4: accuracy bounds
# ---------------------------------------------------------------------------

def test_criterion_4a_accuracy_bound_campaign():
    t0 = time.time()
    cells = violations = 0
    accepted_total = 0
    empty_cells = []
    for kind in (GKind.ADD, GKind.MAX, GKind.MIN):
        for n in range(2, 7):
            for eps in (0.01, 0.1):
                for dtil in (0.0, eps / 2):
                    cells += 1
                    accepted, viol = accuracy_campaign(
                        kind, n, eps, dtil, runs=ACCURACY_RUNS_PER_CELL,
                        seed=17_000 + cells)
                    accepted_total += accepted
                    violations += len(viol)
                    if accepted == 0:
                        empty_cells.append((kind.value, n, eps, dtil))
    elapsed = time.time() - t0
    ok = violations == 0 and not empty_cells
    _report("4a (accuracy bound campaign)", ok,
            f"cells={cells} x {ACCURACY_RUNS_PER_CELL} runs, accepted routes="
            f"{accepted_total}, bound violations={violations}, "
            f"empty cells={empty_cells}, {elapsed:.0f}s")


def test_criterion_4_per_hop_and_sum_error_chain_bounds():
    """On every accepted route, the realized per-hop reporting error stays
    under the propagation chain limit (distance to the nearer correct end
    node times the tolerance, plus the honest measurement error), and the
    interior errors sum below the chain's total."""
    from srpsim.harness import accuracy_scenario
    eps = 0.1
    bad = []
    checked = 0
    for n in (3, 4, 5):
        for dtil in (0.0, 0.05):
            sum_bound = eps * ((n * n - 1) / 4 if n % 2 else n * n / 4) \
                + (n - 1) * dtil
            for i in range(50):
                rng = random.Random(f"hopchain|{n}|{dtil}|{i}")
                scen = accuracy_scenario(GKind.ADD, n, eps, dtil, 9000 + i, rng)
                engine = build(scen)
                engine.run()
                for rec in engine.accepted:
                    checked += 1
                    errs = []
                    for idx, ((a, b), rep) in enumerate(
                            zip(zip(rec.route, rec.route[1:]), rec.reported), start=1):
                        actual = scen.metrics.actual[edge_key(a, b)]
                        errs.append(abs(from_scaled(rep) - actual))
                    # entry n was appended by the destination: noise only
                    if errs[n - 1] > dtil + 1e-12:
                        bad.append(("end-entry", n, dtil, i, errs[n - 1]))
                    for idx in range(1, n):
                        if errs[idx - 1] >= min(idx, n - idx) * eps + dtil:
                            bad.append(("hop", n, dtil, i, idx, errs[idx - 1]))
                    if sum(errs[:n - 1]) >= sum_bound:
                        bad.append(("sum", n, dtil, i, sum(errs[:n - 1]), sum_bound))
    ok = not bad and checked > 100
    _report("4 (per-hop and sum error chain bounds)", ok,
            f"accepted routes checked={checked}, violations={bad[:5]}")


def _max_feasible_error_sum_units(n, eps_units, dtil_units):
    """Exhaustive grid maximization of the total reporting error subject to
    every pairwise consistency constraint (strict inequalities on the grid)."""
    cap_edge = eps_units + dtil_units - 1  # delta_1, delta_{n-1}
    step = eps_units - 1                   # |delta_i - delta_{i+1}|
    best = 0
    hi = [min(i, n - i) * eps_units + dtil_units for i in range(1, n)]

    def extend(i, prev, total):
        nonlocal best
        if i == n - 1:
            lo = max(0, prev - step) if i > 1 else 0
            upper = min(cap_edge, prev + step if i > 1 else cap_edge, hi[i - 1])
            if upper >= lo:
                best = max(best, total + upper)
            return
        lo = 0
        upper = min(hi[i - 1], cap_edge if i == 1 else prev + step)
        start = upper
        stop = (max(0, prev - step) if i > 1 else 0) - 1
        for d in range(start, stop, -1):
            # remaining positions can add at most their caps
            bound = total + d + sum(hi[i:])
            if bound <= best:
                break
            extend(i + 1, d, total + d)

    extend(1, 0, 0)
    return best


def test_criterion_4b_error_sum_brute_force_oracle():
    n = 5
    results = []
    ok = True
    for eps in (0.01, 0.1):
        for dtil in (0.0, eps / 2):
            res_units = eps / 10.0
            eps_u, dtil_u = 10, round(dtil / res_units)
            max_units = _max_feasible_error_sum_units(n, eps_u, dtil_u)
            max_sum = max_units * res_units
            bound = eps * (n * n - 1) / 4 + (n - 1) * dtil
            results.append((eps, dtil, max_sum, bound))
            if not max_sum < bound:
                ok = False
    _report("4b (error-sum brute-force oracle, n=5)", ok,
            "; ".join(f"eps={e} dtil={d}: max={m:.4f} < bound={b:.4f}"
                      for e, d, m, b in results))


# ---------------------------------------------------------------------------
# Criterion 5: benign composite
# ---------------------------------------------------------------------------

def test_criterion_5_benign_augmented_composite():
    by_name = {p.stem: p for p in bundled_scenarios()}
    res = run_scenario(load_scenario(by_name["benign_augmented"]))
    ok = (len(res.records) >= 1
          and all(v.loop_free and v.fresh and v.accurate is True
                  and v.metric_error == 0.0 for v in res.verdicts))
    _report("5 (benign augmented composite)", ok,
            f"accepted={len(res.records)}, verdicts="
            f"{[(v.loop_free, v.fresh, v.accurate, v.metric_error) for v in res.verdicts]}")


# ---------------------------------------------------------------------------
# Criterion 6: step-level conformance
# ---------------------------------------------------------------------------

def test_criterion_6_numbered_checks_fire_with_matching_rule_ids():
    wrong = []
    for case in DISCARD_CASES:
        verdict, expected = case()
        if verdict is not expected:
            wrong.append((case.__name__, expected.text, verdict))
    covered = {case()[1] for case in DISCARD_CASES}
    missing = sorted(rule.text for rule in set(RULES) - covered)
    ok = not wrong and covered == set(RULES)
    _report("6 (step-level conformance)", ok,
            f"cases={len(DISCARD_CASES)}, rules={len(RULES)}, wrong={wrong}, "
            f"rules without a case={missing}")


# ---------------------------------------------------------------------------
# Criterion 7: determinism
# ---------------------------------------------------------------------------

def test_criterion_7_replay_determinism():
    mismatches = 0
    for i in range(100):
        rng = random.Random(f"det|{i}")
        klass = rng.choice((AdversaryClass.ARBITRARY, AdversaryClass.INDEPENDENT))
        mode = rng.choice(("basic", "augmented"))
        seed = rng.randrange(2 ** 32)
        rng_a = random.Random(f"det-scen|{i}")
        rng_b = random.Random(f"det-scen|{i}")
        ra = run_scenario(random_scenario(rng_a, klass, mode, 8, seed))
        rb = run_scenario(random_scenario(rng_b, klass, mode, 8, seed))
        if ra.digest != rb.digest:
            mismatches += 1
        elif [asdict(v) for v in ra.verdicts] != [asdict(v) for v in rb.verdicts]:
            mismatches += 1
    _report("7 (replay determinism)", mismatches == 0,
            f"100 scenario/seed pairs run twice, digest mismatches={mismatches}")


# ---------------------------------------------------------------------------
# Criterion 8: weak-freshness oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_8_weak_freshness_oracle_equivalence():
    rng = random.Random(424242)
    disagreements = []
    for i in range(200):
        smap, route = random_topology_and_route(rng)
        got, _ = check_weakly_fresh(route, smap, 0.0, 10.0)
        want = brute_weakly_fresh(route, smap, 0.0, 10.0)
        if got != want:
            disagreements.append((i, route))
        fresh, _ = check_fresh(route, smap, 0.0, 10.0)
        if fresh and not got:
            disagreements.append((i, route, "fresh-but-not-weak"))
    _report("8 (weak-freshness oracle equivalence)", not disagreements,
            f"200 random topologies, disagreements={disagreements}")
