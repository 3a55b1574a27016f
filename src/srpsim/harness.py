"""Run orchestration: execute scenarios, judge their expectation blocks,
drive seeded fuzz campaigns over random topologies, and persist replayable
traces.

Exit-code contract: 0 when every expectation holds (or none declared), 1 when
an expectation or campaign property is violated, 2 for usage/IO errors.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .adversary import AdversaryClass
from .scenario import (AdversarySpec, MetricsSpec, Scenario, build,
                       load_scenario)
from .simcore import LinkSchedule, ScheduleMap, SimConfig, edge_key, trace_digest_of_lines
from .srp import RouteRecord
from .srp_qos import GKind, to_scaled
from .verifier import Verdict, summarize, verdict_all


@dataclass
class RunResult:
    scenario: Scenario
    seed: int
    trace: list
    digest: int
    records: list[RouteRecord]
    verdicts: list[Verdict]
    summary: dict
    expect_failures: list[str]

    @property
    def exit_code(self) -> int:
        return 0 if not self.expect_failures else 1


def _route_contains_link(route, link) -> bool:
    want = edge_key(*link)
    return any(edge_key(u, v) == want for u, v in zip(route, route[1:]))


def evaluate_expectations(expect: dict, records, verdicts) -> list[str]:
    """Check a scenario's expectation block; returns human-readable failures."""
    failures = []
    considered = [v for v in verdicts if not v.endpoints_faulty]
    n = len(records)
    if "min_accepted" in expect and n < expect["min_accepted"]:
        failures.append(f"accepted {n} routes, expected at least {expect['min_accepted']}")
    if "max_accepted" in expect and n > expect["max_accepted"]:
        failures.append(f"accepted {n} routes, expected at most {expect['max_accepted']}")
    for prop in ("loop_free", "fresh", "weakly_fresh", "accurate"):
        if prop not in expect:
            continue
        mode = expect[prop]
        if prop == "accurate":
            values = [v.accurate for v in considered if v.accurate is not None]
        else:
            values = [getattr(v, prop) for v in considered]
        if mode == "all" and not all(values):
            failures.append(f"{prop}: expected all, {values.count(False)} of "
                            f"{len(values)} routes violate it")
        elif mode == "not-all" and (not values or all(values)):
            failures.append(f"{prop}: expected at least one violation, saw none")
        elif mode == "none" and any(values):
            failures.append(f"{prop}: expected none to hold, some do")
    victim = expect.get("victim_link")
    if victim is not None:
        mode = expect.get("victim_link_accepted", "none")
        hits = sum(1 for r in records if _route_contains_link(r.route, victim))
        if mode == "none" and hits:
            failures.append(f"{hits} accepted routes contain the victim link {victim}")
        if mode == "some" and not hits:
            failures.append(f"no accepted route contains the victim link {victim}")
    if "max_metric_error" in expect:
        cap = expect["max_metric_error"]
        errs = [v.metric_error for v in considered if v.metric_error is not None]
        bad = [e for e in errs if e > cap]
        if bad:
            failures.append(f"metric errors {bad} exceed {cap}")
    return failures


def run_scenario(scenario: Scenario, seed: Optional[int] = None) -> RunResult:
    """Simulate one scenario, verify every accepted route, and judge the
    expectation block."""
    built = build(scenario, seed)
    engine = built.engine
    engine.run()
    records = [rec for _, rec in engine.accepted]
    verdicts = verdict_all(records, engine.schedules, built.model, built.faulty)
    failures = evaluate_expectations(scenario.expect, records, verdicts)
    classes = {spec.klass.value for spec in scenario.adversaries.values()}
    return RunResult(
        scenario=scenario, seed=engine.config.seed, trace=engine.trace,
        digest=engine.trace_digest(), records=records, verdicts=verdicts,
        summary=summarize(verdicts, classes), expect_failures=failures,
    )


# --------------------------------------------------------------------------
# Random scenario generation for fuzz campaigns
# --------------------------------------------------------------------------

_CHURN_PATTERNS = ("always", "early", "late", "window")


def _random_intervals(rng, end_time: float, tx_time: float):
    kind = rng.choice(_CHURN_PATTERNS)
    if kind == "always":
        return ((0.0, end_time),)
    lo = 2.0 * tx_time
    hi = max(end_time - 2.0 * tx_time, lo + 1.0)
    a = round(rng.uniform(lo, hi), 3)
    if kind == "early":
        return ((0.0, a),) if a >= tx_time else ((0.0, end_time),)
    if kind == "late":
        return ((a, end_time),) if end_time - a >= tx_time else ((0.0, end_time),)
    b = round(rng.uniform(a + tx_time, min(a + end_time / 2, end_time)), 3)
    return ((a, b),)


def random_scenario(rng: random.Random, klass: AdversaryClass, mode: str,
                    max_nodes: int, seed: int, bounds=None) -> Scenario:
    """A random churned topology with a persistent source-destination path,
    one or more fuzzing adversaries among the intermediates, and one or two
    discoveries.  The expectation block stays empty: campaign code checks the
    route properties directly."""
    end_time = 150.0
    n_inter = rng.randint(2, max(2, max_nodes - 2))
    inter = [f"n{i}" for i in range(n_inter)]
    nodes = ["S", "T"] + inter
    # at least one intermediate stays correct so an adversary-free persistent
    # path exists; adversaries attach alongside it
    n_adv = rng.randint(1, max(1, min(3, n_inter - 1)))
    adv_nodes = rng.sample(inter, n_adv)
    correct_inter = [x for x in inter if x not in adv_nodes]
    path_nodes = rng.sample(correct_inter, rng.randint(1, len(correct_inter)))
    chain = ["S"] + path_nodes + ["T"]
    links = {}
    for u, v in zip(chain, chain[1:]):
        links[edge_key(u, v)] = ((0.0, end_time),)
    for a in adv_nodes:
        for target in rng.sample(chain, rng.randint(1, min(3, len(chain)))):
            links.setdefault(edge_key(a, target),
                             _random_intervals(rng, end_time, 1.0))
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            e = edge_key(u, v)
            if e in links or rng.random() > 0.25:
                continue
            links[e] = _random_intervals(rng, end_time, 1.0)
    adversaries = {
        a: AdversarySpec(klass=klass, attack="fuzz",
                         params={"seed": rng.getrandbits(32), "bounds": bounds})
        for a in adv_nodes
    }
    metrics = None
    if mode == "augmented":
        eps = rng.choice((0.01, 0.1))
        metrics = MetricsSpec(
            kind=GKind(rng.choice(("add", "max", "min"))),
            epsilon=eps,
            delta_tilde=rng.choice((0.0, eps / 2)),
            actual={e: round(rng.uniform(0.5, 2.0), 3) for e in links},
        )
    discoveries = [("S", "T", 1.0)]
    if rng.random() < 0.3:
        discoveries.append(("S", "T", rng.uniform(40.0, 80.0)))
    cfg = SimConfig(
        tau=1.0, tx_time=1.0, end_time=end_time, seed=seed,
        reply_wait_min=4.0 * len(nodes), reply_wait_max=64.0 * len(nodes),
    )
    scenario = Scenario(
        name=f"fuzz-{seed}",
        config=cfg,
        nodes=tuple(nodes),
        links=tuple(LinkSchedule(edge=e, up_intervals=iv) for e, iv in sorted(links.items())),
        keys=(("S", "T"),),
        discoveries=tuple(discoveries),
        mode=mode,
        metrics=metrics,
        adversaries=adversaries,
    )
    scenario.validate()
    return scenario


@dataclass
class FuzzConfig:
    runs: int = 1000
    klass: AdversaryClass = AdversaryClass.ARBITRARY
    mode: str = "basic"
    max_nodes: int = 8
    seed: int = 0
    bounds: Optional[dict] = None


@dataclass
class Violation:
    seed: int
    kind: str
    route: tuple[str, ...]
    detail: str = ""

    def as_dict(self):
        return {"seed": self.seed, "kind": self.kind,
                "route": list(self.route), "detail": self.detail}


@dataclass
class CampaignReport:
    config: FuzzConfig
    runs: int = 0
    accepted_routes: int = 0
    loop_violations: list[Violation] = field(default_factory=list)
    freshness_violations: list[Violation] = field(default_factory=list)
    accuracy_violations: list[Violation] = field(default_factory=list)

    @property
    def violation_count(self) -> int:
        return (len(self.loop_violations) + len(self.freshness_violations)
                + len(self.accuracy_violations))

    @property
    def exit_code(self) -> int:
        return 0 if self.violation_count == 0 else 1

    def as_dict(self):
        return {
            "runs": self.runs,
            "class": self.config.klass.value,
            "mode": self.config.mode,
            "accepted_routes": self.accepted_routes,
            "loop_violations": [v.as_dict() for v in self.loop_violations],
            "freshness_violations": [v.as_dict() for v in self.freshness_violations],
            "accuracy_violations": [v.as_dict() for v in self.accuracy_violations],
        }


def fuzz_campaign(config: FuzzConfig, progress=None) -> CampaignReport:
    """Run seeded random scenarios and count property violations.

    Loop-freedom must hold under every adversary class; freshness and (in
    augmented mode) accuracy must hold under the independent class.  Every
    violation entry carries the run seed that reproduces it bit-exactly.
    """
    report = CampaignReport(config=config)
    for i in range(config.runs):
        # keyed off the run seed alone, so `fuzz --runs 1 --seed <seed>`
        # replays any reported violation bit-exactly
        run_seed = config.seed + i
        rng = random.Random(f"fuzz-scenario|{run_seed}")
        scenario = random_scenario(rng, config.klass, config.mode,
                                   config.max_nodes, run_seed, config.bounds)
        result = run_scenario(scenario)
        report.runs += 1
        report.accepted_routes += len(result.records)
        for v in result.verdicts:
            if v.endpoints_faulty:
                continue
            if not v.loop_free:
                report.loop_violations.append(
                    Violation(run_seed, "loop", v.route))
            if config.klass is AdversaryClass.INDEPENDENT:
                if not v.fresh:
                    report.freshness_violations.append(Violation(
                        run_seed, "freshness", v.route,
                        detail=f"never-up links {list(v.never_up_links)}"))
                if config.mode == "augmented" and v.accurate is False:
                    report.accuracy_violations.append(Violation(
                        run_seed, "accuracy", v.route,
                        detail=f"error {v.metric_error} >= bound {v.delta_good_used}"))
        if progress is not None and (i + 1) % 1000 == 0:
            progress(i + 1, config.runs)
    return report


# --------------------------------------------------------------------------
# Accuracy campaign (structured line topologies, discrepancy-maximizing mix)
# --------------------------------------------------------------------------

def accuracy_scenario(kind: GKind, links: int, epsilon: float, delta_tilde: float,
                      seed: int, rng: random.Random) -> Scenario:
    """A line of `links` hops with a random subset of intermediates running
    discrepancy-maximizing metric adversaries (sometimes all of them, with
    the worst feasible tent-shaped bias profile)."""
    inter = [f"v{i}" for i in range(1, links)]
    nodes = ["S"] + inter + ["T"]
    end_time = 8.0 * len(nodes) + 40.0
    links_map = {}
    chain = nodes
    for u, v in zip(chain, chain[1:]):
        links_map[edge_key(u, v)] = ((0.0, end_time),)
    actual = {e: round(rng.uniform(1.0, 2.0), 3) for e in links_map}
    tent = inter and rng.random() < 0.5
    adversaries = {}
    if tent:
        direction = rng.choice((1, -1))
        for node in inter:
            adversaries[node] = AdversarySpec(
                klass=AdversaryClass.INDEPENDENT, attack="biased_metric",
                params={"direction": direction, "links": links})
    else:
        chosen = rng.sample(inter, rng.randint(1, len(inter))) if inter else []
        for node in chosen:
            adversaries[node] = AdversarySpec(
                klass=AdversaryClass.INDEPENDENT, attack="biased_metric",
                params={
                    "direction": rng.choice((1, -1)),
                    "headroom_scaled": rng.choice((0, 2 * to_scaled(delta_tilde))),
                })
    scenario = Scenario(
        name=f"accuracy-{kind.value}-n{links}-{seed}",
        config=SimConfig(tau=1.0, tx_time=1.0, end_time=end_time, seed=seed,
                         reply_wait_min=4.0 * len(nodes),
                         reply_wait_max=64.0 * len(nodes)),
        nodes=tuple(nodes),
        links=tuple(LinkSchedule(edge=e, up_intervals=iv)
                    for e, iv in sorted(links_map.items())),
        keys=(("S", "T"),),
        discoveries=(("S", "T", 1.0),),
        mode="augmented",
        metrics=MetricsSpec(kind=kind, epsilon=epsilon, delta_tilde=delta_tilde,
                            actual=actual),
        adversaries=adversaries,
    )
    return scenario


def accuracy_campaign(kind: GKind, links: int, epsilon: float, delta_tilde: float,
                      runs: int, seed: int = 0):
    """Run one accuracy cell; returns (accepted_count, violations)."""
    accepted = 0
    violations = []
    for i in range(runs):
        rng = random.Random(f"acc|{kind.value}|{links}|{epsilon}|{delta_tilde}|{seed}|{i}")
        scenario = accuracy_scenario(kind, links, epsilon, delta_tilde, seed + i, rng)
        result = run_scenario(scenario)
        accepted += len(result.records)
        for v in result.verdicts:
            if v.accurate is False:
                violations.append(Violation(
                    seed + i, "accuracy", v.route,
                    detail=f"error {v.metric_error} >= bound {v.delta_good_used}"))
    return accepted, violations


# --------------------------------------------------------------------------
# Trace persistence and re-verification
# --------------------------------------------------------------------------

TRACE_HEADER = "# srpsim-trace scenario="


def write_trace(path, result: RunResult) -> None:
    lines = [te.line() for te in result.trace]
    with open(path, "w") as f:
        f.write(f"{TRACE_HEADER}{result.scenario.name} seed={result.seed}\n")
        for line in lines:
            f.write(line + "\n")
        for rec in result.records:
            f.write("# accepted " + json.dumps({
                "route": list(rec.route), "t1": rec.t1, "t2": rec.t2,
                "qid": rec.qid,
                "reported": None if rec.reported is None else list(rec.reported),
            }) + "\n")
        f.write(f"# digest {result.digest:016x}\n")


def read_trace(path):
    """Returns (header, event_lines, records, stored_digest); header is the
    (scenario name, seed text) of the `# srpsim-trace` line, or None."""
    header = None
    lines = []
    records = []
    stored_digest = None
    with open(path) as f:
        for raw in f:
            raw = raw.rstrip("\n")
            if raw.startswith(TRACE_HEADER):
                name, _, seed = raw[len(TRACE_HEADER):].rpartition(" seed=")
                header = (name, seed)
            elif raw.startswith("# accepted "):
                d = json.loads(raw[len("# accepted "):])
                records.append(RouteRecord(
                    route=tuple(d["route"]), t1=d["t1"], t2=d["t2"],
                    qid=d["qid"],
                    reported=None if d["reported"] is None else tuple(d["reported"]),
                ))
            elif raw.startswith("# digest "):
                stored_digest = int(raw[len("# digest "):], 16)
            elif raw.startswith("#"):
                continue
            elif raw:
                lines.append(raw)
    return header, lines, records, stored_digest


def check_trace(trace_path, scenario: Scenario):
    """Re-verify a stored trace against a scenario: require the header to
    name the scenario, recompute the digest over the event lines, match the
    recorded routes against the accept lines the digest covers, and re-run
    the verifier on those routes.  Returns (ok, messages, verdicts)."""
    header, lines, records, stored_digest = read_trace(trace_path)
    messages = []
    ok = True
    if header is None:
        ok = False
        messages.append("trace file carries no srpsim-trace header")
    elif header[0] != scenario.name:
        ok = False
        messages.append(f"trace header names scenario {header[0]!r}, "
                        f"not {scenario.name!r}")
    recomputed = trace_digest_of_lines(lines)
    if stored_digest is None:
        ok = False
        messages.append("trace file carries no digest footer")
    elif recomputed != stored_digest:
        ok = False
        messages.append(
            f"digest mismatch: stored {stored_digest:016x}, "
            f"recomputed {recomputed:016x}")
    accepts = [(ln.split(" ", 1)[0], ln.rsplit(" route=", 1)[1])
               for ln in lines if " step - accept route=" in ln]
    if [(repr(r.t2), ",".join(r.route)) for r in records] != accepts:
        ok = False
        messages.append("accepted-route records do not match the trace's "
                        "accept lines (time and route, in order)")
    schedules = ScheduleMap(scenario.nodes, scenario.links)
    model = scenario.metrics.build_model(scenario.config.seed) \
        if scenario.metrics is not None else None
    verdicts = verdict_all(records, schedules, model,
                           frozenset(scenario.adversaries))
    failures = evaluate_expectations(scenario.expect, records, verdicts)
    if failures:
        ok = False
        messages.extend(failures)
    return ok, messages, verdicts


# --------------------------------------------------------------------------
# Bundled scenario corpus
# --------------------------------------------------------------------------

def scenarios_dir() -> Path:
    return Path(__file__).parent / "scenarios"


def bundled_scenarios() -> list[Path]:
    return sorted(scenarios_dir().glob("*.json"))
