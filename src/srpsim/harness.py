"""Run orchestration: execute scenarios, judge their expectation blocks,
drive seeded fuzz campaigns over random topologies, and re-check stored
traces.  The command line's exit codes are `cli.EXIT_*`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .adversary import AdversaryClass, read_class
from .reader import exact_int, read_at, read_count, read_int
from .scenario import AdversarySpec, Scenario, build, load_scenario, read_mode
from .simcore import LinkSchedule, SimConfig, edge_key
from .srp import RouteRecord
from .srp_qos import GKind, LinkMetricModel, to_scaled
from .trace import TraceFormatError, TraceView, bind_trace, read_trace, write_trace
from .verifier import Verdict, verdict_all


@dataclass
class RunResult:
    scenario: Scenario
    seed: int
    trace: TraceView
    digest: int
    records: list[RouteRecord]
    verdicts: list[Verdict]
    expect_failures: list[str]


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
        want = edge_key(*victim)
        hits = sum(1 for r in records if any(
            edge_key(u, v) == want for u, v in zip(r.route, r.route[1:])))
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
    engine = build(scenario, seed)
    engine.run()
    records = engine.accepted
    verdicts = verdict_all(records, engine.schedules, scenario.metrics,
                           scenario.adversaries)
    failures = evaluate_expectations(scenario.expect, records, verdicts)
    return RunResult(
        scenario=scenario, seed=engine.config.seed, trace=engine.trace,
        digest=engine.trace_digest(), records=records, verdicts=verdicts,
        expect_failures=failures,
    )


def check_trace(trace_path, scenario: Scenario):
    """Re-verify a stored trace against a scenario: `bind_trace`, then the
    scenario's expectations.  Returns (ok, messages, verdicts); a file that
    differs gets one message naming its first differing line, no verdicts."""
    try:
        records = bind_trace(trace_path, scenario.name, scenario.metrics is not None)
    except TraceFormatError as e:
        return False, [str(e)], []
    verdicts = verdict_all(records, scenario.schedule_map, scenario.metrics,
                           scenario.adversaries)
    failures = evaluate_expectations(scenario.expect, records, verdicts)
    return not failures, failures, verdicts


# --------------------------------------------------------------------------
# Campaigns: two scenario generators, one runner and its report
# --------------------------------------------------------------------------

def _campaign_scenario(name: str, seed: int, end_time: float, nodes, links: dict,
                       discoveries, metrics, adversaries) -> Scenario:
    """The campaigns' timing (unit tau and tx_time, reply waits of 4x and 64x
    the roster size) and one S-T key, over `links` {edge: up intervals}."""
    return Scenario(
        name=name,
        config=SimConfig(tau=1.0, tx_time=1.0, end_time=end_time, seed=seed,
                         reply_wait_min=4.0 * len(nodes),
                         reply_wait_max=64.0 * len(nodes)),
        nodes=tuple(nodes),
        links=tuple(LinkSchedule(edge=e, up_intervals=iv)
                    for e, iv in sorted(links.items())),
        keys=(("S", "T"),),
        discoveries=tuple(discoveries),
        metrics=metrics,
        adversaries=adversaries,
    )


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
                    max_nodes: int, seed: int) -> Scenario:
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
    links = {edge_key(u, v): ((0.0, end_time),) for u, v in zip(chain, chain[1:])}
    for a in adv_nodes:
        for target in rng.sample(chain, rng.randint(1, min(3, len(chain)))):
            links.setdefault(edge_key(a, target),
                             _random_intervals(rng, end_time, 1.0))
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            e = edge_key(u, v)
            if e not in links and rng.random() <= 0.25:
                links[e] = _random_intervals(rng, end_time, 1.0)
    adversaries = {
        a: AdversarySpec(klass=klass, attack="fuzz",
                         params={"seed": rng.getrandbits(32)})
        for a in adv_nodes
    }
    metrics = None
    if mode == "augmented":
        eps = rng.choice((0.01, 0.1))
        metrics = LinkMetricModel(
            kind=GKind(rng.choice(("add", "max", "min"))),
            epsilon=eps,
            delta_tilde=rng.choice((0.0, eps / 2)),
            actual={e: round(rng.uniform(0.5, 2.0), 3) for e in links},
        )
    discoveries = [("S", "T", 1.0)]
    if rng.random() < 0.3:
        discoveries.append(("S", "T", rng.uniform(40.0, 80.0)))
    scenario = _campaign_scenario(f"fuzz-{seed}", seed, end_time, nodes, links,
                                  discoveries, metrics, adversaries)
    scenario.validate()
    return scenario


# random_scenario always draws S, T and two intermediates, and a link for
# every node pair: at MAX_FUZZ_NODES nodes one run takes about a second and
# 130 MB, and both grow with the square
MAX_FUZZ_NODES = 500
_fuzz_nodes = read_int(4, MAX_FUZZ_NODES)


@dataclass
class FuzzConfig:
    """A fuzz campaign's settings, read as scenario fields are: a bad one is
    a FieldError (a ValueError) named by its field."""

    runs: int = 1000
    klass: AdversaryClass = AdversaryClass.ARBITRARY
    mode: str = "basic"
    max_nodes: int = 8
    seed: int = 0

    def __post_init__(self):
        self.runs = read_at(("runs",), read_count, self.runs)
        self.klass = read_at(("klass",), read_class, self.klass)
        self.mode = read_at(("mode",), read_mode, self.mode)
        self.seed = read_at(("seed",), exact_int, self.seed)
        self.max_nodes = read_at(("max_nodes",), _fuzz_nodes, self.max_nodes)


@dataclass
class Violation:
    seed: int
    kind: str
    route: tuple[str, ...]
    detail: str = ""

    def as_dict(self):
        return {"seed": self.seed, "kind": self.kind,
                "route": list(self.route), "detail": self.detail}


# per property kind, in report order: a violating verdict's detail, else None
# (`accurate` is None on a scenario without metrics)
JUDGES = {
    "loop": lambda v: None if v.loop_free else "",
    "freshness": lambda v: None if v.fresh else f"never-up links {list(v.never_up_links)}",
    "accuracy": lambda v: (f"error {v.metric_error} >= bound {v.delta_good_used}"
                           if v.accurate is False else None),
}


def run_campaign(generate, kinds, runs: int, seed: int, progress=None):
    """Run `generate(run_seed)` for run seeds `seed` .. `seed + runs - 1`, and
    judge the `kinds` of every accepted route whose end nodes are correct.
    Returns (accepted_routes, violations in run order).  A run depends on its
    run seed alone, so a one-run campaign at that seed replays it."""
    accepted = 0
    violations = []
    for i in range(runs):
        run_seed = seed + i
        result = run_scenario(generate(run_seed))
        accepted += len(result.records)
        for v in result.verdicts:
            if v.endpoints_faulty:
                continue
            for kind in kinds:
                detail = JUDGES[kind](v)
                if detail is not None:
                    violations.append(Violation(run_seed, kind, v.route, detail))
        if progress is not None and (i + 1) % 1000 == 0:
            progress(i + 1, runs)
    return accepted, violations


@dataclass
class CampaignReport:
    config: FuzzConfig
    accepted_routes: int = 0
    violations: list[Violation] = field(default_factory=list)  # in run order

    @property
    def runs(self) -> int:
        return self.config.runs  # a campaign never stops early

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def by_kind(self) -> dict[str, list[Violation]]:
        """The violations of each kind, in report order."""
        return {kind: [v for v in self.violations if v.kind == kind]
                for kind in JUDGES}

    def as_dict(self):
        return {
            "runs": self.runs,
            "class": self.config.klass.value,
            "mode": self.config.mode,
            "accepted_routes": self.accepted_routes,
            **{f"{kind}_violations": [v.as_dict() for v in violations]
               for kind, violations in self.by_kind().items()},
        }


def fuzz_campaign(config: FuzzConfig, progress=None) -> CampaignReport:
    """Run seeded random scenarios and count property violations.

    Loop-freedom must hold under every adversary class; freshness and (in
    augmented mode) accuracy must hold under the independent class.
    """
    def generate(run_seed):
        return random_scenario(random.Random(f"fuzz-scenario|{run_seed}"),
                               config.klass, config.mode, config.max_nodes,
                               run_seed)
    kinds = tuple(JUDGES) if config.klass is AdversaryClass.INDEPENDENT else ("loop",)
    return CampaignReport(config, *run_campaign(generate, kinds, config.runs,
                                                config.seed, progress))


def accuracy_scenario(kind: GKind, links: int, epsilon: float, delta_tilde: float,
                      seed: int, rng: random.Random) -> Scenario:
    """A line of `links` hops with a random subset of intermediates running
    discrepancy-maximizing metric adversaries (sometimes all of them, with
    the worst feasible tent-shaped bias profile)."""
    inter = [f"v{i}" for i in range(1, links)]
    nodes = ["S"] + inter + ["T"]
    end_time = 8.0 * len(nodes) + 40.0
    links_map = {edge_key(u, v): ((0.0, end_time),) for u, v in zip(nodes, nodes[1:])}
    actual = {e: round(rng.uniform(1.0, 2.0), 3) for e in links_map}
    if inter and rng.random() < 0.5:  # every intermediate, tent profile
        direction = rng.choice((1, -1))
        params = {node: {"direction": direction, "links": links} for node in inter}
    else:
        chosen = rng.sample(inter, rng.randint(1, len(inter))) if inter else []
        params = {node: {"direction": rng.choice((1, -1)),
                         "headroom_scaled": rng.choice((0, 2 * to_scaled(delta_tilde)))}
                  for node in chosen}
    adversaries = {node: AdversarySpec(klass=AdversaryClass.INDEPENDENT,
                                       attack="biased_metric", params=p)
                   for node, p in params.items()}
    return _campaign_scenario(
        f"accuracy-{kind.value}-n{links}-{seed}", seed, end_time, nodes,
        links_map, [("S", "T", 1.0)],
        LinkMetricModel(kind=kind, epsilon=epsilon, delta_tilde=delta_tilde,
                        actual=actual),
        adversaries)


def accuracy_campaign(kind: GKind, links: int, epsilon: float, delta_tilde: float,
                      runs: int, seed: int = 0):
    """Run one accuracy cell; returns (accepted_count, violations)."""
    read_at(("links",), read_int(1), links)
    read_at(("runs",), read_count, runs)
    read_at(("seed",), exact_int, seed)
    def generate(run_seed):
        # the trailing 0 stands where the key once held the run index, so
        # every one-run cell draws the same scenario as before
        rng = random.Random(f"acc|{kind.value}|{links}|{epsilon}|{delta_tilde}|{run_seed}|0")
        return accuracy_scenario(kind, links, epsilon, delta_tilde, run_seed, rng)
    return run_campaign(generate, ("accuracy",), runs, seed)


# --------------------------------------------------------------------------
# Bundled scenario corpus
# --------------------------------------------------------------------------

def scenarios_dir() -> Path:
    return Path(__file__).parent / "scenarios"


def bundled_scenarios() -> list[Path]:
    return sorted(scenarios_dir().glob("*.json"))
