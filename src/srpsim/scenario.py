"""Scenario files: schema, validation, and wiring into a runnable engine.

A scenario declares the node roster, per-edge up intervals, which node pairs
share keys, metric definitions (augmented mode), adversarial roles with their
attack scripts, the discoveries to initiate, and an optional block of
expectations that makes the scenario self-checking.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Mapping, Optional

from .adversary import AdversaryClass, AdversaryNode, AttackScript, attack, read_class
from .identity import KeyRing, new_memo, remember, rings_for
from .reader import (FieldError, ScenarioError, exact_int, exact_number, fields, read_at,
                     read_choice, read_count, read_list, read_node, read_object, take)
from .simcore import Engine, LinkSchedule, ScheduleMap, SimConfig, edge_key
from .srp import NodeState, SrpNode
from .srp_qos import GKind, LinkMetricModel, QosRuntime

# (roster, ((edge, repr(up_intervals)), ...)) -> ScheduleMap, and
# (roster, key pairs) -> key rings: each shared by every scenario of that
# shape in the process, emptied when it reaches its cap.  Intervals are keyed
# by their rendered form, which is what a link-change line prints: 0, 0.0 and
# -0.0 are equal but print apart.
SCHEDULE_MAP_MEMO_CAP = 16
_SCHEDULE_MAPS: dict[tuple, ScheduleMap] = new_memo()
KEY_RINGS_MEMO_CAP = 16
_KEY_RINGS: dict[tuple, Mapping[str, KeyRing]] = new_memo()


@dataclass(frozen=True)
class AdversarySpec:
    klass: AdversaryClass
    attack: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    name: str
    config: SimConfig
    nodes: tuple[str, ...]
    links: tuple[LinkSchedule, ...]
    keys: tuple[tuple[str, str], ...]
    discoveries: tuple[tuple[str, str, float], ...]
    metrics: Optional[LinkMetricModel] = None  # None: basic mode
    adversaries: dict = field(default_factory=dict)  # node -> AdversarySpec
    expect: dict = field(default_factory=dict)

    @cached_property
    def schedule_map(self) -> ScheduleMap:
        """The ScheduleMap of the scenario's roster and links, shared with
        every scenario whose roster, edges and rendered intervals are the
        same; read-only once built."""
        memo_key = (self.nodes,
                    tuple((s.edge, repr(s.up_intervals)) for s in self.links))
        schedules = _SCHEDULE_MAPS.get(memo_key)
        if schedules is None:
            schedules = remember(_SCHEDULE_MAPS, SCHEDULE_MAP_MEMO_CAP, memo_key,
                                 ScheduleMap(self.nodes, self.links))
        return schedules

    @cached_property
    def key_rings(self) -> Mapping[str, KeyRing]:
        """Each node's KeyRing, shared with every scenario of the same roster
        and key pairs; read-only."""
        memo_key = (self.nodes, self.keys)
        rings = _KEY_RINGS.get(memo_key)
        if rings is None:
            rings = remember(_KEY_RINGS, KEY_RINGS_MEMO_CAP, memo_key,
                             rings_for(self.nodes, self.keys))
        return rings

    @cached_property
    def scripts(self) -> dict[str, AttackScript]:
        """Each adversary's attack script, built and checked once and shared
        by every run."""
        scripts = {}
        for node, spec in self.adversaries.items():
            if node not in self.nodes:
                raise ScenarioError(f"adversary {node} is not in the roster")
            # an unknown attack, the wrong class or a bad param fails naming the adversary
            scripts[node] = read_at(("adversaries", node), lambda params: attack(
                spec.attack, params, spec.klass, self.nodes), spec.params)
        return scripts

    def validate(self) -> None:
        """Check the rules that relate sections to each other: every node a
        section names is on the roster, each discovery's end nodes share a
        key, intervals last a transmission time, and tunnels pair up.  The
        reader checks each section on its own."""
        known = set(self.nodes)
        try:
            self.schedule_map.validate(self.config.tx_time)
        except ValueError as e:
            raise ScenarioError(str(e))
        for a, b in self.keys:
            if a not in known or b not in known:
                raise ScenarioError(f"key pair ({a}, {b}) names an undeclared node")
        if self.metrics is not None:
            for e in self.metrics.actual:
                if e[0] not in known or e[1] not in known:
                    raise ScenarioError(f"metric for undeclared edge {e}")
        keyset = {edge_key(a, b) for a, b in self.keys}
        for src, dst, at in self.discoveries:
            if src not in known or dst not in known:
                raise ScenarioError(f"discovery {src}->{dst} names an undeclared node")
            if edge_key(src, dst) not in keyset:
                raise ScenarioError(
                    f"discovery {src}->{dst} has no declared end-node key")
        scripts = self.scripts
        for node, script in scripts.items():
            if not script.tunnel:
                continue
            if script.tunnel[0] != node:
                raise ScenarioError(f"adversary {node}: tunnel path must start at {node}")
            peer = script.tunnel[-1]
            spec = self.adversaries.get(peer)
            if spec is None or spec.klass is not AdversaryClass.ARBITRARY:
                raise ScenarioError(f"adversary {node}: tunnel path must end at an "
                                    f"arbitrary-class adversary, not {peer!r}")
            # only a colluding script, one that tunnels back, acts on what
            # arrives through a tunnel
            if scripts[peer].tunnel[-1:] != (node,):
                raise ScenarioError(f"adversary {node}: tunnel peer {peer} must hold "
                                    f"a tunnel that ends at {node}")
        if not known.issuperset(self.expect.get("victim_link") or ()):
            raise ScenarioError("victim_link names an undeclared node")


# -- the reader: one converter per field, each section's rules in its own ----

def _name(value) -> str:
    """One line of UTF-8 text: a stored trace's header holds it."""
    if type(value) is not str or len(f"{value}.".splitlines()) != 1 \
            or any("\ud800" <= c <= "\udfff" for c in value):
        raise ValueError(f"expected one line of UTF-8 text, not {value!r}")
    return value


_ROSTER = read_list(read_node, least=1)


def _roster(value) -> tuple:
    nodes = _ROSTER(value)
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate node ids in roster")
    return nodes


def _sim_config(nodes):
    """The config reader: the reply waits scale with the roster."""
    def read(cfg) -> SimConfig:
        tau = take(cfg, "tau", exact_number, 1.0)
        rw_min = take(cfg, "reply_wait_min", exact_number, 4.0 * tau * len(nodes))
        return SimConfig(
            tau=tau,
            tx_time=take(cfg, "tx_time", exact_number, 1.0),
            end_time=take(cfg, "end_time", exact_number, 300.0),
            seed=take(cfg, "seed", exact_int, 1),
            reply_wait_min=rw_min,
            reply_wait_max=take(cfg, "reply_wait_max", exact_number, 16.0 * rw_min),
        )
    return fields(read)


def _nonnegative(value):
    """`value` if it is a finite number >= 0."""
    if not (math.isfinite(exact_number(value)) and value >= 0):
        raise ValueError(f"expected a finite number >= 0, not {value!r}")
    return value


_LINK = read_list(read_node, read_node, read_list(read_list(exact_number, exact_number)))


def _link(value) -> LinkSchedule:
    u, v, up = _LINK(value)
    return LinkSchedule(edge=edge_key(u, v), up_intervals=up)


_PAIR = read_list(read_node, read_node)


def _node_pair(value) -> tuple[str, str]:
    a, b = _PAIR(value)
    if a == b:
        raise ValueError(f"expected two distinct node ids, not {value!r}")
    return a, b


def _discovery(d) -> tuple[str, str, float]:
    src, dst = take(d, "src", read_node), take(d, "dst", read_node)
    if src == dst:
        raise ValueError("source equals destination")
    return src, dst, float(take(d, "at", _nonnegative, 0.0))


_KIND = read_choice(*GKind)


def _kind(value) -> GKind:
    if value in ("willingness", "battery"):
        raise ValueError(f"metric kind {value!r} is node-local and has no "
                         f"two-endpoint agreement; it cannot be verified on a link")
    return _KIND(value)


def _flag(value) -> bool:
    if type(value) is not bool:
        raise TypeError(f"expected true or false, not {value!r}")
    return value


_ACTUAL = read_list(read_list(read_node, read_node, exact_number))


def _metrics(m) -> LinkMetricModel:
    return LinkMetricModel(
        kind=take(m, "kind", _kind),
        epsilon=take(m, "epsilon", exact_number),
        delta_tilde=take(m, "delta_tilde", exact_number, 0.0),
        administrative=take(m, "administrative", _flag, False),
        actual={(u, v): x for u, v, x in take(m, "actual", _ACTUAL, ())},
    )


def _adversaries(specs) -> dict:
    return {node: take(specs, node, fields(lambda spec: AdversarySpec(
        klass=take(spec, "class", read_class, AdversaryClass.INDEPENDENT),
        attack=take(spec, "attack", str),
        params=take(spec, "params", read_object, {}),
    ), nullable=())) for node in list(specs)}


read_mode = read_choice("basic", "augmented")
_MODES = read_choice("all", "not-all", "none")
# each expectation and its reader; the harness judges them
EXPECT_KEYS = {
    "min_accepted": read_count, "max_accepted": read_count, "loop_free": _MODES,
    "fresh": _MODES, "weakly_fresh": _MODES, "accurate": _MODES,
    "victim_link": lambda v: list(_node_pair(v)),
    "victim_link_accepted": read_choice("none", "some"),
    "max_metric_error": _nonnegative,
}


def _scenario(name_hint: str):
    """The reader of a whole scenario file, named `name_hint` when it has no
    `name`."""
    def read(data) -> Scenario:
        data.pop("description", None)
        nodes = take(data, "nodes", _roster)
        mode = take(data, "mode", read_mode, "basic")
        metrics = take(data, "metrics", fields(_metrics, nullable=()), None)
        if (mode == "augmented") != (metrics is not None):
            raise FieldError(("metrics",), "augmented mode requires a metrics "
                                           "section and basic mode forbids one")
        return Scenario(
            name=read_at(("name",), _name, data.pop("name", name_hint)),
            config=read_at(("config",), _sim_config(nodes), data.pop("config", {})),
            nodes=nodes,
            links=take(data, "links", read_list(_link), ()),
            keys=take(data, "keys", read_list(_node_pair), ()),
            discoveries=take(data, "discoveries",
                             read_list(fields(_discovery, nullable=())), ()),
            metrics=metrics,
            adversaries=take(data, "adversaries", fields(_adversaries, nullable=()), {}),
            expect=take(data, "expect", fields(lambda e: {
                key: take(e, key, EXPECT_KEYS[key], None) for key in list(e)
                if key in EXPECT_KEYS}, nullable=("victim_link",)), {}),
        )
    return read


def scenario_from_dict(data: dict, name_hint: str = "<dict>") -> Scenario:
    """Read and validate a scenario from its parsed JSON."""
    try:
        scenario = read_at((), fields(_scenario(name_hint),
                                      nullable=("metrics", "description")), data)
        scenario.validate()
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as e:
        raise ScenarioError(f"{name_hint}: malformed scenario ({e})")
    return scenario


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    p = Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ScenarioError(f"{p}: no such scenario file")
    except OSError as e:
        raise ScenarioError(f"{p}: cannot read scenario file: {e.strerror}")
    except UnicodeDecodeError:
        raise ScenarioError(f"{p}: scenario file is not UTF-8 text")
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{p}:{e.lineno}:{e.colno}: parse error: {e.msg}")
    except ValueError as e:  # an integer literal past int's digit limit
        raise ScenarioError(f"{p}: parse error: {e}")
    except RecursionError:
        raise ScenarioError(f"{p}: parse error: arrays or objects nested too deep")
    return scenario_from_dict(data, name_hint=p.stem)


def build(scenario: Scenario, seed: Optional[int] = None) -> Engine:
    """Wire a validated scenario into a ready-to-run engine."""
    cfg = scenario.config if seed is None else replace(scenario.config, seed=seed)
    engine = Engine(cfg, scenario.schedule_map, random.Random(f"run|{cfg.seed}"))
    rings = scenario.key_rings
    qos = None if scenario.metrics is None else QosRuntime(scenario.metrics, cfg.seed)
    for node in scenario.nodes:
        state = NodeState(self_id=node, keys=rings[node])
        spec = scenario.adversaries.get(node)
        if spec is None:
            engine.add_node(node, SrpNode(state, cfg, qos))
            continue
        driver = AdversaryNode(node, spec.klass, scenario.scripts[node], state, cfg,
                               qos, roster=scenario.nodes)
        engine.add_node(node, driver)
        for t in driver.script.spontaneous_times(driver):
            engine.schedule_action(t, node, ("adversary_time",))
    engine.seed_link_changes()
    for src, dst, at in scenario.discoveries:
        engine.schedule_action(at, src, ("initiate", dst))
    return engine
