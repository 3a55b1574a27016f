"""srpsim: deterministic simulation and property verification of secure
on-demand route discovery in mobile ad hoc networks.

The package simulates route discovery over scheduled link topologies with
correct and adversarial nodes, then checks every accepted route against the
ground truth: loop-freedom, freshness, weak freshness, and metric accuracy.
"""

from .adversary import (AdversaryClass, AdversaryNode, AttackClassError,
                        AttackScript, CATALOG, FuzzScript, attack,
                        step_adversary)
from .harness import (CampaignReport, FuzzConfig, RunResult, accuracy_campaign,
                      bundled_scenarios, check_trace, evaluate_expectations,
                      fuzz_campaign, random_scenario, run_scenario, write_trace)
from .identity import KeyAccessError, KeyRing, KeyTable, encode_fields, f_k
from .scenario import (AdversarySpec, MetricsSpec, Scenario, ScenarioError,
                       build, load_scenario, scenario_from_dict)
from .simcore import (Engine, InvalidEdgeError, LinkSchedule, OrderingError,
                      ScheduleError, ScheduleMap, SimConfig, TraceEvent,
                      TunnelChannel, edge_key)
from .srp import (Accept, ArmTimer, Broadcast, ConfigurationError, Discard,
                  Discovery, NodeState,
                  Note, RouteRecord, Rrep, Rreq, SrpNode, TunnelSend, Unicast,
                  handle_rreq, initiate_discovery, observe_relay,
                  on_replywait_timeout, process_rreq_destination,
                  process_rreq_intermediate, process_rrep, rreq_verdict,
                  rrep_verdict)
from .srp_qos import (GKind, LinkMetricModel, QosRuntime, SCALE, delta_good,
                      from_scaled, route_metric, to_scaled)
from .verifier import (Verdict, check_accuracy, check_fresh, check_loop_free,
                       check_weakly_fresh, summarize, verdict_all)

__version__ = "0.1.0"
