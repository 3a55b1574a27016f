"""srpsim: deterministic simulation and property verification of secure
on-demand route discovery in mobile ad hoc networks.

The package simulates route discovery over scheduled link topologies with
correct and adversarial nodes, then checks every accepted route against the
ground truth: loop-freedom, freshness, weak freshness, and metric accuracy.
"""

from .adversary import (AdversaryClass, AdversaryNode, Broadcast, CATALOG, FuzzScript,
                        TunnelSend, Unicast, attack)
from .harness import (FuzzConfig, accuracy_campaign, bundled_scenarios,
                      check_trace, evaluate_expectations, fuzz_campaign,
                      run_scenario, write_trace)
from .identity import KeyAccessError, KeyRing, encode_fields, rings_for
from .scenario import ScenarioError, build, load_scenario, scenario_from_dict
from .simcore import (Engine, InvalidEdgeError, LinkSchedule, OrderingError,
                      ScheduleError, ScheduleMap, SimConfig, edge_key)
from .srp import (ConfigurationError, NodeState, RouteRecord, Rrep, Rreq, SrpNode,
                  rreq_verdict, rrep_verdict)
from .srp_qos import (GKind, LinkMetricModel, QosRuntime, delta_good,
                      from_scaled, route_metric, to_scaled)
from .verifier import (Verdict, check_accuracy, check_fresh, check_loop_free,
                       check_weakly_fresh, verdict_all)

__version__ = "0.1.0"
