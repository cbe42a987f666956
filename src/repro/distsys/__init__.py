"""Distributed-information-system substrate (event-driven).

* :mod:`repro.distsys.events` — discrete-event queue;
* :mod:`repro.distsys.network` — latency/bandwidth link, the non-preemptive
  per-client transfer channel (the §2 assumption in mechanism form), and the
  fleet's shared finite-concurrency server uplink;
* :mod:`repro.distsys.server` — sized item catalog, optionally fronted by a
  shared server-side cache;
* :mod:`repro.distsys.planning` — per-client planning state and the
  request-step kernel every engine runs;
* :mod:`repro.distsys.fleet` — N event-driven clients (one for a single
  session), one contended uplink, population workloads, fleet-level
  metrics;
* :mod:`repro.distsys.topology` — multi-tier cache hierarchies: proxy nodes
  with shared caches and per-tier speculation, star/tree/two-tier
  topologies, miss propagation toward the origin.
"""

from repro.distsys.events import EventQueue
from repro.distsys.network import Channel, Link, ServerUplink
from repro.distsys.server import ItemServer
from repro.distsys.fleet import Fleet, FleetClient, FleetConfig, FleetResult, run_fleet
from repro.distsys.megafleet import (
    CohortFleet,
    CohortFleetResult,
    HybridFleetResult,
    run_cohort_fleet,
    run_hybrid_fleet,
)
from repro.distsys.topology import (
    TOPOLOGIES,
    CacheNetwork,
    ProxyNode,
    ProxyStats,
    TierSummary,
    TopologyConfig,
    TopologyResult,
    register_topology,
    run_topology,
    topology_names,
)

__all__ = [
    "EventQueue",
    "Channel",
    "Link",
    "ServerUplink",
    "ItemServer",
    "Fleet",
    "FleetClient",
    "FleetConfig",
    "FleetResult",
    "run_fleet",
    "CohortFleet",
    "CohortFleetResult",
    "HybridFleetResult",
    "run_cohort_fleet",
    "run_hybrid_fleet",
    "TOPOLOGIES",
    "CacheNetwork",
    "ProxyNode",
    "ProxyStats",
    "TierSummary",
    "TopologyConfig",
    "TopologyResult",
    "register_topology",
    "run_topology",
    "topology_names",
]
