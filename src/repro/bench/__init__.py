"""Benchmark harness: scenario construction and per-figure experiments.

* :mod:`repro.bench.scenario` — the paper's EC2 testbed (Figure 7) as
  simulated setups: Local (0 ms), EU-VPC (3 ms), EU2US (155 ms),
  EU2AU (320 ms) — and :class:`TestbedPair`, where every two-node driver
  starts: it wires the endpoints and offers the workloads (pings, the
  disk-clocked transfer, the notify-clocked stream).  Its real-socket
  twin is :func:`repro.bench.loopback.loopback_pair`.
* :mod:`repro.bench.harness` — experiment drivers: repeated transfers with
  the paper's RSE stopping rule, parallel ping+data latency runs, learner
  traces, and offline selection-skew sampling.
* :mod:`repro.bench.figures` — one function per paper figure, returning
  structured rows and printing the table the figure plots.
* :mod:`repro.bench.faults` — scripted fault campaigns (cut / degrade /
  restore) exercising the channel-recovery layer.
* :mod:`repro.bench.chaos` — seeded random fault campaigns (handler
  faults + link cuts) exercising component supervision end to end.
* :mod:`repro.bench.perf` — the golden-digest gate (rates are
  measured by ``python3 perf/run.py``, not here).
* :mod:`repro.bench.topology` — deterministic fleet-scale topology
  generation (star / fat-tree / wan-mesh) with per-link WAN specs.
* :mod:`repro.bench.fleet` — fleet workloads (thousands of churning
  flows over a generated topology) and the parallel seeds x scenarios
  campaign runner with mergeable, digest-gated results.

Named workloads live in the shared scenario registry
(:data:`repro.bench.scenario.SCENARIOS`); the check, faults, chaos, perf
and fleet layers all resolve scenarios there by name.
"""

from repro.bench.chaos import (
    ChaosCampaignResult,
    ChaosEvent,
    plan_chaos_timeline,
    run_chaos_campaign,
)
from repro.bench.faults import FAULT_ENV, FaultCampaignResult, run_fault_campaign
from repro.bench.harness import (
    LatencyResult,
    LearnerTrace,
    TransferResult,
    run_latency_experiment,
    run_learner_trace,
    run_selection_skew,
    run_transfer_once,
    run_transfer_repeated,
)
from repro.bench.fleet import (
    CampaignUnit,
    FleetUnitResult,
    FlowPlan,
    campaign_json,
    plan_campaign,
    plan_flows,
    run_campaign,
    run_fleet_workload,
    validate_campaign_document,
)
from repro.bench.perf import run_equivalence
from repro.bench.scenario import (
    AWS_SETUPS,
    DuplicateScenarioError,
    SCENARIOS,
    Scenario,
    Setup,
    TestbedPair,
    UnknownScenarioError,
    aws_testbed,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_names,
    setup_by_name,
)
from repro.bench.topology import LinkPlan, Topology, generate_topology

__all__ = [
    "Setup",
    "AWS_SETUPS",
    "aws_testbed",
    "setup_by_name",
    "TestbedPair",
    "TransferResult",
    "LatencyResult",
    "LearnerTrace",
    "run_transfer_once",
    "run_transfer_repeated",
    "run_latency_experiment",
    "run_learner_trace",
    "run_selection_skew",
    "FAULT_ENV",
    "FaultCampaignResult",
    "run_fault_campaign",
    "ChaosEvent",
    "ChaosCampaignResult",
    "plan_chaos_timeline",
    "run_chaos_campaign",
    "run_equivalence",
    "Scenario",
    "SCENARIOS",
    "UnknownScenarioError",
    "DuplicateScenarioError",
    "register_scenario",
    "get_scenario",
    "run_scenario",
    "scenario_names",
    "Topology",
    "LinkPlan",
    "generate_topology",
    "FlowPlan",
    "FleetUnitResult",
    "CampaignUnit",
    "plan_flows",
    "plan_campaign",
    "run_fleet_workload",
    "run_campaign",
    "campaign_json",
    "validate_campaign_document",
]
