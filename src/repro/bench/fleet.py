"""Fleet-scale campaigns: many hosts x many flows x many seeded runs.

The paper's benches are host pairs; the fleet layer is the "millions of
users" story in simulation — three pieces:

* **Flow plans** (:func:`plan_flows`) — thousands of concurrent flows
  over a generated :class:`~repro.bench.topology.Topology`, with
  arrival/departure churn and hostile traffic patterns (``uniform``
  any-to-any, ``incast`` fan-in to one sink, ``churn`` mice/elephants
  with mid-life aborts).  Fully determined by ``(topology, flows, seed)``.
* **Unit runs** (:func:`run_fleet_workload`) — one seeded simulation of
  one plan, driven straight on the netsim connection API (no Kompics
  middleware per host, so hundreds of hosts stay cheap).  Produces
  mergeable :class:`~repro.stats.OnlineStats`, additive counters and a
  BLAKE2 digest over per-flow outcomes — the determinism fingerprint.
* **Campaigns** (:func:`run_campaign`) — ``seeds x presets`` fanned out
  over a ``concurrent.futures`` process pool.  Every unit is seed-
  deterministic and ``PYTHONHASHSEED``-independent, workers look presets
  up by name in :data:`SCENARIOS`, one crashed unit is recorded as a
  failure instead of sinking the campaign, and results merge in a fixed
  order so two identical invocations produce byte-identical JSON
  artifacts (see ``docs/fleet.md`` for the schema).
"""

from __future__ import annotations

import hashlib
import json
import random
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.topology import Topology, generate_topology
from repro.netsim import Proto, SimNetwork, WireMessage
from repro.sim import Simulator
from repro.stats import OnlineStats
from repro.util.rng import derive_seed

MB = 1024 * 1024

#: campaign artifact schema identifier (bump on breaking layout changes)
CAMPAIGN_SCHEMA = "repro.bench.fleet/1"

FLOW_PORT = 34000

FLOW_PATTERNS = ("uniform", "incast", "churn")

#: wire protocol each congestion-control arm rides on in fleet sweeps.
#: Window-based policies (reno, cubic, bbr, ...) pace TCP connections;
#: only the arms below need a different listener protocol.
ARM_PROTOS = {"udt": Proto.UDT, "ledbat": Proto.LEDBAT}


def _arm_proto(arm: str) -> Proto:
    return ARM_PROTOS.get(arm, Proto.TCP)


# ----------------------------------------------------------------------
# flow planning
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FlowPlan:
    """One planned flow: endpoints, transport, arrival and volume."""

    index: int
    src: str
    dst: str
    proto: str  # "tcp" | "udt"
    start: float
    size: int
    abort_after: Optional[float] = None  # churn: close mid-life


def plan_flows(
    topology: Topology,
    flows: int,
    seed: int = 0,
    pattern: str = "uniform",
    arrival_window: float = 6.0,
    mean_flow_bytes: int = 1 * MB,
    msg_size: int = 64 * 1024,
    udt_fraction: float = 0.25,
) -> Tuple[FlowPlan, ...]:
    """Draw a deterministic flow plan from ``(topology, flows, seed)``.

    Patterns:

    * ``uniform`` — independent random (src, dst) pairs, exponential
      sizes, arrivals uniform over ``arrival_window``.
    * ``incast`` — every flow targets one sink endpoint and arrivals
      cluster in the first quarter of the window (the fan-in burst the
      paper never tested).
    * ``churn`` — 80/20 mice/elephants arriving as a Poisson process;
      one flow in eight aborts mid-life (connection closed with data
      still queued), exercising departure churn beyond natural
      completions.
    """
    if pattern not in FLOW_PATTERNS:
        raise ValueError(
            f"unknown flow pattern {pattern!r}; choose from {FLOW_PATTERNS}"
        )
    if flows < 1:
        raise ValueError("need at least one flow")
    endpoints = topology.endpoints
    if len(endpoints) < 2:
        raise ValueError("topology needs at least two endpoints for flows")
    rng = random.Random(derive_seed(seed, f"fleet.flows.{pattern}"))

    plans: List[FlowPlan] = []
    poisson_clock = 0.0
    for i in range(flows):
        if pattern == "incast":
            dst = endpoints[0]
            src = endpoints[1 + rng.randrange(len(endpoints) - 1)]
            start = rng.uniform(0.0, arrival_window / 4.0)
            size = max(1, int(rng.expovariate(1.0 / mean_flow_bytes)))
            abort_after = None
        elif pattern == "churn":
            src, dst = rng.sample(endpoints, 2)
            poisson_clock += rng.expovariate(flows / arrival_window)
            start = poisson_clock
            mean = mean_flow_bytes * (8.0 if rng.random() < 0.2 else 0.25)
            size = max(1, int(rng.expovariate(1.0 / mean)))
            abort_after = rng.uniform(0.05, 2.0) if rng.random() < 0.125 else None
        else:  # uniform
            src, dst = rng.sample(endpoints, 2)
            start = rng.uniform(0.0, arrival_window)
            size = max(1, int(rng.expovariate(1.0 / mean_flow_bytes)))
            abort_after = None
        proto = "udt" if rng.random() < udt_fraction else "tcp"
        plans.append(FlowPlan(i, src, dst, proto, start, size, abort_after))
    return tuple(plans)


# ----------------------------------------------------------------------
# one seeded fleet unit
# ----------------------------------------------------------------------

@dataclass
class FleetUnitResult:
    """Outcome of one seeded fleet simulation (mergeable pieces only)."""

    topology_kind: str
    topology_digest: str
    sim_time: float
    stats: Dict[str, OnlineStats]
    counters: Dict[str, float]
    digest: str


class _FlowTracker:
    """Receiver-side accounting for one planned flow."""

    __slots__ = ("plan", "received", "completed_at", "sent_ok", "sent_failed",
                 "connection", "aborted")

    def __init__(self, plan: FlowPlan) -> None:
        self.plan = plan
        self.received = 0
        self.completed_at: Optional[float] = None
        self.sent_ok = 0
        self.sent_failed = 0
        self.connection = None
        self.aborted = False


def run_fleet_workload(
    topology: str = "star",
    hosts: int = 32,
    flows: int = 200,
    pattern: str = "uniform",
    seed: int = 0,
    arrival_window: float = 6.0,
    mean_flow_mb: float = 1.0,
    msg_size: int = 64 * 1024,
    udt_fraction: float = 0.25,
    horizon: float = 120.0,
    cc_arms: Optional[Sequence[str]] = None,
) -> FleetUnitResult:
    """Simulate one seeded fleet: generate, wire, run, summarize.

    Deterministic in its arguments: the topology, the flow plan, netsim's
    loss draws and the event order all derive from ``seed``.  The run
    ends when every flow has finished or ``horizon`` simulated seconds
    elapse, whichever comes first (truncated flows are counted, not
    errors — incast is *supposed* to leave stragglers).

    ``cc_arms`` sweeps congestion-control policies: each flow is pinned
    to ``arms[index % len(arms)]`` (registry names — ``reno``, ``cubic``,
    ``bbr``, ...) instead of the plan's TCP/UDT draw.  The assignment is
    index-derived, not RNG-drawn, so the flow plan — and with
    ``cc_arms=None`` the whole run — is byte-identical to the default.
    """
    topo = generate_topology(topology, hosts, seed=seed)
    plans = plan_flows(
        topo, flows, seed=seed, pattern=pattern,
        arrival_window=arrival_window,
        mean_flow_bytes=max(1, int(mean_flow_mb * MB)),
        msg_size=msg_size, udt_fraction=udt_fraction,
    )

    sim = Simulator()
    net = SimNetwork(sim, seed=derive_seed(seed, "fleet.net"))
    net.apply_topology(topo)
    try:
        trackers = [_FlowTracker(plan) for plan in plans]

        def on_message(payload: Any, size: int, conn: Any) -> None:
            tracker = trackers[payload]
            tracker.received += size
            if tracker.received >= tracker.plan.size and tracker.completed_at is None:
                tracker.completed_at = sim.now

        def on_accept(conn: Any) -> None:
            conn.on_message = on_message

        arms = tuple(cc_arms) if cc_arms else None

        listening = {plan.dst for plan in plans}
        if arms is None:
            listen_protos = (Proto.TCP, Proto.UDT)
        else:
            listen_protos = tuple(sorted({_arm_proto(a) for a in arms},
                                         key=lambda p: p.value))
        for ip in sorted(listening):
            stack = net.stack_for(ip)
            for proto in listen_protos:
                stack.listen(FLOW_PORT, proto, on_accept=on_accept)

        def launch(tracker: _FlowTracker) -> None:
            plan = tracker.plan
            if arms is None:
                conn = net.stack_for(plan.src).connect(
                    (plan.dst, FLOW_PORT), Proto(plan.proto)
                )
            else:
                arm = arms[plan.index % len(arms)]
                conn = net.stack_for(plan.src).connect(
                    (plan.dst, FLOW_PORT), _arm_proto(arm), cc=arm
                )
            tracker.connection = conn

            def sent(ok: bool) -> None:
                if ok:
                    tracker.sent_ok += 1
                else:
                    tracker.sent_failed += 1

            remaining = plan.size
            while remaining > 0:
                chunk = min(remaining, msg_size)
                conn.send(WireMessage(plan.index, chunk, on_sent=sent))
                remaining -= chunk
            if plan.abort_after is not None:
                def abort() -> None:
                    if tracker.completed_at is None:
                        tracker.aborted = True
                        conn.close()

                sim.schedule(plan.abort_after, abort, label="fleet-abort")

        for tracker in trackers:
            sim.schedule_at(tracker.plan.start, lambda t=tracker: launch(t),
                            label="fleet-launch")

        sim.run_until(horizon)

        duration = OnlineStats()
        goodput = OnlineStats()
        flow_bytes = OnlineStats()
        completed = aborted = 0
        messages_sent = messages_failed = 0
        bytes_offered = bytes_delivered = 0
        digest = hashlib.blake2b(digest_size=16)
        digest.update(f"{topo.digest()} {pattern} {seed}\n".encode())
        if arms is not None:
            digest.update(f"cc={','.join(arms)}\n".encode())
        for tracker in trackers:
            plan = tracker.plan
            arm_token = "" if arms is None else f" {arms[plan.index % len(arms)]}"
            flow_bytes.add(float(plan.size))
            bytes_offered += plan.size
            bytes_delivered += tracker.received
            messages_sent += tracker.sent_ok
            messages_failed += tracker.sent_failed
            if tracker.completed_at is not None:
                # Completed wins over aborted: messages already on the wire
                # when the sender closed may still deliver the whole payload.
                completed += 1
                elapsed = tracker.completed_at - plan.start
                duration.add(elapsed)
                if elapsed > 0:
                    goodput.add(plan.size / elapsed)
            elif tracker.aborted:
                aborted += 1
            end = -1.0 if tracker.completed_at is None else tracker.completed_at
            digest.update(
                f"{plan.index} {plan.src}>{plan.dst} {plan.proto} {plan.size} "
                f"{plan.start!r} {tracker.received} {end!r} "
                f"{tracker.sent_ok} {tracker.sent_failed}{arm_token}\n".encode()
            )

        return FleetUnitResult(
            topology_kind=topo.kind,
            topology_digest=topo.digest(),
            sim_time=sim.now,
            stats={
                "flow_duration_s": duration,
                "flow_goodput_bytes_s": goodput,
                "flow_bytes": flow_bytes,
            },
            counters={
                "hosts": float(topo.host_count),
                "links": float(topo.link_count),
                "flows": float(len(plans)),
                "flows_completed": float(completed),
                "flows_aborted": float(aborted),
                "flows_unfinished": float(len(plans) - completed - aborted),
                "messages_sent": float(messages_sent),
                "messages_failed": float(messages_failed),
                "bytes_offered": float(bytes_offered),
                "bytes_delivered": float(bytes_delivered),
                "events_executed": float(sim.events_executed),
            },
            digest=digest.hexdigest(),
        )
    finally:  # the result holds none of the world: free it now
        net.close()
        sim.close()


# ----------------------------------------------------------------------
# named presets
# ----------------------------------------------------------------------

#: preset name -> :func:`run_fleet_workload` arguments, which a campaign
#: unit's own params override.  The ``cc-*`` presets pin every flow to one
#: congestion-control policy (or interleave a list): the sweep axis of the
#: cc-matrix CI entry.
SCENARIOS: Dict[str, Dict[str, Any]] = {
    "fleet": {},
    "fleet-star": {"topology": "star", "pattern": "uniform"},
    "fleet-fat-tree": {"topology": "fat-tree", "pattern": "uniform"},
    "fleet-wan-mesh": {"topology": "wan-mesh", "pattern": "uniform"},
    "fleet-incast": {"topology": "star", "pattern": "incast"},
    "fleet-churn": {"topology": "fat-tree", "pattern": "churn"},
    "cc-reno": {"topology": "star", "pattern": "uniform", "cc_arms": ("reno",)},
    "cc-cubic": {"topology": "star", "pattern": "uniform", "cc_arms": ("cubic",)},
    "cc-bbr": {"topology": "star", "pattern": "uniform", "cc_arms": ("bbr",)},
    "cc-mixed-arms": {
        "topology": "star", "pattern": "uniform",
        "cc_arms": ("reno", "cubic", "bbr", "udt"),
    },
}


# ----------------------------------------------------------------------
# campaign planning and the process-pool runner
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignUnit:
    """One (scenario, seed) cell of a campaign."""

    scenario: str
    seed: int
    params: Tuple[Tuple[str, Any], ...] = ()  # sorted kwarg pairs

    @staticmethod
    def make(scenario: str, seed: int, params: Optional[Dict[str, Any]] = None) -> "CampaignUnit":
        return CampaignUnit(scenario, seed, tuple(sorted((params or {}).items())))

    @property
    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)


def plan_campaign(
    scenarios: Sequence[Any],
    seeds: Sequence[int],
) -> List[CampaignUnit]:
    """The ``seeds x scenarios`` unit grid, in deterministic order.

    ``scenarios`` entries are names or ``(name, params)`` pairs.
    """
    units: List[CampaignUnit] = []
    for entry in scenarios:
        name, params = entry if isinstance(entry, tuple) else (entry, None)
        for seed in seeds:
            units.append(CampaignUnit.make(name, int(seed), params))
    return units


def _run_unit(scenario: str, seed: int, params: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool worker: run one fleet unit, never raise."""
    try:
        result = run_fleet_workload(seed=seed, **{**SCENARIOS[scenario], **params})
        return {
            "stats": {k: v.state_dict() for k, v in sorted(result.stats.items())},
            "counters": dict(sorted(result.counters.items())),
            "digest": result.digest,
            "info": {
                "topology": result.topology_kind,
                "topology_digest": result.topology_digest,
                "sim_time": result.sim_time,
            },
            "scenario": scenario, "seed": seed, "ok": True,
        }
    except Exception as exc:  # one bad unit must not sink the campaign
        return {
            "scenario": scenario, "seed": seed, "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
        }


def _merge_units(units: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fixed-order merge: per-scenario stats/counters plus a fleet digest.

    Units arrive sorted by (scenario, seed); OnlineStats merge in that
    order, so the merged floats are bit-identical across invocations
    (parallel Welford is associative mathematically, not in floats).
    """
    scenarios: Dict[str, Dict[str, Any]] = {}
    digest = hashlib.blake2b(digest_size=16)
    ok = failed = 0
    for unit in units:
        bucket = scenarios.setdefault(unit["scenario"], {
            "stats": {}, "counters": {}, "units_ok": 0, "units_failed": 0,
        })
        if not unit["ok"]:
            failed += 1
            bucket["units_failed"] += 1
            digest.update(f"{unit['scenario']} {unit['seed']} FAILED\n".encode())
            continue
        ok += 1
        bucket["units_ok"] += 1
        digest.update(f"{unit['scenario']} {unit['seed']} {unit['digest']}\n".encode())
        for name, state in unit["stats"].items():
            incoming = OnlineStats.from_state(state)
            existing = bucket["stats"].get(name)
            bucket["stats"][name] = (
                incoming if existing is None else existing.merge(incoming)
            )
        for name, value in unit["counters"].items():
            bucket["counters"][name] = bucket["counters"].get(name, 0.0) + value

    def render_stats(stats: Dict[str, OnlineStats]) -> Dict[str, Any]:
        return {
            name: {
                **s.state_dict(),
                "stddev": s.stddev,
            }
            for name, s in sorted(stats.items())
        }

    return {
        "digest": digest.hexdigest(),
        "scenarios": {
            name: {
                "stats": render_stats(bucket["stats"]),
                "counters": dict(sorted(bucket["counters"].items())),
                "units_ok": bucket["units_ok"],
                "units_failed": bucket["units_failed"],
            }
            for name, bucket in sorted(scenarios.items())
        },
        "totals": {"units": len(units), "ok": ok, "failed": failed},
    }


def run_campaign(
    units: Sequence[CampaignUnit],
    workers: int = 1,
) -> Dict[str, Any]:
    """Run every unit (process pool when ``workers > 1``) and merge.

    Returns the machine-readable campaign document.  Unit failures —
    scenario exceptions, or a worker process dying hard enough to break
    the pool — are recorded per-unit; the surviving units still merge.
    After a broken pool the remaining units run inline in this process.
    """
    if not units:
        raise ValueError("a campaign needs at least one unit")
    results: Dict[Tuple[str, int, int], Dict[str, Any]] = {}

    def record(index: int, unit: CampaignUnit, payload: Dict[str, Any]) -> None:
        results[(unit.scenario, unit.seed, index)] = payload

    if workers <= 1:
        for i, unit in enumerate(units):
            record(i, unit, _run_unit(unit.scenario, unit.seed, unit.kwargs))
    else:
        pending = list(enumerate(units))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(_run_unit, unit.scenario, unit.seed, unit.kwargs):
                    (i, unit)
                    for i, unit in pending
                }
                remaining = set(futures)
                while remaining:
                    done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                    for fut in done:
                        i, unit = futures[fut]
                        try:
                            payload = fut.result()
                        except BrokenProcessPool:
                            raise  # retry everything unfinished inline
                        except Exception as exc:
                            payload = {
                                "scenario": unit.scenario, "seed": unit.seed,
                                "ok": False,
                                "error": f"{type(exc).__name__}: {exc}",
                            }
                        record(i, unit, payload)
        except BrokenProcessPool:
            for i, unit in pending:
                if (unit.scenario, unit.seed, i) not in results:
                    record(i, unit, _run_unit(unit.scenario, unit.seed, unit.kwargs))

    ordered = [results[key] for key in sorted(results)]
    merged = _merge_units(ordered)
    scenario_meta: List[Dict[str, Any]] = []
    seen = set()
    for unit in units:
        if unit.scenario not in seen:
            seen.add(unit.scenario)
            scenario_meta.append(
                {"name": unit.scenario, "params": unit.kwargs}
            )
    return {
        "schema": CAMPAIGN_SCHEMA,
        "meta": {
            "harness": "repro.bench.fleet",
            "scenarios": scenario_meta,
            "seeds": sorted({u.seed for u in units}),
            "workers": workers,
            "units_planned": len(units),
        },
        "units": ordered,
        "merged": merged,
    }


def validate_campaign_document(document: Dict[str, Any]) -> List[str]:
    """Schema/self-consistency problems in a campaign artifact (empty = ok).

    Recomputes the merged section from the units, so a hand-edited or
    truncated artifact fails loudly.
    """
    problems: List[str] = []
    if document.get("schema") != CAMPAIGN_SCHEMA:
        problems.append(
            f"schema is {document.get('schema')!r}, expected {CAMPAIGN_SCHEMA!r}"
        )
        return problems
    units = document.get("units")
    if not isinstance(units, list) or not units:
        problems.append("units section missing or empty")
        return problems
    for i, unit in enumerate(units):
        for key in ("scenario", "seed", "ok"):
            if key not in unit:
                problems.append(f"unit {i} lacks {key!r}")
        if unit.get("ok") and "digest" not in unit:
            problems.append(f"unit {i} is ok but has no digest")
    keys = [(u.get("scenario"), u.get("seed")) for u in units]
    if keys != sorted(keys):
        problems.append("units are not sorted by (scenario, seed)")
    recomputed = _merge_units(units)
    merged = document.get("merged", {})
    if merged.get("digest") != recomputed["digest"]:
        problems.append(
            f"merged digest {merged.get('digest')!r} does not match "
            f"units ({recomputed['digest']!r})"
        )
    if merged.get("totals") != recomputed["totals"]:
        problems.append("merged totals do not match units")
    if json.dumps(merged.get("scenarios"), sort_keys=True) != json.dumps(
        recomputed["scenarios"], sort_keys=True
    ):
        problems.append("merged per-scenario section does not match units")
    if document.get("meta", {}).get("units_planned") != len(units):
        problems.append("units_planned does not match the units section")
    return problems


@dataclass(frozen=True)
class FleetCampaign:
    """A campaign document under the campaign-result contract (``bench.report``)."""

    document: Dict[str, Any]
    kind = "fleet"

    def problems(self) -> List[str]:
        """An invalid document, or else every unit that failed."""
        return validate_campaign_document(self.document) or [
            f"unit ok=False: {unit['scenario']} seed {unit['seed']}: {unit.get('error')}"
            for unit in self.document["units"] if not unit["ok"]
        ]

    def summary(self) -> str:
        merged = self.document["merged"]
        totals = merged["totals"]
        lines = [
            f"campaign: {totals['ok']}/{totals['units']} unit(s) ok, "
            f"{totals['failed']} failed, workers={self.document['meta']['workers']}",
            f"merged digest: {merged['digest']}",
        ]
        for name, bucket in merged["scenarios"].items():
            lines.append(f"  {name}: ok={bucket['units_ok']} failed={bucket['units_failed']}")
            for counter, value in bucket["counters"].items():
                lines.append(f"    {counter:<20} {value:,.0f}")
            for stat, state in bucket["stats"].items():
                if state["count"]:
                    lines.append(
                        f"    {stat:<20} n={state['count']} mean={state['mean']:,.4g} "
                        f"min={state['min']:,.4g} max={state['max']:,.4g}"
                    )
        return "\n".join(lines)

    def to_document(self) -> Dict[str, Any]:
        return self.document
