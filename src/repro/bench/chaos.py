"""Full-system chaos campaigns: random faults under a live workload.

Where :mod:`repro.bench.faults` scripts a *known* fault timeline, a chaos
campaign draws one from a seeded RNG: handler faults injected into live
components (``system.supervision.inject_fault``) and link cuts driven
through :class:`~repro.netsim.faults.FaultInjector`, all while a
fig8-shaped workload (TCP control pings + a bulk file transfer) runs.
Supervision restarts a faulted component within a budget, so the
assertion is not "nothing broke" but "everything converged": the transfer
completes despite mid-run sender restarts, and pings are still being
answered after the last chaos event.

The whole campaign is deterministic in its ``seed``: the timeline is
precomputed from ``derive_seed(seed, "chaos")`` before the run starts, and
the simulated testbed is deterministic in ``seed`` as usual — same seed,
same timeline, same counters.

:func:`run_aio_chaos_campaign` is the real-socket sibling (``repro chaos
--backend aio``): it kills a live :class:`~repro.aio.network.AioNetwork`
mid-transfer through the same supervised ``inject_fault`` entry point and
asserts convergence with strict ``requested - ok - failed = leaked``
accounting, per-chunk duplicate detection, and the ``aio.epoch`` /
``aio.nodup`` invariants of :mod:`repro.check`.  Wall-clock timing is not
reproducible there, but the *kill plan* (how many restarts, at which
transfer fractions) is drawn from ``derive_seed(seed, "chaos-aio")`` and
the convergence assertions hold deterministically per seed.

Run via ``repro chaos`` (instrumented through
:func:`repro.bench.harness.run_observed`) to get the supervision metrics —
``kompics.restarts_total``, ``kompics.deadletters_total`` — in the
snapshot document.
"""

from __future__ import annotations

import random
import time
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.bench.faults import FAULT_ENV, run_campaign_workload, wire_campaign_workload
from repro.bench.report import campaign_document, failed
from repro.bench.scenario import MB, Setup, TestbedPair
from repro.messaging import Transport
from repro.netsim.faults import FaultInjector
from repro.util.rng import derive_seed

#: components a campaign may fault by default.  The pinger is left alone
#: on purpose: it is the health probe that measures convergence.
DEFAULT_TARGETS: Tuple[str, ...] = ("sender", "ponger")

#: the supervision both campaigns run under: restart, ten times per 30 s
RESTART_POLICY: Dict[str, object] = {
    "kompics.supervision.enabled": True,
    "kompics.supervision.max_restarts": 10,
    "kompics.supervision.window": 30.0,
}

#: every component label a campaign can fault
ALL_TARGETS: Tuple[str, ...] = (
    "pinger", "ponger", "sender", "receiver", "net-snd", "net-rcv",
)


@dataclass(frozen=True)
class ChaosEvent:
    """One planned chaos action (times are absolute sim seconds)."""

    time: float
    kind: str  # "component_fault" | "link_cut"
    target: str  # component label, or "link"
    duration: float  # link cuts only; 0.0 for faults


@dataclass(frozen=True)
class ChaosCampaignResult:
    """What one seeded campaign planned, observed and recovered."""

    setup: str
    seed: int
    sim_time: float
    timeline: Tuple[ChaosEvent, ...]
    faults_injected: int
    link_cuts: int
    restarts: int
    escalations: int
    deadletters: int
    pings_sent: int
    pings_answered: int
    pings_answered_before_tail: int
    transfer_bytes: int
    transfer_progress: float
    transfer_done: bool
    reconnect_attempts: int
    reconnect_recovered: int

    @property
    def pings_answered_in_tail(self) -> int:
        """Pings answered after the convergence probe point."""
        return self.pings_answered - self.pings_answered_before_tail

    kind = "chaos"

    def problems(self) -> List[str]:
        """Why the system did not converge after chaos (empty = it did)."""
        return failed(
            (self.transfer_done, f"transfer_done=False: transfer stopped at "
             f"{self.transfer_progress:.1%} of {self.transfer_bytes} bytes"),
            (self.pings_answered_in_tail > 0,
             f"pings_answered_in_tail=0 ({self.pings_answered} answered, all before "
             f"the tail): no pings answered after the last chaos event"),
            (self.faults_injected == 0 or self.restarts > 0,
             f"restarts=0 although {self.faults_injected} component fault(s) were "
             f"planned: supervision never restarted anything"),
        )

    def summary(self) -> str:
        lines = [
            f"chaos campaign on {self.setup} (seed {self.seed}): "
            f"{self.faults_injected} fault(s), {self.link_cuts} link cut(s)",
        ]
        for event in self.timeline:
            detail = f" for {event.duration:.2f}s" if event.kind == "link_cut" else ""
            lines.append(f"  {event.time:7.3f}s  {event.kind:16s} {event.target}{detail}")
        lines += [
            f"  supervision     {self.restarts} restart(s), "
            f"{self.escalations} escalation(s)",
            f"  dead letters    {self.deadletters}",
            f"  pings           {self.pings_answered}/{self.pings_sent} answered, "
            f"{self.pings_answered_in_tail} in the convergence tail",
            f"  transfer        {self.transfer_progress:.1%} of "
            f"{self.transfer_bytes // MB} MB"
            + (" (complete)" if self.transfer_done else ""),
            f"  reconnects      {self.reconnect_attempts} attempt(s), "
            f"{self.reconnect_recovered} recovered",
        ]
        return "\n".join(lines)

    def to_document(self) -> Dict[str, Any]:
        return campaign_document(self)


def plan_chaos_timeline(
    seed: int,
    targets: Tuple[str, ...] = DEFAULT_TARGETS,
    chaos_start: float = 2.0,
    chaos_end: float = 10.0,
    events: int = 5,
    p_component_fault: float = 0.6,
    cut_range: Tuple[float, float] = (0.3, 1.0),
) -> Tuple[ChaosEvent, ...]:
    """Draw a deterministic chaos timeline from ``seed``.

    Each event lands uniformly in ``[chaos_start, chaos_end)`` and is
    either a handler fault on one of ``targets`` (probability
    ``p_component_fault``) or a link cut with a duration drawn from
    ``cut_range``.  The plan is fixed before the run, so the same seed
    replays the identical campaign.
    """
    rng = random.Random(derive_seed(seed, "chaos"))
    plan = []
    for _ in range(events):
        time = rng.uniform(chaos_start, chaos_end)
        if targets and rng.random() < p_component_fault:
            plan.append(ChaosEvent(time, "component_fault", rng.choice(targets), 0.0))
        else:
            plan.append(ChaosEvent(time, "link_cut", "link", rng.uniform(*cut_range)))
    plan.sort(key=lambda e: (e.time, e.kind, e.target))
    return tuple(plan)


def run_chaos_campaign(
    setup: Setup = FAULT_ENV,
    duration: float = 20.0,
    chaos_start: float = 2.0,
    chaos_end: float = 10.0,
    events: int = 5,
    targets: Tuple[str, ...] = DEFAULT_TARGETS,
    tail: float = 3.0,
    transfer_bytes: int = 4 * MB,
    transfer_transport: Transport = Transport.TCP,
    ping_interval: float = 0.25,
    seed: int = 0,
    p_component_fault: float = 0.6,
    cut_range: Tuple[float, float] = (0.3, 1.0),
    connect_timeout: float = 0.4,
) -> ChaosCampaignResult:
    """Random faults + link cuts under a fig8-shaped workload.

    Supervision is on with a global RESTART policy
    (:data:`RESTART_POLICY`); channel recovery is on so cut links
    re-establish on demand.  ``tail`` seconds at the end
    of the run are chaos-free: pings answered in that window are the
    convergence signal (an empty :meth:`ChaosCampaignResult.problems`).
    """
    if setup.local:
        raise ValueError("chaos campaigns need a point-to-point setup (a link to cut)")
    if chaos_end + tail > duration:
        raise ValueError("duration must cover chaos_end plus the convergence tail")
    timeline = plan_chaos_timeline(
        seed, targets, chaos_start, chaos_end, events, p_component_fault, cut_range
    )

    sys_config: Dict[str, object] = {
        **RESTART_POLICY,
        "messaging.reconnect.enabled": True,
        "messaging.reconnect.jitter": 0.0,
    }

    with TestbedPair(setup, seed=seed, sys_config=sys_config) as pair:
        pair.fabric.connect_timeout = connect_timeout
        components = wire_campaign_workload(
            pair, seed, transfer_bytes, transfer_transport, ping_interval
        )
        unknown = {e.target for e in timeline if e.kind == "component_fault"} - set(ALL_TARGETS)
        if unknown:
            raise ValueError(f"unknown chaos targets {sorted(unknown)}")

        injector = FaultInjector(pair.fabric)
        ip_a, ip_b = pair.sender.host.ip, pair.receiver.host.ip
        supervision = pair.system.supervision
        for event in timeline:
            if event.kind == "component_fault":
                injector.at(
                    event.time,
                    lambda e=event: supervision.inject_fault(
                        components[e.target],
                        RuntimeError(f"chaos: {e.target} at {e.time:.3f}s"),
                    ),
                    label="chaos-fault",
                )
            else:
                injector.at(
                    event.time,
                    lambda e=event: injector.cut_link(ip_a, ip_b, duration=e.duration),
                    label="chaos-cut",
                )

        # Convergence probe: pings answered before the chaos-free tail starts.
        probe = {"answered": 0}

        def take_probe() -> None:
            probe["answered"] = len(components["pinger"].definition.rtts)

        pair.sim.schedule_at(duration - tail, take_probe, label="chaos-probe")

        observed = run_campaign_workload(pair, components, duration)
        return ChaosCampaignResult(
            seed=seed,
            timeline=timeline,
            faults_injected=sum(1 for e in timeline if e.kind == "component_fault"),
            link_cuts=sum(1 for e in timeline if e.kind == "link_cut"),
            restarts=supervision.restarts_total,
            escalations=supervision.escalations_total,
            deadletters=pair.system.deadletters_total,
            pings_answered_before_tail=probe["answered"],
            **observed,
        )


# ----------------------------------------------------------------------
# real-socket chaos: supervised kill/restart of a live AioNetwork
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AioChaosResult:
    """One seeded real-socket chaos run: kill plan, accounting, verdict.

    The accounting identity the whole campaign hangs on is the sender's
    ``requested - ok - failed = leaked``: every chunk handed to the
    network wrapped in a ``MessageNotify.Req`` must resolve exactly once,
    crash or no crash.  ``duplicates_delivered`` counts application-level
    chunk deliveries beyond the first per sequence number — the receiver
    network's ``(epoch, seq)`` window must make this zero even when
    at-least-once redelivery re-sends frames that already reached the
    wire before the kill.
    """

    transport: str
    redelivery: str
    seed: int
    size: int
    chunks: int
    restarts_planned: int
    restarts_done: int
    kill_points: Tuple[int, ...]  # chunk-progress thresholds of each kill
    epochs: Tuple[int, ...]  # sender network epoch per incarnation
    requested: int
    ok: int
    failed: int
    delivered_unique: int
    duplicates_delivered: int
    dups_suppressed: int
    requeued: int
    deadletters: int
    sender_done: bool
    duration: float
    check_ok: bool
    violations: Tuple[str, ...] = ()
    check_streams: Dict[str, Any] = field(default_factory=dict)

    @property
    def leaked(self) -> int:
        return self.requested - self.ok - self.failed

    @property
    def epochs_monotone(self) -> bool:
        return all(a < b for a, b in zip(self.epochs, self.epochs[1:]))

    kind = "chaos-aio"

    def problems(self) -> List[str]:
        """Where the run broke its redelivery contract (empty = it held).

        Under ``at-most-once`` chunks in flight across a kill may fail
        (that is the contract) but every notify resolves and nothing
        doubles; ``at-least-once`` must also land every chunk: redelivery
        replays the gap, the epoch fence dedups the overlap.
        """
        at_most_once = self.redelivery != "at-least-once"
        return failed(
            (self.sender_done, "sender_done=False: sender never finished its accounting"),
            (self.leaked == 0,
             f"leaked={self.leaked}: notifies never resolved across a restart"),
            (self.duplicates_delivered == 0,
             f"duplicates_delivered={self.duplicates_delivered}: chunks delivered twice"),
            (self.restarts_done == self.restarts_planned,
             f"restarts_done={self.restarts_done} of {self.restarts_planned} planned: "
             f"not every kill landed"),
            (len(self.epochs) == self.restarts_done + 1 and self.epochs_monotone,
             f"epochs={list(self.epochs)}: want {self.restarts_done + 1} strictly "
             f"increasing network epochs"),
            (self.check_ok, "check_ok=False: " + "; ".join(self.violations)),
            ("aio" in self.check_streams, f"check_streams={sorted(self.check_streams)}: "
             f"no aio digest stream (checker was off?)"),
            (at_most_once or self.delivered_unique == self.chunks,
             f"delivered_unique={self.delivered_unique} of {self.chunks} chunks "
             f"under at-least-once"),
            (at_most_once or self.failed == 0,
             f"failed={self.failed} notifies under at-least-once"),
        )

    def summary(self) -> str:
        return "\n".join([
            f"aio chaos campaign ({self.transport}, {self.redelivery}, "
            f"seed {self.seed}): {self.restarts_done}/{self.restarts_planned} "
            f"supervised restart(s) at chunk(s) {list(self.kill_points)}",
            f"  epochs          {list(self.epochs)}",
            f"  notifies        {self.ok} ok / {self.failed} failed / "
            f"{self.leaked} leaked of {self.requested}",
            f"  delivered       {self.delivered_unique}/{self.chunks} unique, "
            f"{self.duplicates_delivered} duplicate(s), "
            f"{self.dups_suppressed} suppressed by the dedup window",
            f"  redelivery      {self.requeued} frame(s) requeued across restarts",
            f"  dead letters    {self.deadletters}",
            f"  invariants      {'ok' if self.check_ok else 'VIOLATED'}",
        ])

    def to_document(self) -> Dict[str, Any]:
        return campaign_document(self, "leaked", "epochs_monotone")


def plan_aio_kill_points(seed: int, restarts: int, chunks: int) -> Tuple[int, ...]:
    """Chunk-progress thresholds at which the sender network gets killed.

    Drawn from ``derive_seed(seed, "chaos-aio")`` over the middle of the
    transfer (15%–75%), so every kill lands mid-stream — never before the
    first chunk or after the last — and the same seed plans the same
    campaign on any host.
    """
    rng = random.Random(derive_seed(seed, "chaos-aio"))
    lo = max(1, int(chunks * 0.15))
    hi = max(lo + 1, int(chunks * 0.75))
    points = sorted(rng.randint(lo, hi) for _ in range(restarts))
    # De-overlap: two kills at the same progress point would collapse
    # into a single observable restart window.
    for i in range(1, len(points)):
        if points[i] <= points[i - 1]:
            points[i] = points[i - 1] + 1
    return tuple(points)


def run_aio_chaos_campaign(
    transport: Transport = Transport.TCP,
    size: int = 1 * MB,
    seed: int = 0,
    restarts: int = 2,
    redelivery: str = "at-most-once",
    timeout: float = 120.0,
) -> AioChaosResult:
    """Kill and supervision-restart a live ``AioNetwork`` mid-transfer.

    A chunked dataset flows over real loopback sockets from a sender to a
    receiver node while the harness, at seeded progress points, faults
    the **sender's network component** through
    ``system.supervision.inject_fault`` — the same entry point the
    simulated campaign uses.  Supervision (:data:`RESTART_POLICY`) tears
    the faulted network down leak-free and reinstantiates it from its
    recorded create args; the sender application never sees the crash
    except through its notify accounting.

    ``redelivery`` selects the ``messaging.aio.redelivery`` contract:
    ``at-most-once`` (default) fails chunks in flight across each kill,
    ``at-least-once`` stashes and replays them under the epoch fence.
    """
    from repro.apps import SyntheticDataset
    from repro.bench.loopback import LOOPBACK_CHUNK, loopback_pair
    from repro.check import checking, get_checker

    if transport not in (Transport.TCP, Transport.UDT):
        raise ValueError("aio chaos runs on TCP or UDT (UDP has no delivery contract)")
    if redelivery not in ("at-most-once", "at-least-once"):
        raise ValueError(f"unknown redelivery mode {redelivery!r}")

    dataset = SyntheticDataset(size=size, chunk_size=LOOPBACK_CHUNK, seed=seed)
    chunks = dataset.total_chunks
    kill_points = plan_aio_kill_points(seed, restarts, chunks)

    config: Dict[str, object] = {
        **RESTART_POLICY,
        "kompics.fault_policy": "store",
        "messaging.aio.redelivery": redelivery,
    }

    # The verdict needs the aio digest stream: run under the caller's
    # checker when one is installed, under our own otherwise.
    with ExitStack() as stack:
        chk = get_checker() if get_checker().enabled else stack.enter_context(checking())
        started = time.monotonic()
        deadline = started + timeout
        pair = stack.enter_context(loopback_pair(transport, seed, config))
        system, net_snd, net_rcv = pair.system, pair.sender.network, pair.receiver.network
        source, sink = pair.stream(dataset, transport, window=16)
        epochs: List[int] = [net_snd.definition.epoch]
        snd_def = source.definition
        rcv_def = sink.definition

        # The kills fire from the sender's own notify-accounting path, at
        # the exact planned completion counts: the hook runs on the
        # worker executing the sender (one component, one worker at a
        # time), so "kill #i at >= point chunks" is deterministic in the
        # plan — not a race between a polling harness thread and a
        # transfer that may finish in milliseconds.  inject_fault resolves
        # the supervised restart synchronously; by the time the hook
        # returns, the core carries the ready successor instance.
        pending_kills = deque(kill_points)
        kill_state = {"restarts": 0, "requeued": 0}

        def on_progress(completed: int) -> None:
            while pending_kills and completed >= pending_kills[0]:
                point = pending_kills.popleft()
                kill_state["restarts"] += 1
                system.supervision.inject_fault(
                    net_snd,
                    RuntimeError(
                        f"chaos-aio: kill #{kill_state['restarts']} at >= {point} chunks"
                    ),
                )
                new_def = net_snd.definition
                new_def.wait_ready(10.0)
                epochs.append(new_def.epoch)
                kill_state["requeued"] += new_def.counters["requeued"]

        snd_def.on_progress = on_progress
        pair.start(sink, source)

        if not snd_def.done.wait(timeout=max(0.0, deadline - time.monotonic())):
            raise RuntimeError(
                f"aio chaos sender stalled: {snd_def.ok} ok / {snd_def.failed} "
                f"failed / {snd_def.outstanding} in flight of {chunks}"
            )
        if redelivery == "at-least-once":
            # Every chunk must eventually land; give the wire time to
            # drain the replayed tail.
            rcv_def.complete.wait(timeout=max(0.0, deadline - time.monotonic()))
        else:
            # at-most-once: no completion promise — wait for the receive
            # side to go quiet so late frames are counted, not raced.
            settled = rcv_def.delivered
            settle_deadline = min(deadline, time.monotonic() + 5.0)
            while time.monotonic() < settle_deadline:
                time.sleep(0.1)
                now_count = rcv_def.delivered
                if now_count == settled:
                    break
                settled = now_count

        final_snd = net_snd.definition
        return AioChaosResult(
            transport=transport.value,
            redelivery=redelivery,
            seed=seed,
            size=size,
            chunks=chunks,
            restarts_planned=restarts,
            restarts_done=kill_state["restarts"],
            kill_points=kill_points,
            epochs=tuple(epochs),
            requested=snd_def.requested,
            ok=snd_def.ok,
            failed=snd_def.failed,
            delivered_unique=rcv_def.delivered_unique,
            duplicates_delivered=rcv_def.duplicates,
            dups_suppressed=(
                net_rcv.definition.counters["dups_suppressed"]
                + final_snd.counters["dups_suppressed"]
            ),
            requeued=kill_state["requeued"],
            deadletters=system.deadletters_total,
            sender_done=snd_def.done.is_set(),
            duration=time.monotonic() - started,
            check_ok=chk.ok,
            violations=tuple(v.format() for v in chk.violations),
            check_streams=chk.document()["streams"],
        )
