"""Fault campaigns: scripted cut/degrade/restore timelines (resilience).

Drives the channel-recovery layer end to end: a ping-pong control stream
(TCP) and a bulk file transfer share one link, a scripted
:class:`~repro.netsim.faults.FaultInjector` timeline takes that link down
mid-transfer (and optionally degrades it afterwards), and the campaign
reports how the middleware recovered — reconnect attempts, recovered
channels, fallback activations — through ``repro.obs`` metrics and trace
events.

Run it instrumented via :func:`repro.bench.harness.run_observed` (the
``repro faults`` CLI subcommand does) so the recovery counters and the
``messaging.reconnect_*`` trace events land in the snapshot document.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.apps import SyntheticDataset
from repro.bench.harness import run_in_steps
from repro.bench.report import campaign_document, failed
from repro.bench.scenario import MB, Setup, TestbedPair
from repro.kompics import Component
from repro.messaging import Transport
from repro.netsim import LinkSpec
from repro.netsim.faults import FaultInjector
from repro.obs import get_registry, get_tracer

#: the default campaign environment: a modest point-to-point WAN-ish link
#: whose RTT keeps reconnect handshakes visibly non-free
FAULT_ENV = Setup(name="fault-env", rtt=0.01, bandwidth=20 * MB, udp_cap=None)


@dataclass(frozen=True)
class FaultCampaignResult:
    """What one scripted campaign observed (metrics read from the active
    registry; zeros when run without instrumentation)."""

    setup: str
    sim_time: float
    cut_at: float
    cut_duration: float
    pings_sent: int
    pings_answered: int
    transfer_bytes: int
    transfer_progress: float
    transfer_done: bool
    reconnect_attempts: int
    reconnect_recovered: int
    reconnect_giveups: int
    fallback_activations: int
    backoff_delays: Tuple[float, ...]

    @property
    def ping_loss(self) -> int:
        return self.pings_sent - self.pings_answered

    kind = "faults"

    def problems(self) -> List[str]:
        """Why the workload did not ride out the scripted faults (empty = it did).

        The transfer must have completed, the control plane must have
        stayed alive, and a cut that landed inside the run must have been
        answered by the recovery layer.  Bare (``recovery=False``) runs
        exist to demonstrate the at-most-once floor and are expected to
        fail this — the CLI only enforces it when recovery is on.
        """
        no_cut = self.cut_at >= self.sim_time
        cut = f"although the link was cut at {self.cut_at}s"
        return failed(
            (self.transfer_done, f"transfer_done=False: transfer stopped at "
             f"{self.transfer_progress:.1%} of {self.transfer_bytes} bytes"),
            (self.pings_answered > 0,
             f"pings_answered=0 of {self.pings_sent} sent: control plane died"),
            (no_cut or self.reconnect_attempts > 0,
             f"reconnect_attempts=0 {cut}: recovery never dialled"),
            (no_cut or self.reconnect_recovered > 0,
             f"reconnect_recovered=0 {cut}: channel never recovered"),
        )

    def summary(self) -> str:
        lines = [
            f"fault campaign on {self.setup}: "
            f"link cut at {self.cut_at:.1f}s for {self.cut_duration:.1f}s",
            f"  pings           {self.pings_answered}/{self.pings_sent} answered "
            f"({self.ping_loss} lost)",
            f"  transfer        {self.transfer_progress:.1%} of "
            f"{self.transfer_bytes // MB} MB"
            + (" (complete)" if self.transfer_done else ""),
            f"  reconnects      {self.reconnect_attempts} attempt(s), "
            f"{self.reconnect_recovered} recovered, {self.reconnect_giveups} gave up",
            f"  fallbacks       {self.fallback_activations}",
        ]
        if self.backoff_delays:
            delays = ", ".join(f"{d:.3f}" for d in self.backoff_delays)
            lines.append(f"  backoff (s)     {delays}")
        return "\n".join(lines)

    def to_document(self) -> Dict[str, object]:
        return campaign_document(self)


def wire_campaign_workload(
    pair: TestbedPair, seed: int, transfer_bytes: int,
    transfer_transport: Transport, ping_interval: float,
) -> Dict[str, Component]:
    """TCP control pings beside a bulk transfer over the pair's one link.

    The workload both campaigns disturb.  Returns its components by label
    (component ids and RNG streams follow the creation order here).
    """
    pair.wire(transfer_transport)
    pinger, ponger, timer = pair.pings(Transport.TCP, ping_interval)
    sender = pair.file_sender(
        SyntheticDataset(size=transfer_bytes, seed=seed), transfer_transport
    )
    net_snd = pair.sender.network
    if transfer_transport is Transport.DATA:
        net_snd = net_snd.definition.network  # the wire network behind the interceptor
    return {
        "timer": timer, "pinger": pinger, "ponger": ponger,
        "sender": sender, "receiver": pair.file_receiver(),
        "net-snd": net_snd, "net-rcv": pair.receiver.network,
    }


def run_campaign_workload(
    pair: TestbedPair, parts: Dict[str, Component], duration: float
) -> Dict[str, object]:
    """Start the workload, run ``duration`` sim seconds, and report the
    fields both campaign results record."""
    pair.start(*(parts[label] for label in ("timer", "ponger", "receiver", "pinger", "sender")))
    run_in_steps(pair, duration, lambda: False, step=0.25)
    metrics = get_registry()
    pinger, sender = parts["pinger"].definition, parts["sender"].definition
    return dict(
        setup=pair.setup.name,
        sim_time=pair.sim.now,
        pings_sent=pinger._next_seq,
        pings_answered=len(pinger.rtts),
        transfer_bytes=sender.dataset.size,
        transfer_progress=parts["receiver"].definition.progress(sender.transfer_id),
        transfer_done=sender.duration is not None,
        reconnect_attempts=int(metrics.total("messaging.reconnect.attempts_total")),
        reconnect_recovered=int(metrics.total("messaging.reconnect.recovered_total")),
    )


def run_fault_campaign(
    setup: Setup = FAULT_ENV,
    duration: float = 20.0,
    cut_at: float = 3.0,
    cut_duration: float = 2.0,
    degrade_at: Optional[float] = None,
    degrade_duration: float = 3.0,
    transfer_bytes: int = 8 * MB,
    transfer_transport: Transport = Transport.TCP,
    ping_interval: float = 0.25,
    seed: int = 0,
    recovery: bool = True,
    fallback: bool = False,
    jitter: Optional[float] = None,
    connect_timeout: float = 1.0,
) -> FaultCampaignResult:
    """Ping-pong + file transfer through a scripted fault timeline.

    The link between the two endpoints is cut at ``cut_at`` for
    ``cut_duration`` seconds (auto-restored by the injector); with
    ``degrade_at`` set, the link is additionally degraded to a quarter of
    its bandwidth with 1% loss for ``degrade_duration`` seconds, then
    restored.  ``recovery=False`` runs the same timeline on the bare
    middleware (today's message-loss behaviour) for comparison.

    ``jitter`` overrides ``messaging.reconnect.jitter`` (0 gives the
    exact backoff schedule).  ``connect_timeout`` governs
    how long a dial into a dead link blocks before failing — campaigns
    want it well below the paper-faithful 5 s default so backoff, not the
    dial timeout, dominates the recovery time.
    """
    if setup.local:
        raise ValueError("fault campaigns need a point-to-point setup (a link to cut)")
    sys_config: Dict[str, object] = {}
    if recovery:
        sys_config["messaging.reconnect.enabled"] = True
        if jitter is not None:
            sys_config["messaging.reconnect.jitter"] = jitter
    if fallback:
        sys_config["messaging.fallback.enabled"] = True

    with TestbedPair(setup, seed=seed, sys_config=sys_config) as pair:
        pair.fabric.connect_timeout = connect_timeout
        parts = wire_campaign_workload(
            pair, seed, transfer_bytes, transfer_transport, ping_interval
        )

        injector = FaultInjector(pair.fabric)
        ip_a, ip_b = pair.sender.host.ip, pair.receiver.host.ip
        injector.at(
            cut_at, lambda: injector.cut_link(ip_a, ip_b, duration=cut_duration)
        )
        if degrade_at is not None:
            degraded = LinkSpec(
                bandwidth=setup.bandwidth / 4, delay=setup.one_way_delay,
                loss=0.01, udp_cap=setup.udp_cap,
            )
            injector.at(
                degrade_at,
                lambda: injector.degrade_link(ip_a, ip_b, degraded, duration=degrade_duration),
            )

        observed = run_campaign_workload(pair, parts, duration)
    metrics = get_registry()
    tracer = get_tracer()
    backoff = tuple(
        r.fields["delay"] for r in tracer.named("messaging.reconnect_scheduled")
    ) if tracer.enabled else ()
    return FaultCampaignResult(
        cut_at=cut_at,
        cut_duration=cut_duration,
        reconnect_giveups=int(metrics.total("messaging.reconnect.giveups_total")),
        fallback_activations=int(metrics.total("messaging.fallback.activations_total")),
        backoff_delays=backoff,
        **observed,
    )
