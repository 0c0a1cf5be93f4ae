"""Links: bandwidth, delay, loss, UDP policing and max-min fair sharing."""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.check import get_checker
from repro.obs import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.connection import FlowState

PACKET_SIZE = 1500.0  # bytes; granularity for loss-probability conversion

#: A link whose demands sum to at most this fraction of its bandwidth is
#: under-subscribed beyond any rounding doubt (see ``_allocate_epoch``).
FITS_MARGIN = 1.0 - 1e-9


class Proto(enum.Enum):
    """Wire transports the simulator understands."""

    TCP = "tcp"
    UDP = "udp"
    UDT = "udt"  # runs over UDP and is therefore subject to UDP policing
    LEDBAT = "ledbat"  # scavenger background transport (RFC 6817), over UDP

    # Members are singletons: hash by identity in C, not Enum.__hash__'s
    # Python-level hash(name), on every per-message dict probe.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class LinkSpec:
    """One direction's characteristics.

    ``bandwidth``      bytes/second capacity.
    ``delay``          one-way propagation delay in seconds.
    ``loss``           per-packet (1500 B) random loss probability.
    ``udp_cap``        bytes/second policing cap shared by all UDP-based
                       traffic (models EC2's ~10 MB/s UDP rate limiting);
                       ``None`` disables policing.
    ``jitter``         max extra uniform delay applied to UDP datagrams.
    """

    bandwidth: float
    delay: float
    loss: float = 0.0
    udp_cap: Optional[float] = None
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("loss must be in [0, 1)")
        if self.udp_cap is not None and self.udp_cap <= 0:
            raise ValueError("udp_cap must be positive or None")


def max_min_allocation(demands: Sequence[float], capacity: float) -> List[float]:
    """Progressive-filling max-min fair allocation.

    Flows demanding less than their fair share keep their demand; the
    leftover is redistributed among the rest.  ``inf`` demands are
    satisfied last and share the remainder equally.
    """
    n = len(demands)
    if n == 0:
        return []
    if n == 1:
        # Degenerate progressive filling: share = capacity / 1.
        return [min(demands[0], capacity / 1)]
    if n == 2:
        # Two flows, unrolled.  sorted() is stable, so on a demand tie the
        # lower index settles first — mirrored by the <= below.
        d0, d1 = demands
        if d0 <= d1:
            a0 = min(d0, capacity / 2)
            a1 = min(d1, capacity - a0)
        else:
            a1 = min(d1, capacity / 2)
            a0 = min(d0, capacity - a1)
        return [a0, a1]
    alloc = [0.0] * n
    remaining = capacity
    # Sort indices by demand so that under-demanders are settled first.
    order = sorted(range(n), key=lambda i: demands[i])
    active = n
    for idx in order:
        share = remaining / active
        give = min(demands[idx], share)
        alloc[idx] = give
        remaining -= give
        active -= 1
    return alloc


def max_min_share(demands: List[float], index: int, capacity: float) -> float:
    """One flow's progressive-filling share, without settling the rest.

    Bit-equal to ``max_min_allocation(demands, capacity)[index]``: the
    reference settles flows in stable ascending-demand order, so flow
    ``index`` is preceded by exactly the strictly smaller demands plus the
    equal demands at lower indices, and its share depends on nothing that
    settles after it.  Tied demands are equal *values*, so sorting the
    values alone replays the same ``remaining -= give`` left fold.
    """
    mine = demands[index]
    if len(demands) == 2:
        # Two flows, unrolled like max_min_allocation's own n == 2 case.
        other = demands[1 - index]
        if other < mine or (other == mine and index == 1):
            half = capacity / 2
            capacity -= other if other <= half else half
        else:
            capacity /= 2
        return mine if mine <= capacity else capacity
    below = [d for d in demands if d < mine]
    below.sort()
    ties = demands[:index].count(mine)
    if ties:
        below.extend([mine] * ties)
    remaining = capacity
    active = len(demands)
    for demand in below:
        share = remaining / active
        remaining -= demand if demand <= share else share
        active -= 1
    share = remaining / active
    return mine if mine <= share else share


class _Partition:
    """Struct-of-arrays view of a direction's active flows.

    Edited, never rebuilt: :meth:`add` appends a flow, :meth:`remove`
    drops one and shifts the later positions down, so positions stay in
    activation order (the tie order of ``max_min_share`` and the udp pool).
    """

    __slots__ = ("index", "flows", "demands", "varying", "udp", "foreground", "scavengers")

    def __init__(self) -> None:
        #: flow -> position in ``flows`` and ``demands`` (activation order)
        self.index: Dict["FlowState", int] = {}
        self.flows: List["FlowState"] = []
        #: per-flow demand: the pushed value for time-invariant controllers
        #: (kept current in place by ``publish_demand``), a slot rewritten
        #: at every solve for time-varying ones
        self.demands: List[float] = []
        #: ascending positions of the controllers asked at a solve, of the
        #: flows sharing the udp policing pool, and of each tier
        self.varying: List[int] = []
        self.udp: List[int] = []
        self.foreground: List[int] = []
        self.scavengers: List[int] = []

    def add(self, flow: "FlowState") -> None:
        position = len(self.flows)
        self.index[flow] = position
        self.flows.append(flow)
        self.demands.append(flow.demand)
        if flow.cc.demand_time_varying:
            self.varying.append(position)
        if flow.subject_to_udp_cap:
            self.udp.append(position)
        (self.scavengers if flow.scavenger else self.foreground).append(position)

    def remove(self, flow: "FlowState") -> None:
        gone = self.index.pop(flow)
        flows = self.flows
        del flows[gone]
        del self.demands[gone]
        index = self.index
        for i in range(gone, len(flows)):
            index[flows[i]] = i
        for positions in (self.varying, self.udp, self.foreground, self.scavengers):
            k = bisect_left(positions, gone)
            if k < len(positions) and positions[k] == gone:
                del positions[k]
            for j in range(k, len(positions)):
                positions[j] -= 1


class LinkDirection:
    """One direction of a link; tracks active flows for fair sharing.

    Allocation epochs
    -----------------
    The tiered allocation (udp-cap pool → foreground max-min → scavenger
    leftover) is a pure function of the active-flow set, the link spec,
    the controllers' demand-relevant state, and — for time-varying
    controllers like UDT — the clock.  The direction counts an
    *allocation epoch* (``_epoch``), bumped when one of those inputs moves
    in a way the cache cannot absorb, and does work proportional to it:

    * the **flow set** changes on activate/deactivate, which edit the
      :class:`_Partition` (positions, tier membership, the controllers
      that need asking);
    * a **time-invariant demand** changes when its controller's
      ``demand_gen`` moves; the flow *pushes* the new value
      (``publish_demand``), stored in place — outside the udp pool into
      the cache too, staling only its "all demands fit" test;
    * a **time-varying demand** is *pulled*: those controllers are asked
      where :meth:`_allocate_general` asks them, because a query may
      advance their state (``UdtCc._maybe_increase`` re-anchors its SYN
      clock when asked), and say when it can next change
      (``next_change_at``).

    Within one epoch, up to the earliest ``next_change_at`` asked, the
    gathered, udp-capped demand list is cached, and each query settles
    only the asking flow (:func:`max_min_share`).  That is byte-equivalent
    to :meth:`_allocate_general` because ``demand_rate`` is idempotent
    within a timestamp, pure for pushed controllers and a no-op before
    ``next_change_at`` for pulled ones (see
    :class:`~repro.netsim.congestion.CongestionControl`).
    """

    def __init__(self, spec: LinkSpec, name: str) -> None:
        self.spec = spec
        self.name = name
        self.up = True
        #: the active flows, in activation order
        self._partition = _Partition()
        #: allocation epoch; an input change the cache cannot take bumps it
        self._epoch = 0
        #: [epoch, valid-until time, udp-capped demands by position,
        #: whether they all fit or None when that is stale] — valid until
        #: ``inf`` when every participant's demand is pushed
        self._alloc_cache: Optional[List[Any]] = None
        #: (spec, nbytes, probability) — see loss_probability
        self._loss_memo: Optional[Tuple[LinkSpec, int, float]] = None

        # Per-direction wire accounting (no-ops unless a registry is enabled).
        metrics = get_registry()
        self._obs = metrics.enabled
        self._m_bytes = metrics.counter("netsim.link.bytes_total", link=name)
        self._m_messages = metrics.counter("netsim.link.messages_total", link=name)
        self._m_drops = metrics.counter("netsim.link.drops_total", link=name)
        # Cost counters: how much work allocation did, not what it decided.
        self._m_alloc_queries = metrics.counter("netsim.link.alloc_queries_total", link=name)
        self._m_alloc_solves = metrics.counter("netsim.link.alloc_solves_total", link=name)
        self._m_demand_queries = metrics.counter("netsim.link.demand_queries_total", link=name)
        if metrics.enabled:
            metrics.gauge("netsim.link.active_flows", link=name).set_function(
                lambda: len(self._partition.flows)
            )
        checker = get_checker()
        self._check = checker.link_hook(name) if checker.enabled else None

    # ------------------------------------------------------------------
    # wire accounting (called by FlowState on the transmit path)
    # ------------------------------------------------------------------
    def note_transmit(self, nbytes: int) -> None:
        """Account one message put on the wire in this direction."""
        if self._obs:
            self._m_bytes.inc(nbytes)
            self._m_messages.inc()

    def note_drop(self) -> None:
        """Account one message lost in this direction (loss, cut, abort)."""
        if self._obs:
            self._m_drops.inc()

    def _note_solve(self, demand_queries: int) -> None:
        """Account one allocation computed (not served from the cache)."""
        self._m_alloc_solves.inc()
        self._m_demand_queries.inc(demand_queries)

    def update_spec(self, spec: LinkSpec) -> None:
        """Change the direction's characteristics at runtime.

        Models changing network conditions (congestion elsewhere, route
        changes, degradation) — the scenario the paper's adaptive selection
        exists for.  Existing connections keep flowing; their congestion
        state reacts to the new loss/bandwidth on the next transmissions.
        NOTE: per-connection RTT estimates are refreshed by
        ``SimNetwork.refresh_rtts`` (connections cache the RTT at dial time).
        """
        self.spec = spec
        self._epoch += 1

    # ------------------------------------------------------------------
    # flow registration
    # ------------------------------------------------------------------
    def activate(self, flow: "FlowState") -> None:
        if flow not in self._partition.index:
            self._partition.add(flow)
            self._epoch += 1

    def deactivate(self, flow: "FlowState") -> None:
        if flow in self._partition.index:
            self._partition.remove(flow)
            self._epoch += 1

    def demand_dirty(self) -> None:
        """Invalidate the allocation epoch: a pulled demand's state moved.

        Called by :class:`~repro.netsim.connection.FlowState` when a
        time-varying controller's ``demand_gen`` moved (it is asked again
        at the next solve) and when a flow aborts.  Time-invariant
        controllers use :meth:`publish_demand` instead.
        """
        self._epoch += 1

    def publish_demand(self, flow: "FlowState", demand: float) -> None:
        """A time-invariant controller's demand moved to ``demand``.

        The flow keeps the value in ``flow.demand`` (read when it joins
        the partition; nothing here depends on it before).  A current
        cache takes it in place unless the flow shares the udp pool,
        whose capping it may move.
        """
        partition = self._partition
        position = partition.index.get(flow)
        if position is None:
            return
        partition.demands[position] = demand
        cache = self._alloc_cache
        if cache is not None and cache[0] == self._epoch and not flow.subject_to_udp_cap:
            cache[2][position] = demand  # the capped copy, or the same list
            cache[3] = None
        else:
            self._epoch += 1

    def _release(self) -> None:
        """Forget every flow and cached allocation (``SimNetwork.close``)."""
        self._partition = _Partition()
        self._alloc_cache = None

    @property
    def active_flows(self) -> Tuple["FlowState", ...]:
        return tuple(self._partition.flows)

    # ------------------------------------------------------------------
    # rate allocation
    # ------------------------------------------------------------------
    def allocate_rate(self, flow: "FlowState") -> float:
        """This flow's current max-min share, given every active demand.

        Three concerns compose:

        * UDP-based flows (UDP, UDT, LEDBAT) first share the policing pool
          ``udp_cap`` among themselves (EC2's rate limiting);
        * *scavenger* flows (LEDBAT) only receive bandwidth left over after
          every foreground flow's demand is satisfied — the less-than-best-
          effort semantics of RFC 6817;
        * within each tier, progressive-filling max-min fairness.
        """
        if self._obs:
            self._m_alloc_queries.inc()
        if self._check is not None:
            # Checked runs always take the general path: it computes the
            # full demand/allocation maps the feasibility invariant needs
            # (controllers mutate state when queried, so the hook must not
            # re-query them).
            return self._allocate_general(flow)
        index = self._partition.index
        if len(index) == 1 and flow in index:
            # Sole-flow queries gain nothing from the cache (the whole
            # solve is four lines), so they keep a direct unrolled path.
            spec = self.spec
            varying = flow.cc.demand_time_varying
            demand = flow.demand_rate() if varying else flow.demand
            if self._obs:
                self._note_solve(int(varying))
            if flow.subject_to_udp_cap and spec.udp_cap is not None:
                cap = spec.udp_cap
                if demand > cap:
                    demand = cap
            bw = spec.bandwidth
            if demand > bw:
                demand = bw
            return demand if demand > 1.0 else 1.0
        return self._allocate_epoch(flow)

    def _query_flows(self, flow: "FlowState") -> Tuple["FlowState", ...]:
        """The flow set an allocation covers, in activation order."""
        flows = self.active_flows
        if flow not in self._partition.index:
            flows = flows + (flow,)
        return flows

    def _tiered_allocation(
        self,
        flows: Sequence["FlowState"],
        demands: Dict["FlowState", float],
    ) -> Dict["FlowState", float]:
        """udp-cap pool → foreground max-min → scavenger leftover.

        Mutates ``demands`` in place (udp-capped values), matching what the
        checker hook historically observed.
        """
        spec = self.spec
        if spec.udp_cap is not None:
            udp_flows = [f for f in flows if f.subject_to_udp_cap]
            if udp_flows:
                capped = max_min_allocation([demands[f] for f in udp_flows], spec.udp_cap)
                for f, c in zip(udp_flows, capped):
                    demands[f] = c

        foreground = [f for f in flows if not f.scavenger]
        background = [f for f in flows if f.scavenger]
        fg_alloc = max_min_allocation([demands[f] for f in foreground], spec.bandwidth)
        allocation: Dict["FlowState", float] = dict(zip(foreground, fg_alloc))
        if background:
            leftover = max(spec.bandwidth - sum(fg_alloc), 0.0)
            bg_alloc = max_min_allocation([demands[f] for f in background], leftover)
            allocation.update(zip(background, bg_alloc))
        return allocation

    def _allocate_general(self, flow: "FlowState") -> float:
        flows = self._query_flows(flow)
        demands: Dict["FlowState", float] = {f: f.demand_rate() for f in flows}
        if self._obs:
            self._note_solve(len(flows))
        allocation = self._tiered_allocation(flows, demands)

        if self._check is not None:
            self._check.on_allocation(
                demands, allocation, self.spec.bandwidth,
                {f: f.scavenger for f in flows},
            )

        # Never return a zero rate for a flow with work: progress floor.
        return max(allocation[flow], 1.0)

    def _allocate_epoch(self, flow: "FlowState") -> float:
        """Settle ``flow`` alone, over this epoch's gathered demands.

        A miss asks the time-varying controllers (and only them: the rest
        have pushed their demand), applies the udp-cap pool, and caches
        the resulting demand list for the epoch — up to the earliest time
        an asked controller's state can change, across timestamps when
        nothing was asked.  Hit or miss, the tiers then settle only as far
        as ``flow``'s own position in the ascending-demand order.
        """
        partition = self._partition
        position = partition.index.get(flow)
        if position is None:
            # Not (yet) in the active set: the general path covers it.
            return self._allocate_general(flow)
        spec = self.spec
        now = flow.sim.clock._now
        cache = self._alloc_cache
        if cache is None or cache[0] != self._epoch or now > cache[1]:
            epoch = self._epoch  # before queries: a query must not outlive bumps
            demands = partition.demands
            varying = partition.varying
            until = math.inf
            flows = partition.flows
            for i in varying:
                pulled = flows[i]
                demands[i] = pulled.demand_rate()
                change = pulled.cc.next_change_at(now)
                if change < until:
                    until = change
            if self._obs:
                self._note_solve(len(varying))
            udp = partition.udp
            cap = spec.udp_cap
            if udp and cap is not None:
                if len(udp) > 1:
                    capped = max_min_allocation([demands[i] for i in udp], cap)
                elif demands[udp[0]] > cap:
                    capped = (cap,)  # a pool of one is a clamp
                else:
                    capped = ()
                if capped:
                    demands = demands[:]  # the pushed values outlive the capping
                    for i, c in zip(udp, capped):
                        demands[i] = c
            cache = self._alloc_cache = [epoch, until, demands, None]
        demands, fits = cache[2], cache[3]
        if fits is None:
            # When the demands fit the link with room to spare, progressive
            # filling grants every one of them in full: its running share
            # never drops below the demand being settled.  The margin is
            # orders above the rounding error of the fold and of this sum.
            fits = cache[3] = not partition.scavengers and (
                sum(demands) <= spec.bandwidth * FITS_MARGIN
            )
        if fits:
            rate = demands[position]
        elif not partition.scavengers:
            rate = max_min_share(demands, position, spec.bandwidth)
        else:
            foreground = partition.foreground
            fg_demands = [demands[i] for i in foreground]
            if not flow.scavenger:
                rate = max_min_share(
                    fg_demands, bisect_left(foreground, position), spec.bandwidth
                )
            else:
                fg_alloc = max_min_allocation(fg_demands, spec.bandwidth)
                leftover = max(spec.bandwidth - sum(fg_alloc), 0.0)
                scavengers = partition.scavengers
                rate = max_min_share(
                    [demands[i] for i in scavengers],
                    bisect_left(scavengers, position),
                    leftover,
                )
        # Never return a zero rate for a flow with work: progress floor.
        return rate if rate > 1.0 else 1.0

    # ------------------------------------------------------------------
    # loss
    # ------------------------------------------------------------------
    def loss_probability(self, nbytes: int) -> float:
        """Probability that a transmission of ``nbytes`` sees >= 1 packet loss."""
        # Single-entry memo: bulk transfers ask for the same chunk size
        # against the same (frozen) spec millions of times, and math.pow
        # dominates an otherwise trivial function.
        spec = self.spec
        memo = self._loss_memo
        if memo is not None and memo[0] is spec and memo[1] == nbytes:
            return memo[2]
        if spec.loss <= 0.0:
            p = 0.0
        else:
            packets = nbytes / PACKET_SIZE
            if packets < 1.0:
                packets = 1.0
            p = 1.0 - math.pow(1.0 - spec.loss, packets)
        self._loss_memo = (spec, nbytes, p)
        return p

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinkDirection({self.name}, bw={self.spec.bandwidth:.3g}B/s, d={self.spec.delay * 1e3:.3g}ms)"


class Link:
    """A duplex link between two hosts (or a host's loopback)."""

    def __init__(self, a: str, b: str, spec_ab: LinkSpec, spec_ba: Optional[LinkSpec] = None) -> None:
        self.a = a
        self.b = b
        self.forward = LinkDirection(spec_ab, f"{a}->{b}")
        self.backward = LinkDirection(spec_ba or spec_ab, f"{b}->{a}")

    def direction(self, src: str, dst: str) -> LinkDirection:
        if (src, dst) == (self.a, self.b):
            return self.forward
        if (src, dst) == (self.b, self.a):
            return self.backward
        raise KeyError(f"link {self.a}<->{self.b} does not join {src}->{dst}")

    def set_up(self, up: bool) -> None:
        self.forward.up = up
        self.backward.up = up

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.a} <-> {self.b})"
