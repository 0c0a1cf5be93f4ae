"""Fluid-flow congestion-control models and the table of named policies.

Each reliable connection direction owns a controller that answers "how fast
does the protocol want to send right now?" (``demand_rate``) and reacts to
ack-credit (``on_bytes_sent``) and loss signals (``on_loss``).  Because the
sender self-paces at ``cwnd/RTT``, window growth per acked byte reproduces
the per-RTT dynamics of the real protocols without explicit ack events:
transmitting ``cwnd`` bytes takes exactly one RTT, so slow start doubles
per RTT and congestion avoidance gains one MSS per RTT.

Controllers are *policies*, not transports: connections look them up by
name in :data:`CC_POLICIES` (see ``docs/congestion.md``), so a variant is
a scenario axis without touching the datapath.  The table covers the
paper's pair (Reno-style ``reno``, DAIMD ``udt``) plus ``cubic`` (window
growth as a cubic of time since the last loss) and ``bbr`` (rate pacing
with a gain-cycling probe phase), with ``udp`` and ``ledbat`` rounding out
the protocol set.
"""

from __future__ import annotations

import difflib
import math
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Optional, Tuple

MSS = 1448.0  # bytes of payload per TCP segment


class CongestionControl(ABC):
    """Protocol behaviour of one connection direction."""

    #: reliable protocols retransmit (loss only slows them down)
    reliable: bool = True
    #: FIFO delivery order maintained end-to-end
    ordered: bool = True
    #: subject to the link's UDP policing pool
    subject_to_udp_cap: bool = False
    #: scavenger protocols only get bandwidth foreground flows leave over
    scavenger: bool = False
    #: True when ``demand_rate`` depends on ``now`` (not only on controller
    #: state), e.g. UDT's SYN-interval ramping.  Links *pull* such a
    #: controller's demand, and ask again once ``next_change_at`` has
    #: passed; the demand of a time-invariant controller is *pushed* to
    #: them whenever ``demand_gen`` moves and never asked for in between
    #: (allocation epochs; see ``demand_rate`` for what that needs).
    demand_time_varying: bool = False
    def __init__(self) -> None:
        #: Generation counter for demand-relevant state.  Implementations
        #: bump it whenever a signal (``on_bytes_sent``/``on_loss``)
        #: actually changes the value ``demand_rate`` would return, and so
        #: must anything that writes such state from outside (then call
        #: ``FlowState.publish_demand``, as ``SimNetwork.refresh_rtts``
        #: does after writing ``rtt``).  The flow watches it to know when
        #: to push the new demand to its links or invalidate their epochs.
        #: A pegged controller (e.g. TCP at ``wnd_max``) keeps its
        #: generation, which is what makes steady-state allocations
        #: cacheable.  A true instance attribute — a shared class default
        #: mutated in place would alias generation state across every
        #: controller on a link.
        self.demand_gen: int = 0

    @abstractmethod
    def demand_rate(self, now: float) -> float:
        """Bytes/second the protocol is willing to push right now.

        Contract for link allocation (``docs/congestion.md``):

        * calling this twice at the same ``now`` with unchanged state must
          return the same value, and the second call must not change
          observable state (idempotence within a timestamp);
        * with ``demand_time_varying = False`` it must be *pure*: no state
          change at all, and a value that depends only on state covered
          by ``demand_gen`` — never on ``now``.  Such a demand is
          evaluated once per generation and pushed to the links, so a
          change that does not move ``demand_gen`` is never seen.

        All built-in controllers satisfy this.
        """

    def next_change_at(self, now: float) -> float:
        """Asked right after ``demand_rate(now)``: until when asking again
        changes no state and returns the same value, unless ``demand_gen``
        moves first.  The default promises nothing beyond ``now``."""
        return now

    def on_bytes_sent(self, nbytes: int, now: float) -> None:
        """Credit ``nbytes`` transmitted (and, in the fluid model, acked)."""

    def on_loss(self, now: float) -> None:
        """React to a loss signal."""

    def on_transmit_complete(self, now: float) -> None:
        """Per-message hook after credit/loss accounting at completion.

        Policies with extra completion-time machinery override this (UDT
        uses it for its receive-buffer overshoot check); the flow engine
        only invokes overridden implementations, so the default costs
        nothing on the hot path.
        """

    # ------------------------------------------------------------------
    # side-effect-free introspection (observability gauges sample these at
    # snapshot time; unlike demand_rate they must not mutate state)
    # ------------------------------------------------------------------
    def window_bytes(self) -> float:
        """Current effective congestion window, in bytes."""
        return math.nan

    def current_rate(self) -> float:
        """Current pacing rate, bytes/second, without rate-control updates."""
        return math.nan


#: TCP socket buffer (send and receive alike), bytes: it caps the window
TCP_BUFFER = 8 * 1024 * 1024


class TcpCc(CongestionControl):
    """TCP Reno-style slow start + AIMD with a window cap.

    The window cap ``wnd_max`` (:data:`TCP_BUFFER`) models the
    socket-buffer/BDP throughput limit that makes TCP collapse on
    high-RTT links (paper §I, §V-B), and random loss triggers at most one
    multiplicative decrease per RTT (a loss episode).  Window controllers
    that differ only in their congestion-avoidance growth and their
    decrease (:class:`CubicCc`) override :meth:`_avoid` and
    :meth:`_decrease`.
    """

    def __init__(self, rtt: float) -> None:
        super().__init__()
        self.rtt = max(rtt, 1e-5)
        self.wnd_max = TCP_BUFFER
        self.cwnd = 10 * MSS  # initial window: ten segments
        self.ssthresh = math.inf
        self._last_md = -math.inf
        self.loss_episodes = 0

    def demand_rate(self, now: float) -> float:
        wnd = self.cwnd
        floor = 2 * MSS
        if wnd < floor:
            wnd = floor
        wnd_max = self.wnd_max
        if wnd > wnd_max:
            wnd = wnd_max
        return wnd / self.rtt

    def on_bytes_sent(self, nbytes: int, now: float) -> None:
        cwnd = self.cwnd
        if cwnd < self.ssthresh:
            cwnd += nbytes  # slow start: double per RTT
        else:
            cwnd = self._avoid(cwnd, nbytes, now)
        if cwnd > self.wnd_max:
            cwnd = self.wnd_max
        if cwnd != self.cwnd:
            self.cwnd = cwnd
            self.demand_gen += 1

    def _avoid(self, cwnd: float, nbytes: int, now: float) -> float:
        """The window after ``nbytes`` are acked in congestion avoidance."""
        return cwnd + MSS * nbytes / cwnd  # +MSS per RTT

    def on_loss(self, now: float) -> None:
        if now - self._last_md < self.rtt:
            return  # one decrease per loss episode
        self._last_md = now
        self.loss_episodes += 1
        cwnd = self.ssthresh = self._decrease(now)
        if cwnd != self.cwnd:
            self.cwnd = cwnd
            self.demand_gen += 1

    def _decrease(self, now: float) -> float:
        """The window (and new ``ssthresh``) after a loss episode starts."""
        return max(self.cwnd / 2.0, 2 * MSS)

    def window_bytes(self) -> float:
        return min(max(self.cwnd, 2 * MSS), self.wnd_max)

    def current_rate(self) -> float:
        return self.window_bytes() / self.rtt


#: UDT receive buffer, bytes: the paper raised Netty-UDT's 12 MB default
#: to 100 MB to avoid receiver-side loss on high-BDP links (§V-A)
UDT_RECEIVE_BUFFER = 100 * 1024 * 1024


class UdtCc(CongestionControl):
    """UDT's DAIMD rate control, simplified to its fluid behaviour.

    The rate ramps toward the estimated available bandwidth every SYN
    interval (10 ms) — independent of the RTT, which is what makes UDT
    strong on high-BDP links — and decreases by the factor 1/9 on a loss
    event (UDT's NAK response).  A finite receive buffer combined with the
    one-RTT-stale feedback loop causes overshoot losses on high-BDP paths
    when the buffer is small: this models the paper's observation (§V-A)
    that Netty-UDT's default 12 MB buffers had to be raised to 100 MB.
    """

    subject_to_udp_cap = True
    #: the SYN-interval ramp makes demand a function of time, not just
    #: state; the allocation-epoch cache re-asks once a SYN interval passed
    demand_time_varying = True

    SYN = 0.01  # UDT rate-control interval, seconds
    DECREASE = 1.0 - 1.0 / 9.0  # multiplicative decrease factor
    BURST_FACTOR = 8.0  # burstiness multiplier for buffer-overshoot check
    INITIAL_RATE = 128 * 1024  # bytes/s before the first SYN ramp
    MIN_RATE = 64 * 1024  # bytes/s floor of the loss response

    def __init__(
        self,
        rtt: float,
        bandwidth_estimate: float,
        receive_buffer: float = UDT_RECEIVE_BUFFER,
        max_rate: float = math.inf,
    ) -> None:
        super().__init__()
        self.rtt = max(rtt, 1e-5)
        self.bandwidth_estimate = bandwidth_estimate
        self.receive_buffer = receive_buffer
        self.rate = self.INITIAL_RATE
        self.max_rate = max_rate
        self._last_increase = -math.inf
        self.loss_events = 0
        self.buffer_overflows = 0

    def demand_rate(self, now: float) -> float:
        self._maybe_increase(now)
        rate = self.rate
        if rate < self.MIN_RATE:
            rate = self.MIN_RATE
        if rate > self.max_rate:
            rate = self.max_rate
        return rate

    def next_change_at(self, now: float) -> float:
        # ``last + SYN`` rounded down until ``_maybe_increase`` returns
        # early there, and so (subtraction being monotone) before it.
        last = self._last_increase
        bound = last + self.SYN
        while bound - last >= self.SYN:
            bound = math.nextafter(bound, -math.inf)
        return bound

    def _maybe_increase(self, now: float) -> None:
        last = self._last_increase
        if now - last < self.SYN:
            return
        # Multiple SYN intervals may have elapsed while idle; apply each.
        intervals = 1
        if last > -math.inf:
            intervals = max(1, int((now - last) / self.SYN))
            intervals = min(intervals, 1000)
        rate = self.rate
        estimate = self.bandwidth_estimate
        max_rate = self.max_rate
        probe = 10 * MSS
        for _ in range(intervals):
            gap = estimate - rate
            step = max(gap * 0.05, 0.0) + probe  # probe even at estimate
            rate = min(rate + step, max_rate)
        self.rate = rate
        self._last_increase = now

    def check_receive_buffer(self, now: float) -> bool:
        """Overshoot check: stale feedback lets ~BURST_FACTOR * rate * (RTT+SYN)
        bytes pile up at the receiver; beyond the buffer they are dropped.

        Returns True (and applies the loss response) when overflow occurs.
        """
        in_flight = self.rate * (self.rtt + self.SYN) * self.BURST_FACTOR
        if in_flight > self.receive_buffer:
            self.buffer_overflows += 1
            self.on_loss(now)
            return True
        return False

    def on_transmit_complete(self, now: float) -> None:
        # Receive-buffer overshoot acts as an additional loss signal but
        # the data is retransmitted (reliable), so delivery still happens.
        self.check_receive_buffer(now)

    def on_loss(self, now: float) -> None:
        self.loss_events += 1
        rate = max(self.rate * self.DECREASE, self.MIN_RATE)
        if rate != self.rate:
            self.rate = rate
            self.demand_gen += 1

    def window_bytes(self) -> float:
        return self.current_rate() * self.rtt

    def current_rate(self) -> float:
        return min(max(self.rate, self.MIN_RATE), self.max_rate)


class UdpCc(CongestionControl):
    """UDP: no congestion control, no reliability, no ordering."""

    reliable = False
    ordered = False
    subject_to_udp_cap = True

    def demand_rate(self, now: float) -> float:
        return math.inf


class LedbatCc(CongestionControl):
    """LEDBAT (RFC 6817): reliable background transport that yields.

    LEDBAT targets a small queueing delay and backs off long before
    loss-based protocols do, making it *less than best effort*: it soaks
    up spare capacity and vanishes when foreground traffic appears.  The
    fluid model captures exactly that semantics through the scavenger
    allocation tier (see ``LinkDirection.allocate_rate``); the controller
    itself ramps gently toward the spare-capacity estimate (GAIN = 1 per
    RTT) and halves on loss, per the RFC's slow-start-less dynamics.

    The paper implemented LEDBAT over Kompics/Netty/UDP before moving to
    UDT (§I) and names other protocols as extension targets for the DATA
    selector (§IV); this class is that extension hook.
    """

    subject_to_udp_cap = True
    scavenger = True
    INITIAL_RATE = 64 * 1024  # bytes/s
    MIN_RATE = 16 * 1024  # bytes/s floor of the loss response

    def __init__(self, rtt: float, bandwidth_estimate: float) -> None:
        super().__init__()
        self.rtt = max(rtt, 1e-5)
        self.bandwidth_estimate = bandwidth_estimate
        self.rate = self.INITIAL_RATE
        self.loss_events = 0

    def demand_rate(self, now: float) -> float:
        return max(self.rate, self.MIN_RATE)

    def on_bytes_sent(self, nbytes: int, now: float) -> None:
        # Additive increase of ~one rate-quantum per RTT worth of data,
        # never asking beyond the link estimate (the scavenger tier clips
        # the actual allocation to spare capacity anyway).
        rate = min(
            self.rate + (nbytes / self.rtt) * 0.10,
            self.bandwidth_estimate,
        )
        if rate != self.rate:
            self.rate = rate
            self.demand_gen += 1

    def on_loss(self, now: float) -> None:
        self.loss_events += 1
        rate = max(self.rate / 2.0, self.MIN_RATE)
        if rate != self.rate:
            self.rate = rate
            self.demand_gen += 1

    def window_bytes(self) -> float:
        return self.current_rate() * self.rtt

    def current_rate(self) -> float:
        return max(self.rate, self.MIN_RATE)


class CubicCc(TcpCc):
    """CUBIC-style window growth (RFC 8312's fluid skeleton).

    Between losses the window chases ``W(t) = C·(t−K)³ + W_max`` (in
    segments), where ``t`` is the time since the last multiplicative
    decrease and ``K = ∛(W_max·(1−β)/C)`` is when the cubic recrosses the
    pre-loss plateau — fast recovery toward ``W_max``, a cautious plateau
    around it, then aggressive probing beyond.  Growth is still
    ack-clocked: per completion the window moves toward the cubic target
    but never faster than slow start (one byte per acked byte), so demand
    stays a pure function of controller state and the allocation-epoch
    cache needs no timestamping (``demand_time_varying`` stays False).
    Before the first loss the controller is in Reno-style slow start.
    """

    C = 0.4  # cubic coefficient, segments / s^3 (RFC 8312 default)
    BETA = 0.7  # multiplicative decrease factor (RFC 8312 default)

    def __init__(self, rtt: float) -> None:
        super().__init__(rtt)
        self._w_max = 0.0  # plateau window at the last loss, segments
        self._k = 0.0  # seconds from loss to plateau recrossing
        self._epoch_start = -math.inf  # time of the last loss response

    def _avoid(self, cwnd: float, nbytes: int, now: float) -> float:
        # Chase the cubic target, ack-clocked: never more than one byte of
        # window per acked byte (W(t) is >= cwnd for t >= 0, so the window
        # is monotone between losses).
        t = now - self._epoch_start
        target = (self.C * (t - self._k) ** 3 + self._w_max) * MSS
        if target > cwnd:
            grown = cwnd + nbytes
            return target if target < grown else grown
        return cwnd

    def _decrease(self, now: float) -> float:
        w = max(self.cwnd, 2 * MSS)
        self._w_max = w / MSS
        self._k = (self._w_max * (1.0 - self.BETA) / self.C) ** (1.0 / 3.0)
        self._epoch_start = now
        return max(w * self.BETA, 2 * MSS)


class BbrCc(CongestionControl):
    """BBR-style rate pacing: model the pipe, don't fill the queue.

    Two phases of BBRv1's state machine, in fluid form:

    * **startup** — the pacing rate doubles per RTT (ack-clocked, like
      slow start in rate space) until it reaches the bottleneck-bandwidth
      estimate, or a loss declares the pipe full.
    * **probe** — an eight-phase pacing-gain cycle ``1.25, 0.75, 1, …``
      of one RTT each: probe above the estimate, drain the queue it
      built, then cruise.  The phase is a pure function of ``now`` and
      controller state, which makes demand *time-varying*:
      ``demand_time_varying = True`` forces the allocation-epoch cache to
      re-solve at new timestamps, while ``demand_gen`` still tracks the
      signal-driven state (estimate moves, phase re-anchoring) so cached
      allocations within one timestamp stay valid.  ``demand_rate`` never
      mutates state — idempotence within a timestamp holds trivially.

    Loss is mostly ignored (BBR is not loss-based); a modest estimate
    decay on loss events keeps the model from camping on a stale estimate
    when the path degrades, and delivery credit ramps it back.
    """

    demand_time_varying = True

    CYCLE_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    LOSS_DECAY = 0.95  # gentle estimate decay per loss episode
    INITIAL_RATE = 128 * 1024  # bytes/s startup pacing rate
    MIN_RATE = 64 * 1024  # bytes/s floor of every pacing rate

    def __init__(self, rtt: float, bandwidth_estimate: float) -> None:
        super().__init__()
        self.rtt = max(rtt, 1e-5)
        self.bandwidth_estimate = bandwidth_estimate
        self.rate = self.INITIAL_RATE  # startup pacing rate
        self.btl_bw = self.rate  # bottleneck estimate once probing
        self.startup = True
        self._cycle_start = 0.0
        self._last_md = -math.inf
        self.loss_events = 0

    def _clip(self, rate: float) -> float:
        return self.MIN_RATE if rate < self.MIN_RATE else rate

    def demand_rate(self, now: float) -> float:
        if self.startup:
            return self._clip(self.rate)
        phase = int((now - self._cycle_start) / self.rtt) % len(self.CYCLE_GAINS)
        return self._clip(self.btl_bw * self.CYCLE_GAINS[phase])

    def _enter_probe(self, rate: float, now: float) -> None:
        self.startup = False
        self.btl_bw = self._clip(rate)
        self._cycle_start = now
        self.demand_gen += 1

    def on_bytes_sent(self, nbytes: int, now: float) -> None:
        if self.startup:
            # Rate doubles per RTT: at pacing rate r the controller sends
            # r·RTT bytes per RTT, so crediting nbytes/RTT adds r per RTT.
            rate = self.rate + nbytes / self.rtt
            if rate >= self.bandwidth_estimate:
                self._enter_probe(rate, now)
            elif rate != self.rate:
                self.rate = rate
                self.demand_gen += 1
            return
        if self.btl_bw < self.bandwidth_estimate:
            # Post-loss recovery: delivered bytes ramp the estimate back
            # toward the configured ceiling, about one MSS per BDP acked.
            bdp = self.btl_bw * self.rtt
            grown = min(self.btl_bw + MSS * nbytes / max(bdp, MSS),
                        self.bandwidth_estimate)
            if grown != self.btl_bw:
                self.btl_bw = grown
                self.demand_gen += 1

    def on_loss(self, now: float) -> None:
        if now - self._last_md < self.rtt:
            return  # one response per loss episode
        self._last_md = now
        self.loss_events += 1
        if self.startup:
            # Full-pipe signal: leave startup at the current rate.
            self._enter_probe(self.rate, now)
            return
        decayed = max(self.btl_bw * self.LOSS_DECAY, self.MIN_RATE)
        if decayed != self.btl_bw:
            self.btl_bw = decayed
            self.demand_gen += 1

    def window_bytes(self) -> float:
        return self.current_rate() * self.rtt

    def current_rate(self) -> float:
        return self._clip(self.rate if self.startup else self.btl_bw)


# ----------------------------------------------------------------------
# the policy table: name -> (controller factory, description)
# ----------------------------------------------------------------------

#: UDT implementation processing cap ("limited by internal queue and
#: buffer sizes" on loopback, §V-B): the 40 MiB/s calibration
UDT_MAX_RATE = 40 * 1024 * 1024


def _capped_estimate(bandwidth: float, udp_cap: Optional[float],
                     ceiling: float = math.inf) -> float:
    return min(bandwidth, udp_cap if udp_cap is not None else math.inf, ceiling)


def _udt(rtt: float, bandwidth: float, udp_cap: Optional[float], config: Any) -> UdtCc:
    receive_buffer = UDT_RECEIVE_BUFFER if config is None else config.get_float(
        "net.udt.receive_buffer", UDT_RECEIVE_BUFFER)
    return UdtCc(
        rtt=rtt,
        bandwidth_estimate=_capped_estimate(bandwidth, udp_cap, UDT_MAX_RATE),
        receive_buffer=receive_buffer,
        max_rate=UDT_MAX_RATE,
    )


CcFactory = Callable[[float, float, Optional[float], Any], CongestionControl]

#: every congestion-control policy a connection can name (``cc=``).  A
#: factory takes the dialed path's ``(rtt, bandwidth, udp_cap)`` and the
#: owning network's :class:`~repro.util.config.Config` (None when a
#: controller is built standalone).
CC_POLICIES: Dict[str, Tuple[CcFactory, str]] = {
    "bbr": (lambda rtt, bandwidth, udp_cap, config: BbrCc(rtt, bandwidth),
            "BBR rate pacing: startup doubling, then a gain-cycled probe"),
    "cubic": (lambda rtt, bandwidth, udp_cap, config: CubicCc(rtt),
              "CUBIC window growth: cubic-of-time recovery/probe around W_max"),
    "ledbat": (lambda rtt, bandwidth, udp_cap, config:
               LedbatCc(rtt, _capped_estimate(bandwidth, udp_cap)),
               "LEDBAT scavenger: yields to any foreground traffic"),
    "reno": (lambda rtt, bandwidth, udp_cap, config: TcpCc(rtt),
             "TCP Reno: slow start + AIMD, socket-buffer window cap"),
    "udp": (lambda rtt, bandwidth, udp_cap, config: UdpCc(),
            "no congestion control, unreliable, unordered"),
    "udt": (_udt, "UDT DAIMD rate control (SYN-interval ramp, x8/9 decrease)"),
}


class UnknownCcError(KeyError):
    """Raised on a lookup of a name no policy is listed under."""

    def __str__(self) -> str:  # KeyError wraps its message in repr()
        return self.args[0] if self.args else ""


def make_cc(
    name: str,
    *,
    rtt: float = 0.1,
    bandwidth: float = math.inf,
    udp_cap: Optional[float] = None,
    config: Any = None,
) -> CongestionControl:
    """Build the controller listed as ``name`` for the dialed path."""
    entry = CC_POLICIES.get(name)
    if entry is None:
        close = difflib.get_close_matches(name, sorted(CC_POLICIES), n=3)
        hint = f"; did you mean {' or '.join(repr(c) for c in close)}?" if close else ""
        raise UnknownCcError(
            f"unknown congestion-control policy {name!r}{hint} "
            f"(registered: {', '.join(sorted(CC_POLICIES))})"
        )
    return entry[0](rtt, bandwidth, udp_cap, config)
