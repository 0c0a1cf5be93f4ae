"""Pluggable pacing policies for the real-socket UDT-lite datapath.

The netsim side resolves fluid congestion controllers from
:data:`repro.netsim.congestion.CC_POLICIES`; this module is the
real-socket mirror.  A :class:`PacingPolicy` owns the sender's rate
evolution — :class:`~repro.aio.udt.UdtLiteConnection` calls
``on_interval`` from its pacing loop and ``on_loss`` on NAK or
retransmission timeout, and paces DATA packets at ``policy.rate``
bytes/s.  The transport no longer bakes the DAIMD arithmetic into the
connection: swapping the policy name swaps the behaviour class with the
datapath untouched.

Policy names match the netsim registry where the dynamics correspond
(``udt``, ``reno``, ``cubic``, ``bbr``), so a scenario that sweeps
``cc=`` arms in simulation names the same arms against real sockets.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.util.registry import Registry, UnknownNameError

MSS = 1200  # payload bytes per DATA packet (the datapath imports it from here)
SYN_INTERVAL = 0.01  # UDT's fixed rate-control period
MIN_RATE = 64 * 1024  # rate floor after multiplicative decreases


class UnknownPacerError(UnknownNameError):
    """Raised on a lookup of a name no pacing policy was registered under."""


class PacingPolicy:
    """Base pacing policy: a rate plus interval/loss hooks.

    ``on_interval(now)`` fires from the pacing loop before each DATA
    packet (the policy itself rate-limits to one adjustment per
    :data:`SYN_INTERVAL`); ``on_loss(now)`` fires on NAK or RTO.  ``now``
    is ``time.monotonic()`` — wall time, not simulated time.
    """

    name = "base"

    def __init__(self, initial_rate: float, max_rate: float, now: float) -> None:
        self.rate = min(initial_rate, max_rate)
        self.max_rate = max_rate
        self._last_interval = now

    def _interval_elapsed(self, now: float) -> bool:
        if now - self._last_interval >= SYN_INTERVAL:
            self._last_interval = now
            return True
        return False

    def on_interval(self, now: float) -> None:
        raise NotImplementedError

    def on_loss(self, now: float) -> None:
        raise NotImplementedError


class DaimdPacing(PacingPolicy):
    """UDT's DAIMD: probe by max(5%, 10·MSS) per SYN, decrease ×8/9.

    Byte-for-byte the arithmetic the connection used to hard-code.
    """

    name = "udt"
    DECREASE = 8.0 / 9.0

    def on_interval(self, now: float) -> None:
        if self._interval_elapsed(now):
            self.rate = min(self.rate + max(self.rate * 0.05, 10 * MSS), self.max_rate)

    def on_loss(self, now: float) -> None:
        self.rate = max(self.rate * self.DECREASE, MIN_RATE)


class RenoPacing(PacingPolicy):
    """AIMD in rate space: additive probe per SYN interval, halve on loss."""

    name = "reno"
    DECREASE = 0.5

    def on_interval(self, now: float) -> None:
        if self._interval_elapsed(now):
            self.rate = min(self.rate + 10 * MSS, self.max_rate)

    def on_loss(self, now: float) -> None:
        self.rate = max(self.rate * self.DECREASE, MIN_RATE)


class CubicPacing(PacingPolicy):
    """CUBIC-of-time in rate space.

    After a loss the rate follows ``r(t) = C·(t−K)³ + r_max`` where
    ``r_max`` is the pre-loss rate and ``K`` the plateau-recrossing time
    — concave recovery toward the old operating point, then convex
    probing beyond it.  Before the first loss it ramps like slow start
    (×1.5 per interval).
    """

    name = "cubic"
    BETA = 0.7

    def __init__(self, initial_rate: float, max_rate: float, now: float) -> None:
        super().__init__(initial_rate, max_rate, now)
        self._r_max = 0.0
        self._k = 0.0
        self._epoch = -math.inf

    def on_interval(self, now: float) -> None:
        if not self._interval_elapsed(now):
            return
        if self._epoch == -math.inf:
            self.rate = min(self.rate * 1.5, self.max_rate)
            return
        t = now - self._epoch
        # Scale C so recovery spans ~seconds at megabyte rates: the cubic
        # coefficient grows with the plateau rate (RFC 8312 scales with
        # W_max via K; this keeps K's cube root form).
        c = 0.4 * max(self._r_max, MIN_RATE)
        target = c * (t - self._k) ** 3 + self._r_max
        if target > self.rate:
            self.rate = min(target, self.max_rate)

    def on_loss(self, now: float) -> None:
        self._r_max = max(self.rate, MIN_RATE)
        self._k = (1.0 - self.BETA) ** (1.0 / 3.0)
        self._epoch = now
        self.rate = max(self.rate * self.BETA, MIN_RATE)


class BbrPacing(PacingPolicy):
    """BBR-style gain cycling over a bottleneck estimate.

    Startup multiplies the rate per interval until the first loss; after
    that the pacing rate cycles ``1.25, 0.75, 1, …`` of the estimate
    (one phase per interval), and losses decay the estimate gently.
    """

    name = "bbr"
    CYCLE_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    STARTUP_GAIN = 2.0 ** (1.0 / 4.0)  # doubles every 4 intervals
    LOSS_DECAY = 0.95

    def __init__(self, initial_rate: float, max_rate: float, now: float) -> None:
        super().__init__(initial_rate, max_rate, now)
        self.btl_bw = self.rate
        self.startup = True
        self._phase = 0

    def on_interval(self, now: float) -> None:
        if not self._interval_elapsed(now):
            return
        if self.startup:
            self.rate = min(self.rate * self.STARTUP_GAIN, self.max_rate)
            self.btl_bw = self.rate
            if self.rate >= self.max_rate:
                self.startup = False
            return
        self._phase = (self._phase + 1) % len(self.CYCLE_GAINS)
        self.rate = min(
            max(self.btl_bw * self.CYCLE_GAINS[self._phase], MIN_RATE),
            self.max_rate,
        )

    def on_loss(self, now: float) -> None:
        if self.startup:
            self.startup = False  # full-pipe signal
            return
        self.btl_bw = max(self.btl_bw * self.LOSS_DECAY, MIN_RATE)
        self.rate = max(self.rate * self.LOSS_DECAY, MIN_RATE)


PacerFactory = Callable[[float, float, float], PacingPolicy]

#: registered pacing policies by name (the real-socket mirror of
#: repro.netsim.congestion.CC_POLICIES)
PACERS: Registry[PacerFactory] = Registry("pacing policy", UnknownPacerError)
for _pacer in (DaimdPacing, RenoPacing, CubicPacing, BbrPacing):
    PACERS.add(_pacer.name, _pacer)

pacer_names = PACERS.names
pacer_by_name = PACERS.get
