"""The real-socket UDT-lite datapath's pacing law: UDT's DAIMD.

A :class:`PacingPolicy` owns the sender's rate evolution —
:class:`~repro.aio.udt.UdtLiteConnection` calls ``on_interval`` from its
pacing loop and ``on_loss`` on NAK or retransmission timeout, and paces
DATA packets at ``policy.rate`` bytes/s.  :class:`DaimdPacing` is the one
law every socket run uses (the fluid twin is
:class:`repro.netsim.congestion.UdtCc`); the ``pacer_factory=`` seam of
the UDT-lite transport exists so tests can substitute a fixed-rate pacer.
"""

from __future__ import annotations

from typing import Callable

MSS = 1200  # payload bytes per DATA packet (the datapath imports it from here)
SYN_INTERVAL = 0.01  # UDT's fixed rate-control period
MIN_RATE = 64 * 1024  # rate floor after multiplicative decreases


class PacingPolicy:
    """Base pacing policy: a rate plus interval/loss hooks.

    ``on_interval(now)`` fires from the pacing loop before each DATA
    packet (the policy itself rate-limits to one adjustment per
    :data:`SYN_INTERVAL`); ``on_loss(now)`` fires on NAK or RTO.  ``now``
    is ``time.monotonic()`` — wall time, not simulated time.
    """

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

    DECREASE = 8.0 / 9.0

    def on_interval(self, now: float) -> None:
        if self._interval_elapsed(now):
            self.rate = min(self.rate + max(self.rate * 0.05, 10 * MSS), self.max_rate)

    def on_loss(self, now: float) -> None:
        self.rate = max(self.rate * self.DECREASE, MIN_RATE)


PacerFactory = Callable[[float, float, float], PacingPolicy]
