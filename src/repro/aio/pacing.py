"""The real-socket UDT-lite datapath's pacing law: UDT's DAIMD.

:class:`DaimdPacing` owns the sender's rate evolution —
:class:`~repro.aio.udt.UdtLiteConnection` calls ``on_interval`` from its
pacing loop and ``on_loss`` on NAK or retransmission timeout, and paces
DATA packets at ``pacer.rate`` bytes/s.  It is the one law every socket
run uses (the fluid twin is :class:`repro.netsim.congestion.UdtCc`); the
``pacer_factory=`` seam of the UDT-lite transport exists so tests can
substitute a subclass, such as a fixed-rate pacer.
"""

from __future__ import annotations

MSS = 1200  # payload bytes per DATA packet (the datapath imports it from here)
SYN_INTERVAL = 0.01  # UDT's fixed rate-control period
MIN_RATE = 64 * 1024  # rate floor after multiplicative decreases


class DaimdPacing:
    """UDT's DAIMD: probe by max(5%, 10·MSS) per SYN, decrease ×8/9.

    ``on_interval(now)`` fires from the pacing loop before each DATA
    packet (the pacer itself rate-limits to one adjustment per
    :data:`SYN_INTERVAL`); ``on_loss(now)`` fires on NAK or RTO.  ``now``
    is ``time.monotonic()`` — wall time, not simulated time.
    """

    DECREASE = 8.0 / 9.0

    def __init__(self, initial_rate: float, max_rate: float, now: float) -> None:
        self.rate = min(initial_rate, max_rate)
        self.max_rate = max_rate
        self._last_interval = now

    def on_interval(self, now: float) -> None:
        if now - self._last_interval >= SYN_INTERVAL:
            self._last_interval = now
            self.rate = min(self.rate + max(self.rate * 0.05, 10 * MSS), self.max_rate)

    def on_loss(self, now: float) -> None:
        self.rate = max(self.rate * self.DECREASE, MIN_RATE)
