"""Clock abstraction.

All middleware and application code reads time exclusively through a
:class:`Clock` so the same code runs unmodified against the discrete-event
simulator (:class:`SimulatedClock`) and against real time
(:class:`WallClock`).  Times are floating-point seconds.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod


class Clock(ABC):
    """Read-only time source, in seconds."""

    @abstractmethod
    def now(self) -> float:
        """Return the current time in seconds."""


class SimulatedClock(Clock):
    """Clock advanced explicitly by the simulation kernel.

    The kernel owns the instance and moves :attr:`_now` forward; everything
    else holds a read-only reference.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def _advance_to(self, t: float) -> None:
        """Move the clock forward (kernel-internal)."""
        if t < self._now:
            raise ValueError(f"clock cannot move backwards: {t} < {self._now}")
        self._now = t


class WallClock(Clock):
    """Monotonic wall-clock time, zeroed at construction."""

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._t0
