"""Time-series recording for experiment output (throughput(t), ratio(t), ...)."""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional


class TimeSeries:
    """Append-only (time, value) series with window aggregation helpers."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, t: float, value: float) -> None:
        """Append an observation; times must be non-decreasing."""
        if self._times and t < self._times[-1]:
            raise ValueError(f"time going backwards in series {self.name!r}: {t} < {self._times[-1]}")
        self._times.append(t)
        self._values.append(value)

    @property
    def times(self) -> List[float]:
        return list(self._times)

    @property
    def values(self) -> List[float]:
        return list(self._values)

    def window_mean(self, start: float, end: float) -> Optional[float]:
        """Mean of values with ``start <= t < end``; None if the window is empty."""
        lo = bisect_right(self._times, start - 1e-12)
        hi = bisect_right(self._times, end - 1e-12)
        if hi <= lo:
            return None
        window = self._values[lo:hi]
        return sum(window) / len(window)
