"""Streaming statistics: Welford mean/variance."""

from __future__ import annotations

import math


class OnlineStats:
    """Numerically stable streaming mean/variance (Welford's algorithm)."""

    __slots__ = ("count", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the summary."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two samples)."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Return a new summary combining both inputs (parallel Welford)."""
        merged = OnlineStats()
        n = self.count + other.count
        if n == 0:
            return merged
        delta = other._mean - self._mean
        merged.count = n
        merged._mean = self._mean + delta * other.count / n
        merged._m2 = self._m2 + other._m2 + delta * delta * self.count * other.count / n
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        return merged

    def state_dict(self) -> dict:
        """JSON-safe exact state for cross-process aggregation.

        ``min``/``max`` become ``None`` while empty (their infinities are
        not valid strict JSON); :meth:`from_state` restores them.  The
        round trip is exact, so merging shipped states in a parent
        process equals merging the live objects.
        """
        return {
            "count": self.count,
            "mean": self._mean,
            "m2": self._m2,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_state(cls, state: dict) -> "OnlineStats":
        """Rebuild a summary from :meth:`state_dict` output."""
        stats = cls()
        stats.count = int(state["count"])
        stats._mean = float(state["mean"])
        stats._m2 = float(state["m2"])
        stats.min = math.inf if state["min"] is None else float(state["min"])
        stats.max = -math.inf if state["max"] is None else float(state["max"])
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OnlineStats(n={self.count}, mean={self.mean:.6g}, sd={self.stddev:.6g})"
