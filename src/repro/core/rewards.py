"""Episode statistics and the ratio learner's reward (§IV-C2).

The paper's TD learner "uses collected throughput and latency statistics
as rewards"; every figure harness here rewards throughput alone.  The
interceptor snapshots an :class:`EpisodeStats` per flow per learning
episode and :func:`reward` maps it to the scalar the learner maximises:
acked throughput in MB/s.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ratio import signed_of_counts

MB = 1024 * 1024


@dataclass(frozen=True, slots=True)
class EpisodeStats:
    """What one destination flow did during one learning episode."""

    start: float
    duration: float
    bytes_acked: int
    messages_acked: int
    messages_failed: int
    tcp_released: int
    udt_released: int

    @property
    def throughput(self) -> float:
        """Acked bytes per second over the episode."""
        return self.bytes_acked / self.duration if self.duration > 0 else 0.0

    @property
    def released(self) -> int:
        return self.tcp_released + self.udt_released

    @property
    def true_ratio(self) -> float:
        """Observed signed protocol ratio of the released messages (0 if none)."""
        if self.released == 0:
            return 0.0
        return signed_of_counts(self.tcp_released, self.udt_released)


def reward(stats: EpisodeStats) -> float:
    """The learner's reward: the episode's acked throughput in MB/s."""
    return stats.throughput / MB
