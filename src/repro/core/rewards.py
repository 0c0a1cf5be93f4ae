"""Episode statistics and reward functions for the ratio learner (§IV-C2).

The TD learner "uses collected throughput and latency statistics as
rewards".  The interceptor snapshots an :class:`EpisodeStats` per flow per
learning episode; a :class:`RewardFunction` maps it to the scalar the
learner maximises.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

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
    total_queue_delay: float  # sum over acked messages, seconds

    @property
    def throughput(self) -> float:
        """Acked bytes per second over the episode."""
        return self.bytes_acked / self.duration if self.duration > 0 else 0.0

    @property
    def mean_queue_delay(self) -> float:
        """Mean enqueue-to-sent delay of acked messages."""
        return self.total_queue_delay / self.messages_acked if self.messages_acked else 0.0

    @property
    def released(self) -> int:
        return self.tcp_released + self.udt_released

    @property
    def true_ratio(self) -> float:
        """Observed signed protocol ratio of the released messages."""
        if self.released == 0:
            return 0.0
        return (self.udt_released - self.tcp_released) / self.released


class RewardFunction(ABC):
    """Maps episode statistics to the learner's scalar reward."""

    @abstractmethod
    def reward(self, stats: EpisodeStats) -> float: ...

    def __call__(self, stats: EpisodeStats) -> float:
        return self.reward(stats)


class ThroughputReward(RewardFunction):
    """Reward = throughput in units of ``scale`` bytes/s (default MB/s)."""

    def __init__(self, scale: float = MB) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale

    def reward(self, stats: EpisodeStats) -> float:
        return stats.throughput / self.scale


class LatencyPenalizedReward(RewardFunction):
    """Throughput reward minus a queue-delay penalty.

    Useful when the flow also carries latency-sensitive traffic; the paper
    mentions latency statistics as a reward input alongside throughput.
    """

    def __init__(self, scale: float = MB, delay_weight: float = 1.0) -> None:
        if scale <= 0 or delay_weight < 0:
            raise ValueError("scale must be positive and delay_weight non-negative")
        self.scale = scale
        self.delay_weight = delay_weight

    def reward(self, stats: EpisodeStats) -> float:
        return stats.throughput / self.scale - self.delay_weight * stats.mean_queue_delay
